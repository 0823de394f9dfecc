(* Serial-memory spec machine and vector-clock race detector.  See
   refine.mli for the model; mcheck.ml owns the abstraction function
   that turns protocol moves into the [sstep] commit stream fed here. *)

open Shasta_protocol
module Imap = Transitions.Imap

type sstep =
  | S_load of { node : int; block : int; value : int }
  | S_store of { node : int; block : int; value : int }
  | S_lock of { node : int; id : int }
  | S_unlock of { node : int; id : int }
  | S_flag_set of { node : int; id : int }
  | S_flag_wait of { node : int; id : int }
  | S_barrier_arrive of { node : int }
  | S_barrier_pass of { node : int; excused : int }
  | S_crash of {
      victim : int;
      held : int list;
      admissible : (int * int list) list;
    }

let vals_to_string vs = String.concat "," (List.map string_of_int vs)

let string_of_sstep = function
  | S_load { node; block; value } ->
    Printf.sprintf "n%d: load 0x%x = %d" node block value
  | S_store { node; block; value } ->
    Printf.sprintf "n%d: store 0x%x <- %d" node block value
  | S_lock { node; id } -> Printf.sprintf "n%d: acquire lock %d" node id
  | S_unlock { node; id } -> Printf.sprintf "n%d: release lock %d" node id
  | S_flag_set { node; id } -> Printf.sprintf "n%d: set flag %d" node id
  | S_flag_wait { node; id } ->
    Printf.sprintf "n%d: pass flag %d" node id
  | S_barrier_arrive { node } -> Printf.sprintf "n%d: arrive at barrier" node
  | S_barrier_pass { node; excused } ->
    if excused = 0 then Printf.sprintf "n%d: pass barrier" node
    else Printf.sprintf "n%d: pass barrier (excused mask 0x%x)" node excused
  | S_crash { victim; held; admissible } ->
    Printf.sprintf "crash n%d%s%s" victim
      (match held with
       | [] -> ""
       | l ->
         Printf.sprintf ", locks {%s} force-released"
           (vals_to_string l))
      (String.concat ""
         (List.map
            (fun (b, vs) ->
              Printf.sprintf ", 0x%x widens to {%s}" b (vals_to_string vs))
            admissible))

(* ------------------------------------------------------------------ *)
(* The spec machine                                                     *)
(* ------------------------------------------------------------------ *)

type spec = {
  nprocs : int;
  smem : int list Imap.t; (* block -> sorted admissible values *)
  swriter : int Imap.t; (* block -> last committed writer *)
  slocks : int Imap.t; (* lock id -> holder *)
  sflags : int list; (* set flag ids, sorted *)
  sarr : int Imap.t; (* barrier episode -> arrived-node mask *)
  sdone : int Imap.t; (* barrier episode -> passed-node mask *)
  spass : int Imap.t; (* node -> barrier episodes completed *)
}

let init ~nprocs ~blocks =
  { nprocs;
    smem =
      List.fold_left (fun m b -> Imap.add b [ 0 ] m) Imap.empty blocks;
    swriter = Imap.empty;
    slocks = Imap.empty;
    sflags = [];
    sarr = Imap.empty;
    sdone = Imap.empty;
    spass = Imap.empty }

let mem_values sp block =
  match Imap.find_opt block sp.smem with Some vs -> vs | None -> [ 0 ]

let writer_of sp block = Imap.find_opt block sp.swriter
let held_locks sp node =
  Imap.fold
    (fun id h acc -> if h = node then id :: acc else acc)
    sp.slocks []
  |> List.sort compare

let episodes_of sp node =
  match Imap.find_opt node sp.spass with Some k -> k | None -> 0

(* Drop a barrier episode once every node has passed or is excused:
   [halted] is monotone (an ever-crashed node's program never reaches
   another barrier), so nobody consults the episode again and the
   canonical string stays bounded. *)
let gc_episode sp ep excused =
  let all = (1 lsl sp.nprocs) - 1 in
  let passed = match Imap.find_opt ep sp.sdone with Some m -> m | None -> 0 in
  if (passed lor excused) land all = all then
    { sp with sarr = Imap.remove ep sp.sarr; sdone = Imap.remove ep sp.sdone }
  else sp

let apply_crash sp ~victim ~held ~admissible =
  let slocks = List.fold_left (fun m id -> Imap.remove id m) sp.slocks held in
  let smem, swriter =
    List.fold_left
      (fun (smem, swriter) (b, vs) ->
        let vs = List.sort_uniq compare vs in
        ( Imap.add b (if vs = [] then mem_values sp b else vs) smem,
          Imap.remove b swriter ))
      (sp.smem, sp.swriter) admissible
  in
  ignore victim;
  { sp with slocks; smem; swriter }

let step sp (st : sstep) : (spec, string) result =
  match st with
  | S_load { node; block; value } ->
    let vs = mem_values sp block in
    if List.mem value vs then
      (* observation collapses the admissible set *)
      Ok { sp with smem = Imap.add block [ value ] sp.smem }
    else
      Error
        (Printf.sprintf
           "n%d load 0x%x observed %d but the serial memory holds {%s}" node
           block value (vals_to_string vs))
  | S_store { node; block; value } ->
    Ok
      { sp with
        smem = Imap.add block [ value ] sp.smem;
        swriter = Imap.add block node sp.swriter }
  | S_lock { node; id } -> (
    match Imap.find_opt id sp.slocks with
    | Some h ->
      Error
        (Printf.sprintf "n%d acquires lock %d already held by n%d" node id h)
    | None -> Ok { sp with slocks = Imap.add id node sp.slocks })
  | S_unlock { node; id } -> (
    match Imap.find_opt id sp.slocks with
    | Some h when h = node -> Ok { sp with slocks = Imap.remove id sp.slocks }
    | Some h ->
      Error (Printf.sprintf "n%d releases lock %d held by n%d" node id h)
    | None -> Error (Printf.sprintf "n%d releases free lock %d" node id))
  | S_flag_set { node = _; id } ->
    Ok { sp with sflags = List.sort_uniq compare (id :: sp.sflags) }
  | S_flag_wait { node; id } ->
    if List.mem id sp.sflags then Ok sp
    else Error (Printf.sprintf "n%d passes flag %d while it is unset" node id)
  | S_barrier_arrive { node } ->
    let ep = episodes_of sp node in
    let m = match Imap.find_opt ep sp.sarr with Some m -> m | None -> 0 in
    if m land (1 lsl node) <> 0 then
      Error
        (Printf.sprintf "n%d arrives twice at barrier episode %d" node ep)
    else Ok { sp with sarr = Imap.add ep (m lor (1 lsl node)) sp.sarr }
  | S_barrier_pass { node; excused } ->
    let ep = episodes_of sp node in
    let arrived =
      match Imap.find_opt ep sp.sarr with Some m -> m | None -> 0
    in
    let all = (1 lsl sp.nprocs) - 1 in
    if arrived land (1 lsl node) = 0 then
      Error
        (Printf.sprintf "n%d passes barrier episode %d without arriving" node
           ep)
    else if (arrived lor excused) land all <> all then
      Error
        (Printf.sprintf
           "n%d passes barrier episode %d before all arrive (arrived 0x%x, \
            excused 0x%x)"
           node ep arrived excused)
    else
      let passed =
        match Imap.find_opt ep sp.sdone with Some m -> m | None -> 0
      in
      let sp =
        { sp with
          sdone = Imap.add ep (passed lor (1 lsl node)) sp.sdone;
          spass = Imap.add node (ep + 1) sp.spass }
      in
      Ok (gc_episode sp ep excused)
  | S_crash { victim; held; admissible } ->
    Ok (apply_crash sp ~victim ~held ~admissible)

(* Resynchronize after an excused divergence: apply the step's state
   change without its precondition.  Only racy scenarios reach this. *)
let force sp (st : sstep) =
  match step sp st with
  | Ok sp -> sp
  | Error _ -> (
    match st with
    | S_load { block; value; _ } ->
      { sp with smem = Imap.add block [ value ] sp.smem }
    | S_store { node; block; value } ->
      { sp with
        smem = Imap.add block [ value ] sp.smem;
        swriter = Imap.add block node sp.swriter }
    | S_lock { node; id } -> { sp with slocks = Imap.add id node sp.slocks }
    | S_unlock { id; _ } -> { sp with slocks = Imap.remove id sp.slocks }
    | S_flag_set _ | S_flag_wait _ -> sp
    | S_barrier_arrive { node } ->
      let ep = episodes_of sp node in
      let m = match Imap.find_opt ep sp.sarr with Some m -> m | None -> 0 in
      { sp with sarr = Imap.add ep (m lor (1 lsl node)) sp.sarr }
    | S_barrier_pass { node; excused } ->
      let ep = episodes_of sp node in
      let passed =
        match Imap.find_opt ep sp.sdone with Some m -> m | None -> 0
      in
      gc_episode
        { sp with
          sdone = Imap.add ep (passed lor (1 lsl node)) sp.sdone;
          spass = Imap.add node (ep + 1) sp.spass }
        ep excused
    | S_crash { victim; held; admissible } ->
      apply_crash sp ~victim ~held ~admissible)

(* The writers [canon_into] folds the buffer through: a render builds
   no closure. *)
let rec vals_into b = function
  | [] -> ()
  | [ v ] -> Keybuf.add_int b v
  | v :: l -> Keybuf.add_int b v; Buffer.add_char b ','; vals_into b l

let mem_into blk vs b =
  Buffer.add_char b 'm'; Keybuf.add_hex b blk; Buffer.add_string b "={";
  vals_into b vs; Buffer.add_char b '}';
  b

let writer_into blk w b =
  Buffer.add_char b 'w'; Keybuf.add_hex b blk; Buffer.add_char b ':';
  Keybuf.add_int b w;
  b

let lock_into id h b =
  Buffer.add_char b 'l'; Keybuf.add_int b id; Buffer.add_char b ':';
  Keybuf.add_int b h;
  b

let rec flags_into b = function
  | [] -> ()
  | id :: l -> Buffer.add_char b 'f'; Keybuf.add_int b id; flags_into b l

let arrived_into ep m b =
  Buffer.add_char b 'a'; Keybuf.add_int b ep; Buffer.add_char b ':';
  Keybuf.add_hex b m;
  b

let done_into ep m b =
  Buffer.add_char b 'd'; Keybuf.add_int b ep; Buffer.add_char b ':';
  Keybuf.add_hex b m;
  b

let pass_into n k b =
  Buffer.add_char b 'p'; Keybuf.add_int b n; Buffer.add_char b ':';
  Keybuf.add_int b k;
  b

let canon_into b sp =
  let b = Imap.fold mem_into sp.smem b in
  let b = Imap.fold writer_into sp.swriter b in
  let b = Imap.fold lock_into sp.slocks b in
  flags_into b sp.sflags;
  let b = Imap.fold arrived_into sp.sarr b in
  let b = Imap.fold done_into sp.sdone b in
  ignore (Imap.fold pass_into sp.spass b)

let canon sp =
  let b = Buffer.create 128 in
  canon_into b sp;
  Buffer.contents b

let equal a b = canon a = canon b

(* ------------------------------------------------------------------ *)
(* Vector-clock race detection                                          *)
(* ------------------------------------------------------------------ *)

(* Clocks are sparse int maps (missing component = 0).  The detector is
   FastTrack-shaped: each block carries the last write (writer plus the
   writer's full clock at the write) and a read map (each node's own
   clock component at its last read since that write).  Synchronizing
   edges: lock release->acquire, flag set->wait, barrier episodes
   (arrivals accumulate, passes join the accumulated clock), and crash
   cuts (the victim's clock joins every node). *)

type vc = int Imap.t

let vc_get (c : vc) n = match Imap.find_opt n c with Some k -> k | None -> 0
let vc_leq a b = Imap.for_all (fun n k -> k <= vc_get b n) a
let vc_join a b = Imap.union (fun _ x y -> Some (max x y)) a b
let vc_tick c n = Imap.add n (vc_get c n + 1) c

type racer = {
  rnp : int;
  nvc : vc Imap.t; (* node -> clock *)
  lkc : vc Imap.t; (* lock id -> clock stored at last release *)
  flc : vc Imap.t; (* flag id -> accumulated setter clocks *)
  bar : vc Imap.t; (* barrier episode -> accumulated arrival clocks *)
  rpass : int Imap.t; (* node -> barrier episodes completed *)
  wrc : (int * vc) Imap.t; (* block -> (last writer, clock at write) *)
  rdc : vc Imap.t; (* block -> read map since the last write *)
}

let racer_init ~nprocs =
  { rnp = nprocs;
    nvc = Imap.empty;
    lkc = Imap.empty;
    flc = Imap.empty;
    bar = Imap.empty;
    rpass = Imap.empty;
    wrc = Imap.empty;
    rdc = Imap.empty }

let clock_of r n = match Imap.find_opt n r.nvc with Some c -> c | None -> Imap.empty
let set_clock r n c = { r with nvc = Imap.add n c r.nvc }
let finish r n c = set_clock r n (vc_tick c n)

let observe r (st : sstep) : racer * string list =
  match st with
  | S_store { node; block; _ } ->
    let me = clock_of r node in
    let races = ref [] in
    (match Imap.find_opt block r.wrc with
     | Some (w, wc) when w <> node && not (vc_leq wc me) ->
       races :=
         Printf.sprintf "write-write race on 0x%x: n%d's store vs n%d's store"
           block node w
         :: !races
     | _ -> ());
    (match Imap.find_opt block r.rdc with
     | Some rm ->
       Imap.iter
         (fun m k ->
           if m <> node && k > vc_get me m then
             races :=
               Printf.sprintf
                 "read-write race on 0x%x: n%d's store vs n%d's load" block
                 node m
               :: !races)
         rm
     | None -> ());
    (* the recorded write timestamp must cover the write event itself
       (the post-tick clock): an un-ticked first event is vacuously
       ordered before everything and its races would be missed *)
    let r =
      { r with wrc = Imap.add block (node, vc_tick me node) r.wrc;
        rdc = Imap.remove block r.rdc }
    in
    (finish r node me, List.rev !races)
  | S_load { node; block; _ } ->
    let me = clock_of r node in
    let races =
      match Imap.find_opt block r.wrc with
      | Some (w, wc) when w <> node && not (vc_leq wc me) ->
        [ Printf.sprintf "write-read race on 0x%x: n%d's load vs n%d's store"
            block node w ]
      | _ -> []
    in
    let rm =
      match Imap.find_opt block r.rdc with Some m -> m | None -> Imap.empty
    in
    (* post-tick component, for the same reason as the write clock *)
    let r =
      { r with
        rdc = Imap.add block (Imap.add node (vc_get me node + 1) rm) r.rdc }
    in
    (finish r node me, races)
  | S_lock { node; id } ->
    let me = clock_of r node in
    let me =
      match Imap.find_opt id r.lkc with Some c -> vc_join me c | None -> me
    in
    (finish r node me, [])
  | S_unlock { node; id } ->
    let me = clock_of r node in
    (finish { r with lkc = Imap.add id me r.lkc } node me, [])
  | S_flag_set { node; id } ->
    let me = clock_of r node in
    let acc =
      match Imap.find_opt id r.flc with Some c -> vc_join c me | None -> me
    in
    (finish { r with flc = Imap.add id acc r.flc } node me, [])
  | S_flag_wait { node; id } ->
    let me = clock_of r node in
    let me =
      match Imap.find_opt id r.flc with Some c -> vc_join me c | None -> me
    in
    (finish r node me, [])
  | S_barrier_arrive { node } ->
    let me = clock_of r node in
    let ep = match Imap.find_opt node r.rpass with Some k -> k | None -> 0 in
    let acc =
      match Imap.find_opt ep r.bar with Some c -> vc_join c me | None -> me
    in
    (finish { r with bar = Imap.add ep acc r.bar } node me, [])
  | S_barrier_pass { node; _ } ->
    let ep = match Imap.find_opt node r.rpass with Some k -> k | None -> 0 in
    let me = clock_of r node in
    let me =
      match Imap.find_opt ep r.bar with Some c -> vc_join me c | None -> me
    in
    let r = { r with rpass = Imap.add node (ep + 1) r.rpass } in
    (finish r node me, [])
  | S_crash { victim; held; _ } ->
    (* the crash detector's cut is itself a synchronizing event: every
       survivor observes the reconstruction before touching salvaged
       state, and a taken-over lock hands the victim's critical section
       to the next holder *)
    let vclk = clock_of r victim in
    let nvc =
      List.fold_left
        (fun m n ->
          Imap.add n (vc_join (match Imap.find_opt n m with
                               | Some c -> c
                               | None -> Imap.empty)
                        vclk) m)
        r.nvc
        (List.init r.rnp Fun.id)
    in
    let lkc =
      List.fold_left
        (fun m id ->
          Imap.add id
            (vc_join
               (match Imap.find_opt id m with Some c -> c | None -> Imap.empty)
               vclk)
            m)
        r.lkc held
    in
    ({ r with nvc; lkc }, [])
