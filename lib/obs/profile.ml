(* Site-level profiler (mirrors the paper's Section 5.1/5.3 analyses).

   Fed the same typed event stream as the sinks, the profiler answers
   *where* the protocol overhead lands instead of just *what* happened:

   - per-site counters: every miss/false-miss/stall event arrives with
     an [Event.site] (procedure index, instruction index, call stack)
     attached by the engine, and is aggregated per (proc, pc) — the
     "which line of LU eats the read-miss stalls" table;
   - per-block contention: reader/writer node sets, invalidation
     counts and ping-pong (consecutive invalidations from different
     requesters), plus per-longword access masks that separate true
     sharing from false sharing (distinct nodes writing disjoint
     longwords of one block);
   - protocol transaction spans: request sends are matched with their
     replies (read_req/readex_req/upgrade_req against
     data_reply/upgrade_ack — an upgrade may be converted to a
     read-exclusive by the home, so either reply closes it — and the
     lock/flag/barrier round trips), giving miss-to-grant latency
     histograms per request type; requests still open at flush are
     reported as unmatched.

   The profiler never touches the runtime's types: rendering takes
   naming closures ([name_proc], [name_site]) so the caller can map
   sites through the frozen image's source-location table. *)

type site_stats = {
  mutable n_read : int;
  mutable n_write : int;
  mutable n_upgrade : int;
  mutable n_false : int;
  mutable n_stall : int;
  mutable stall_cycles : int;
}

let fresh_site () =
  { n_read = 0; n_write = 0; n_upgrade = 0; n_false = 0; n_stall = 0;
    stall_cycles = 0 }

let site_misses s = s.n_read + s.n_write + s.n_upgrade

(* --- node sets ------------------------------------------------------ *)

(* A set of node ids below [nprocs], one bit each, in words: node x is
   bit [x land word_mask] of word [x lsr word_shift], the layout of
   [Nodeset]'s word masks.  One int has no bit for node 63 and up.  A
   block's sets only grow, so [nodes_add] updates in place. *)
type nodes = int array

let word_shift = 5
let word_mask = (1 lsl word_shift) - 1
let nodes_create nprocs = Array.make ((nprocs + word_mask) lsr word_shift) 0

let nodes_add (s : nodes) x =
  let i = x lsr word_shift in
  s.(i) <- s.(i) lor (1 lsl (x land word_mask))

let popcount m =
  let rec go m k = if m = 0 then k else go (m land (m - 1)) (k + 1) in
  go m 0

(* Members of [a] or [b], two sets over the same nodes. *)
let union_cardinal (a : nodes) (b : nodes) =
  let k = ref 0 in
  Array.iteri (fun i w -> k := !k + popcount (w lor b.(i))) a;
  !k

let cardinal s = union_cardinal s s

(* Some member of [a] outside [b]. *)
let exceeds (a : nodes) (b : nodes) =
  let r = ref false in
  Array.iteri (fun i w -> if w land lnot b.(i) <> 0 then r := true) a;
  !r

type block_stats = {
  readers : nodes; (* read-missing nodes *)
  writers : nodes; (* write/upgrade-missing nodes *)
  mutable invals : int;
  mutable pingpong : int; (* invalidations whose requester changed *)
  mutable last_req : int;
  word_writers : (int, nodes) Hashtbl.t; (* longword offset -> nodes *)
  word_readers : (int, nodes) Hashtbl.t;
}

let fresh_block nprocs =
  { readers = nodes_create nprocs; writers = nodes_create nprocs;
    invals = 0; pingpong = 0; last_req = -1;
    word_writers = Hashtbl.create 8; word_readers = Hashtbl.create 8 }

type span = {
  sp_node : int;
  sp_kind : string; (* request kind that opened the transaction *)
  sp_addr : int;
  sp_start : int;
  sp_dur : int;
}

type open_req = { or_kind : string; or_start : int }

type t = {
  nprocs : int;
  block_of : int -> int;
  sites : (int * int, site_stats) Hashtbl.t;
  stacks : ((int * int) list * (int * int), int ref) Hashtbl.t;
  blocks : (int, block_stats) Hashtbl.t;
  (* (node, addr, class) -> open request; Hashtbl.add/remove so a
     shadowed duplicate (a protocol anomaly) surfaces as unmatched *)
  open_spans : (int * int * string, open_req) Hashtbl.t;
  mutable matched : span list; (* newest first *)
  mutable n_matched : int;
  span_metrics : Metrics.t;
  mutable drained : bool;
}

let create ?(nprocs = 1) ?(block_of = fun a -> a land lnot 63) () =
  { nprocs; block_of;
    sites = Hashtbl.create 64;
    stacks = Hashtbl.create 64;
    blocks = Hashtbl.create 64;
    open_spans = Hashtbl.create 32;
    matched = [];
    n_matched = 0;
    span_metrics = Metrics.create ~nprocs;
    drained = false }

let site_cell t key =
  match Hashtbl.find_opt t.sites key with
  | Some s -> s
  | None ->
    let s = fresh_site () in
    Hashtbl.add t.sites key s;
    s

let block_cell t base =
  match Hashtbl.find_opt t.blocks base with
  | Some b -> b
  | None ->
    let b = fresh_block t.nprocs in
    Hashtbl.add t.blocks base b;
    b

let bump_stack t (site : Event.site) =
  let key = (site.sstack, (site.sproc, site.spc)) in
  match Hashtbl.find_opt t.stacks key with
  | Some r -> incr r
  | None -> Hashtbl.add t.stacks key (ref 1)

let word_add t tbl word node =
  match Hashtbl.find_opt tbl word with
  | Some s -> nodes_add s node
  | None ->
    let s = nodes_create t.nprocs in
    nodes_add s node;
    Hashtbl.add tbl word s

(* --- span matching -------------------------------------------------- *)

(* Request kinds and the class shared with their replies.  Only remote
   transactions appear: local deliveries never reach the network taps,
   and they are local on both legs (a node never sends a remote request
   answered locally or vice versa). *)
let span_class_of_request = function
  | "read_req" | "readex_req" | "upgrade_req" -> Some "coh"
  | "lock_req" -> Some "lock"
  | "flag_wait" -> Some "flag"
  | "barrier_arrive" -> Some "barrier"
  | _ -> None

let span_class_of_reply = function
  | "data_reply" | "upgrade_ack" -> Some "coh"
  | "lock_grant" -> Some "lock"
  | "flag_wake" -> Some "flag"
  | "barrier_release" -> Some "barrier"
  | _ -> None

let span_hist_name kind = "span." ^ kind

let open_span t ~node ~addr ~kind ~time cls =
  Hashtbl.add t.open_spans (node, addr, cls)
    { or_kind = kind; or_start = time }

let close_span t ~node ~addr ~time cls =
  let key = (node, addr, cls) in
  match Hashtbl.find_opt t.open_spans key with
  | None -> () (* e.g. tracing attached mid-run; drop silently *)
  | Some { or_kind; or_start } ->
    Hashtbl.remove t.open_spans key;
    let dur = time - or_start in
    Metrics.observe t.span_metrics ~node (span_hist_name or_kind) dur;
    t.matched <-
      { sp_node = node; sp_kind = or_kind; sp_addr = addr;
        sp_start = or_start; sp_dur = dur }
      :: t.matched;
    t.n_matched <- t.n_matched + 1

(* --- the feed ------------------------------------------------------- *)

let feed t (r : Event.record) =
  let node = r.node in
  match r.ev with
  | Miss { kind; addr } ->
    (match r.site with
     | Some site ->
       let s = site_cell t (site.sproc, site.spc) in
       (match kind with
        | Event.Read -> s.n_read <- s.n_read + 1
        | Event.Write -> s.n_write <- s.n_write + 1
        | Event.Upgrade -> s.n_upgrade <- s.n_upgrade + 1);
       bump_stack t site
     | None -> ());
    let base = t.block_of addr in
    let b = block_cell t base in
    let word = (addr - base) lsr 2 in
    (match kind with
     | Event.Read ->
       nodes_add b.readers node;
       word_add t b.word_readers word node
     | Event.Write | Event.Upgrade ->
       nodes_add b.writers node;
       word_add t b.word_writers word node)
  | False_miss _ ->
    (match r.site with
     | Some site ->
       let s = site_cell t (site.sproc, site.spc) in
       s.n_false <- s.n_false + 1;
       bump_stack t site
     | None -> ())
  | Stall { cycles; _ } ->
    (match r.site with
     | Some site ->
       let s = site_cell t (site.sproc, site.spc) in
       s.n_stall <- s.n_stall + 1;
       s.stall_cycles <- s.stall_cycles + cycles
     | None -> ())
  | Invalidated { addr; requester } ->
    let b = block_cell t (t.block_of addr) in
    b.invals <- b.invals + 1;
    if b.last_req >= 0 && b.last_req <> requester then
      b.pingpong <- b.pingpong + 1;
    b.last_req <- requester
  | Msg_send { kind; block; _ } ->
    (match span_class_of_request kind with
     | Some cls -> open_span t ~node ~addr:block ~kind ~time:r.time cls
     | None -> ())
  | Msg_recv { kind; block; _ } ->
    (match span_class_of_reply kind with
     | Some cls -> close_span t ~node ~addr:block ~time:r.time cls
     | None -> ())
  | _ -> ()

(* --- accessors ------------------------------------------------------ *)

type totals = { t_read : int; t_write : int; t_upgrade : int; t_false : int }

let totals t =
  Hashtbl.fold
    (fun _ s acc ->
      { t_read = acc.t_read + s.n_read;
        t_write = acc.t_write + s.n_write;
        t_upgrade = acc.t_upgrade + s.n_upgrade;
        t_false = acc.t_false + s.n_false })
    t.sites
    { t_read = 0; t_write = 0; t_upgrade = 0; t_false = 0 }

let sites t =
  Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.sites []
  |> List.sort (fun (_, a) (_, b) ->
    compare
      (site_misses b + b.n_false, b.stall_cycles)
      (site_misses a + a.n_false, a.stall_cycles))

let spans t = List.rev t.matched
let span_count t = t.n_matched
let span_metrics t = t.span_metrics

let unmatched t =
  Hashtbl.fold
    (fun (node, addr, _) { or_kind; or_start } acc ->
      (node, addr, or_kind, or_start) :: acc)
    t.open_spans []
  |> List.sort compare

(* --- false sharing -------------------------------------------------- *)

(* True sharing shows as a longword-level conflict: some longword is
   written by two nodes, or read by a node that did not write it while
   another wrote it (a longword's writer set is never empty).  A block
   with invalidation traffic, several nodes involved, and no such
   longword is a false-sharing suspect. *)
let block_truly_shared (b : block_stats) =
  Hashtbl.fold
    (fun word writers acc ->
      acc
      || cardinal writers >= 2
      ||
      match Hashtbl.find_opt b.word_readers word with
      | Some readers -> exceeds readers writers
      | None -> false)
    b.word_writers false

let is_suspect (b : block_stats) =
  b.invals >= 2
  && union_cardinal b.readers b.writers >= 2
  && cardinal b.writers > 0
  && not (block_truly_shared b)

let false_sharing_suspects t =
  Hashtbl.fold
    (fun base b acc -> if is_suspect b then (base, b) :: acc else acc)
    t.blocks []
  |> List.sort (fun (_, a) (_, b) -> compare b.invals a.invals)

let contended_blocks t =
  Hashtbl.fold
    (fun base b acc -> if b.invals > 0 then (base, b) :: acc else acc)
    t.blocks []
  |> List.sort (fun (_, a) (_, b) -> compare b.invals a.invals)

(* --- reports -------------------------------------------------------- *)

let report ?(top = 10) t ~name_site =
  let module Table = Shasta_stats.Table in
  let buf = Buffer.create 1024 in
  let all = sites t in
  let tot = totals t in
  let tbl =
    Table.create
      [ "site"; "read"; "write"; "upgrade"; "false"; "stalls"; "stall cyc" ]
  in
  List.iteri
    (fun i ((proc, pc), s) ->
      if i < top then
        Table.add_row tbl
          [ name_site ~proc ~pc;
            string_of_int s.n_read; string_of_int s.n_write;
            string_of_int s.n_upgrade; string_of_int s.n_false;
            string_of_int s.n_stall; string_of_int s.stall_cycles ])
    all;
  Buffer.add_string buf
    (Printf.sprintf "top %d of %d sites (by checks fired, stall cycles):\n"
       (min top (List.length all)) (List.length all));
  Buffer.add_string buf (Table.render tbl);
  Buffer.add_string buf
    (Printf.sprintf
       "all sites: read=%d write=%d upgrade=%d false=%d\n"
       tot.t_read tot.t_write tot.t_upgrade tot.t_false);
  (* contention *)
  let contended = contended_blocks t in
  if contended <> [] then begin
    let ct =
      Table.create
        [ "block"; "readers"; "writers"; "invals"; "ping-pong"; "verdict" ]
    in
    List.iteri
      (fun i (base, b) ->
        if i < top then
          Table.add_row ct
            [ Printf.sprintf "0x%x" base;
              string_of_int (cardinal b.readers);
              string_of_int (cardinal b.writers);
              string_of_int b.invals; string_of_int b.pingpong;
              (if is_suspect b then "false-sharing suspect"
               else if block_truly_shared b then "true sharing"
               else "-") ])
      contended;
    Buffer.add_string buf "\ncontended blocks (by invalidations):\n";
    Buffer.add_string buf (Table.render ct)
  end;
  (* spans *)
  Buffer.add_string buf
    (Printf.sprintf "\nprotocol spans: %d matched, %d unmatched at flush\n"
       t.n_matched (Hashtbl.length t.open_spans));
  List.iter
    (fun name ->
      let h = Metrics.hist_total t.span_metrics name in
      if h.Metrics.n > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "  %-22s n=%-6d mean=%-8.1f p50<=%-6d p95<=%-6d max=%d\n" name
             h.Metrics.n
             (float_of_int h.Metrics.sum /. float_of_int h.Metrics.n)
             (Metrics.percentile h 50.0) (Metrics.percentile h 95.0)
             h.Metrics.hmax))
    (Metrics.hist_names t.span_metrics);
  List.iter
    (fun (node, addr, kind, start) ->
      Buffer.add_string buf
        (Printf.sprintf "  unmatched: n%d %s @0x%x since cycle %d\n" node kind
           addr start))
    (unmatched t);
  Buffer.contents buf

(* Collapsed call stacks for flamegraph tools: one line per distinct
   (stack, site) pair, root frame first, the leaf being the site label,
   the count the number of checks (misses + false misses) that fired
   there.  Frames are the procedures on [Node.call_stack]. *)
let collapsed t ~name_proc ~name_site =
  let buf = Buffer.create 1024 in
  let lines =
    Hashtbl.fold
      (fun (stack, (proc, pc)) count acc ->
        let frames =
          List.rev_map (fun (fproc, _ret) -> name_proc fproc) stack
        in
        let line =
          String.concat ";" (frames @ [ name_site ~proc ~pc ])
        in
        (line, !count) :: acc)
      t.stacks []
    |> List.sort compare
  in
  List.iter
    (fun (line, count) ->
      Buffer.add_string buf (Printf.sprintf "%s %d\n" line count))
    lines;
  Buffer.contents buf

(* Parse collapsed-stack text back to (stack, count) pairs — the
   round-trip direction used by tests and by flamegraph tooling. *)
let parse_collapsed s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
    match String.rindex_opt line ' ' with
    | None -> None
    | Some i ->
      let stack = String.sub line 0 i in
      let count =
        int_of_string (String.sub line (i + 1) (String.length line - i - 1))
      in
      Some (stack, count))

(* Matched spans as emittable records (for the Chrome sink's async
   tracks), oldest first.  Draining is one-shot: a second flush gets
   nothing, keeping sinks duplicate-free. *)
let drain_spans t =
  if t.drained then []
  else begin
    t.drained <- true;
    List.rev_map
      (fun sp ->
        { Event.node = sp.sp_node; time = sp.sp_start;
          ev =
            Event.Span
              { kind = sp.sp_kind; addr = sp.sp_addr; dur = sp.sp_dur };
          site = None })
      t.matched
  end
