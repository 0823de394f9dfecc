(* Model-checker tests: exhaustive runs of the built-in scenarios must
   find no violation; QCheck-generated random scripts driven through
   random interleavings must keep owner/sharer consistency and
   invalidation-ack conservation at every reachable state; the injected
   dropped-ack bug must be caught with a counterexample; replaying a
   real workload's recorded inputs through the pure core must
   reproduce its exact final protocol state; and the visited-set key
   keeps its bytes, its state counts and its allocation budget. *)

open QCheck2
module T = Shasta_protocol.Transitions
module Mcheck = Shasta_mcheck.Mcheck
module Message = Shasta_protocol.Message

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (Test.make ~name ~count gen prop)

(* Take the enabled move with display label [label], or fail listing
   the labels that are enabled. *)
let play cfg sys label =
  match
    List.assoc_opt label (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys)
  with
  | Some next -> sys := next ()
  | None ->
    Alcotest.failf "move %S not enabled (have: %s)" label
      (String.concat "; "
         (List.map fst (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys)))

(* --- exhaustive scenarios ------------------------------------------- *)

let t_exhaustive_clean () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun sc ->
          let r = Mcheck.check_exhaustive sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s P=%d explored fully" sc.Mcheck.sname nprocs)
            false r.Mcheck.truncated;
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail
              (Printf.sprintf "%s P=%d: violation" sc.Mcheck.sname nprocs))
        (Mcheck.scenarios ~nprocs))
    [ 2; 3 ]

let t_injected_bug_caught () =
  (* dropping one invalidation ack must be detected in at least one
     scenario, with a non-empty counterexample trace *)
  let caught =
    List.filter_map
      (fun sc ->
        (Mcheck.check_exhaustive ~injection:Mcheck.Drop_first_inv_ack sc)
          .Mcheck.violation)
      (Mcheck.scenarios ~nprocs:2)
  in
  Alcotest.(check bool) "at least one scenario catches the dropped ack" true
    (caught <> []);
  List.iter
    (fun (v : Mcheck.violation) ->
      Alcotest.(check bool) "counterexample trace is non-empty" true
        (v.Mcheck.vtrace <> []))
    caught

let t_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~seed:7 ~runs:200 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": fuzz violation"))
    (Mcheck.scenarios ~nprocs:3)

(* --- random scripts, random interleavings --------------------------- *)

(* Generate small per-node scripts of synchronized accesses: every data
   access happens under the one lock, so interleavings are racy at the
   protocol level but race-free at the data level. *)
let script_gen ~nprocs ~blocks =
  let block = Gen.oneofl blocks in
  let access =
    Gen.oneof
      [ Gen.map (fun b -> Mcheck.Read b) block;
        Gen.map2 (fun b v -> Mcheck.Write (b, v + 1)) block (Gen.int_bound 99);
        Gen.map (fun b -> Mcheck.Write_reg_plus (b, 1)) block ]
  in
  let section =
    Gen.map
      (fun accs -> (Mcheck.Lock 0 :: accs) @ [ Mcheck.Unlock 0 ])
      (Gen.list_size (Gen.int_range 1 2) access)
  in
  let node_script =
    Gen.map List.concat (Gen.list_size (Gen.int_range 0 2) section)
  in
  Gen.array_size (Gen.pure nprocs) node_script

let scenario_of_scripts scripts ~nprocs ~blocks =
  { Mcheck.sname = "random";
    nprocs;
    blocks;
    scripts;
    oracle = (fun _ -> []);
    drf = true (* every access sits inside a Lock 0 critical section *);
    cfg_mod = Fun.id }

(* Drive one random interleaving to completion, checking the state
   invariants (owner in range and a sharer, single exclusive holder,
   ack conservation against in-flight messages, flag/value coherence)
   after every move; at the end the system must be quiescent. *)
let prop_random_trace (seed, scripts) =
  let nprocs = Array.length scripts in
  let blocks = [ 0; 8192 ] in
  let sc = scenario_of_scripts scripts ~nprocs ~blocks in
  let _, v = Mcheck.fuzz ~seed ~runs:3 sc in
  match v with
  | None -> true
  | Some v ->
    Mcheck.pp_violation stderr v;
    false

let trace_gen =
  Gen.pair (Gen.int_bound 1_000_000) (script_gen ~nprocs:3 ~blocks:[ 0; 8192 ])

(* Owner/sharer consistency, stated directly against the final view of
   an exhaustive exploration: fold over the directory and re-check the
   two core rules for every terminal scenario. *)
let t_owner_sharer_consistency () =
  List.iter
    (fun sc ->
      let sys = Mcheck.init_sys sc in
      let cfg = Mcheck.cfg_of sc in
      (* run one deterministic interleaving: always take the first move *)
      let rec go sys n =
        if n > 10_000 then Alcotest.fail "no quiescence"
        else
          match Mcheck.moves cfg ~inj:Mcheck.No_injection sys with
          | [] -> sys
          | (_, next) :: _ -> go (next ()) (n + 1)
      in
      let sys = go sys 0 in
      let v = Mcheck.view sys in
      T.dir_fold
        (fun block e () ->
          Alcotest.(check bool)
            (Printf.sprintf "0x%x owner in range" block)
            true
            (e.T.owner >= 0 && e.T.owner < cfg.T.nprocs);
          Alcotest.(check bool)
            (Printf.sprintf "0x%x owner is a sharer" block)
            true (T.is_sharer e e.T.owner);
          let exclusives =
            List.filter
              (fun n -> T.line_state v ~node:n ~block = T.L_exclusive)
              (List.init cfg.T.nprocs Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "0x%x at most one exclusive holder" block)
            true
            (List.length exclusives <= 1))
        v ())
    (Mcheck.scenarios ~nprocs:3)

(* --- lossy channels ------------------------------------------------- *)

(* With the adversary allowed a bounded number of drop/dup/swap moves
   per channel, every safety invariant must still hold at every
   reachable state AND every terminal state must have drained its
   channels (eventual delivery => quiescence: a frame the adversary
   dropped is always retransmittable, so a wedged channel is a bug in
   the sublayer model, not an allowed outcome). *)
let t_lossy_exhaustive_clean () =
  List.iter
    (fun sc ->
      let r = Mcheck.check_exhaustive ~lossy:1 sc in
      Alcotest.(check bool)
        (Printf.sprintf "%s P=2 lossy explored fully" sc.Mcheck.sname)
        false r.Mcheck.truncated;
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": lossy violation"))
    (Mcheck.scenarios ~nprocs:2)

let t_lossy_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~lossy:2 ~seed:11 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": lossy fuzz violation"))
    (Mcheck.scenarios ~nprocs:3)

(* --- the node-crash adversary --------------------------------------- *)

(* Exhaustively at P=2: every interleaving of every crash-safe scenario
   with one adversarial halt (and optionally one restart) keeps every
   invariant, never strands a survivor, and quiesces.  This is the
   fault-tolerance proof for directory reconstruction, lock-lease
   takeover, barrier excusal and in-flight redispatch. *)
let t_crash_exhaustive_clean () =
  List.iter
    (fun (crash, recover, tag) ->
      List.iter
        (fun sc ->
          let r = Mcheck.check_exhaustive ~crash ?recover sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s P=2 %s explored fully" sc.Mcheck.sname tag)
            false r.Mcheck.truncated;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s reaches terminals" sc.Mcheck.sname tag)
            true (r.Mcheck.terminals > 0);
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail
              (Printf.sprintf "%s %s: violation" sc.Mcheck.sname tag))
        (Mcheck.crash_scenarios ~nprocs:2))
    [ (1, None, "crash"); (1, Some 1, "crash+recover") ]

(* Regression, exhaustively at P=3: a home that crashes with its own
   invalidations still on the wire leaves their targets holding valid
   copies, so the rebuilt entry must keep them as sharers.  Both
   scenarios reached "holds a valid copy but is not in the sharer set"
   before recovery counted the purged invalidations. *)
let t_crash_purged_inv_p3 () =
  let names = [ "lock-increment"; "upgrade-race" ] in
  let scs =
    List.filter
      (fun (sc : Mcheck.scenario) -> List.mem sc.sname names)
      (Mcheck.crash_scenarios ~nprocs:3)
  in
  Alcotest.(check int) "both scenarios found" (List.length names)
    (List.length scs);
  List.iter
    (fun (sc : Mcheck.scenario) ->
      let r = Mcheck.check_exhaustive ~crash:1 sc in
      Alcotest.(check bool)
        (sc.sname ^ " P=3 crash explored fully")
        false r.truncated;
      match r.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.sname ^ " P=3 crash: violation"))
    scs

let t_crash_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~crash:2 ~recover:1 ~seed:13 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": crash fuzz violation"))
    (Mcheck.crash_scenarios ~nprocs:3)

(* Regression: a node that crashes AFTER arriving at the barrier must
   be excused via the halted mask, not left counted as arrived — the
   interleaving the adversary found when this was wrong.  Driven as a
   directed move sequence so the fix stays pinned even if the
   exhaustive pass's order changes. *)
let t_crash_after_barrier_arrival () =
  let sc =
    { Mcheck.sname = "barrier-crash";
      nprocs = 2;
      blocks = [];
      scripts = [| [ Mcheck.Barrier ]; [ Mcheck.Barrier ] |];
      oracle = (fun _ -> []);
      drf = true;
      cfg_mod = Fun.id }
  in
  let cfg = Mcheck.cfg_of sc in
  let sys = ref (Mcheck.init_sys ~crash:1 sc) in
  let play = play cfg sys in
  play "n1: barrier";
  play "deliver 1->0: [1] barrier_arrive @0x0";
  play "crash n1";
  Alcotest.(check (list string)) "invariants hold" []
    (T.invariants cfg (Mcheck.view !sys));
  (* node 1's arrival must have been excused: node 0 can still pass *)
  play "n0: barrier";
  let rec drain k =
    if k > 50 then Alcotest.fail "survivor never passed the barrier"
    else
      match Mcheck.moves cfg ~inj:Mcheck.No_injection !sys with
      | [] -> ()
      | (_, next) :: _ ->
        sys := next ();
        drain (k + 1)
  in
  drain 0;
  Alcotest.(check (list string)) "terminal quiescent, survivor done" []
    (T.quiescent_invariants cfg (Mcheck.view !sys))

(* --- scaling scenarios: directory modes and scalable sync ----------- *)

(* Exhaustive at P=2 and P=3 over the scale scenarios: limited-pointer
   overflow-to-broadcast (at P=3 with one pointer the entry genuinely
   overflows, so this proves the superset semantics never misses a
   sharer), the stale-home trap, the MCS-style queue lock and the
   combining-tree barrier. *)
let t_scale_exhaustive_clean () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun sc ->
          let r = Mcheck.check_exhaustive sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s P=%d explored fully" sc.Mcheck.sname nprocs)
            false r.Mcheck.truncated;
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail
              (Printf.sprintf "%s P=%d: violation" sc.Mcheck.sname nprocs))
        (Mcheck.scale_scenarios ~nprocs))
    [ 2; 3 ]

(* The upgrade guard.  The writer n0 holds the one pointer, so the
   first reader after the barrier overflows the entry to a broadcast
   that covers every node.  Once one reader's read-exclusive has
   invalidated the other's copy, that broadcast still covers the loser;
   a home that granted the loser's upgrade on that membership would
   bless its stale copy and leave two exclusive holders.  Regression
   for the rule that [home_upgrade] demands exact membership.  Kept out
   of the scale family: the crash adversary hits a recovery hole at
   P=3 that is not fixed yet, and the lossy one exceeds the budget. *)
let lp_upgrade_stale =
  let b0 = 0 in
  { Mcheck.sname = "lp-upgrade-stale";
    nprocs = 3;
    blocks = [ b0 ];
    scripts =
      [| [ Mcheck.Write (b0, 7); Mcheck.Barrier; Mcheck.Read b0 ];
         [ Mcheck.Barrier; Mcheck.Read b0; Mcheck.Write (b0, 1) ];
         [ Mcheck.Barrier; Mcheck.Read b0; Mcheck.Write (b0, 2) ] |];
    oracle = (fun _ -> []);
    drf = false;
    cfg_mod =
      (fun c -> { c with T.dmode = Shasta_protocol.Nodeset.Limited 1 }) }

let t_upgrade_guard () =
  List.iter
    (fun (refine, states) ->
      let tag = if refine then "refine" else "plain" in
      let r = Mcheck.check_exhaustive ~refine lp_upgrade_stale in
      (match r.Mcheck.violation with
       | None -> ()
       | Some v ->
         Mcheck.pp_violation stderr v;
         Alcotest.fail ("lp-upgrade-stale " ^ tag ^ ": violation"));
      Alcotest.(check int) (tag ^ " states") states r.Mcheck.states)
    [ (false, 886); (true, 1292) ]

let t_scale_lossy_exhaustive_clean () =
  List.iter
    (fun sc ->
      let r = Mcheck.check_exhaustive ~lossy:1 sc in
      (* the directed home-stale scenarios are fixed at four nodes;
         under loss their full interleaving space exceeds the budget,
         and the bounded prefix (plus the fuzz pass) is the check *)
      if sc.Mcheck.nprocs <= 2 then
        Alcotest.(check bool)
          (Printf.sprintf "%s P=2 lossy explored fully" sc.Mcheck.sname)
          false r.Mcheck.truncated;
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": lossy violation"))
    (Mcheck.scale_scenarios ~nprocs:2)

let t_scale_crash_exhaustive_clean () =
  List.iter
    (fun sc ->
      let r = Mcheck.check_exhaustive ~crash:1 sc in
      Alcotest.(check bool)
        (Printf.sprintf "%s P=2 crash explored fully" sc.Mcheck.sname)
        false r.Mcheck.truncated;
      Alcotest.(check bool)
        (Printf.sprintf "%s crash reaches terminals" sc.Mcheck.sname)
        true (r.Mcheck.terminals > 0);
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": crash violation"))
    (Mcheck.scale_scenarios ~nprocs:2)

let t_scale_fuzz_clean () =
  List.iter
    (fun sc ->
      let _, v = Mcheck.fuzz ~seed:17 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": fuzz violation"))
    (Mcheck.scale_scenarios ~nprocs:3)

(* A sublayer that retransmits but forgets to dedup hands stale frames
   to the protocol; the checker must catch it (stray data replies or
   ack over-delivery), with a printable counterexample. *)
let t_no_dedup_caught () =
  let caught =
    List.filter_map
      (fun sc ->
        (Mcheck.check_exhaustive ~injection:Mcheck.Retransmit_no_dedup
           ~lossy:1 sc)
          .Mcheck.violation)
      (Mcheck.scenarios ~nprocs:2)
  in
  Alcotest.(check bool)
    "at least one scenario catches retransmit-without-dedup" true
    (caught <> []);
  List.iter
    (fun (v : Mcheck.violation) ->
      Alcotest.(check bool) "counterexample trace is non-empty" true
        (v.Mcheck.vtrace <> []))
    caught

(* A store commit reordered past its lock release preserves every
   pre-refinement check — release-order's data oracle deliberately
   tolerates both final outcomes, invariants never see the deferred
   store, quiescence still drains — and ONLY the refinement pass
   catches it, as a divergence at the consumer's stale lock-section
   load, with the committed spec run printed alongside the trace. *)
let t_reordered_release_needs_refinement () =
  let sc = Mcheck.release_order in
  let without =
    Mcheck.check_exhaustive ~injection:Mcheck.Store_past_release sc
  in
  Alcotest.(check bool) "invisible to all pre-refinement checks" true
    (without.Mcheck.violation = None);
  Alcotest.(check bool) "explored fully without refinement" false
    without.Mcheck.truncated;
  let wth =
    Mcheck.check_exhaustive ~injection:Mcheck.Store_past_release ~refine:true
      sc
  in
  match wth.Mcheck.violation with
  | None -> Alcotest.fail "refinement missed the reordered release"
  | Some v ->
    Mcheck.pp_violation stderr v;
    Alcotest.(check bool) "counterexample trace is non-empty" true
      (v.Mcheck.vtrace <> []);
    Alcotest.(check bool) "committed spec run is printed" true
      (v.Mcheck.vcommits <> []);
    Alcotest.(check bool) "the divergence is a refinement error" true
      (List.exists
         (fun e ->
           String.length e >= 11 && String.sub e 0 11 = "refinement:")
         v.Mcheck.verr)

(* The same clean scenario refines without the injection: the weak
   oracle is not what hides the bug. *)
let t_release_order_clean () =
  let r = Mcheck.check_exhaustive ~refine:true Mcheck.release_order in
  (match r.Mcheck.violation with
   | None -> ()
   | Some v ->
     Mcheck.pp_violation stderr v;
     Alcotest.fail "release-order diverges without injection");
  Alcotest.(check bool) "explored fully" false r.Mcheck.truncated

(* --- the visited-set key ---------------------------------------------- *)

(* Reference model: the Printf renderers [Message.describe] and
   [T.canon] had before they were rewritten as Printf-free buffer
   writers ([Nodeset.to_string] has its own reference in
   test_nodeset.ml).  The writers must stay byte-identical to these:
   replay comparison and every recorded state count depend on the
   bytes. *)
let ref_describe (m : Message.t) =
  let k =
    match m.Message.kind with
    | Message.Coh (Fwd_read { requester }) ->
      Printf.sprintf "fwd_read(r%d)" requester
    | Message.Coh (Fwd_readex { requester; acks }) ->
      Printf.sprintf "fwd_readex(r%d,a%d)" requester acks
    | Message.Coh (Data_reply { exclusive; acks; data }) ->
      Printf.sprintf "data_reply(%s,a%d,%dB)"
        (if exclusive then "excl" else "shared")
        acks
        (4 * Array.length data)
    | Message.Coh (Upgrade_ack { acks }) ->
      Printf.sprintf "upgrade_ack(a%d)" acks
    | Message.Coh (Inv { requester }) -> Printf.sprintf "inv(ack->%d)" requester
    | _ -> Message.kind_name m
  in
  Printf.sprintf "[%d] %s @0x%x" m.Message.src k m.Message.addr

let ref_canon (v : T.view) : string =
  let module Ns = Shasta_protocol.Nodeset in
  let b = Buffer.create 1024 in
  let pf fmt = Printf.bprintf b fmt in
  let ns_hex = function
    | Ns.Bits m -> Printf.sprintf "%x" m
    | ns -> Ns.to_string ns
  in
  let ns_dec = function
    | Ns.Bits m -> string_of_int m
    | ns -> Ns.to_string ns
  in
  T.Imap.iter
    (fun blk (e : T.dirent) ->
      pf "D%x:%d,%s;" blk e.T.owner (ns_hex e.T.sharers))
    v.T.dir;
  T.Imap.iter
    (fun id (n : T.nview) ->
      pf "N%d{" id;
      (* a pending entry's state wins over the settled line *)
      let lines =
        T.Imap.merge
          (fun _ l (p : T.pend option) ->
            match p with
            | Some { T.pkind = T.P_upgrade; _ } -> Some T.L_pending_shared
            | Some _ -> Some T.L_pending_invalid
            | None -> l)
          n.T.lines n.T.pending
      in
      T.Imap.iter
        (fun blk l ->
          pf "l%x=%c;" blk
            (match l with
             | T.L_invalid -> 'i'
             | T.L_shared -> 's'
             | T.L_exclusive -> 'e'
             | T.L_pending_invalid -> 'p'
             | T.L_pending_shared -> 'q'))
        lines;
      T.Imap.iter
        (fun blk (p : T.pend) ->
          pf "p%x=%c%b[" blk
            (match p.T.pkind with
             | T.P_read -> 'r'
             | T.P_readex -> 'x'
             | T.P_upgrade -> 'u')
            p.T.invalidated;
          T.Imap.iter (fun a w -> pf "%x:%x," a w) p.T.written;
          pf "];")
        n.T.pending;
      T.Imap.iter
        (fun blk (a : T.ackst) ->
          pf "a%x=%d/%s;" blk a.T.got
            (match a.T.expected with Some e -> string_of_int e | None -> "?"))
        n.T.acks;
      pf "u%d;" (T.Imap.cardinal n.T.acks);
      T.Imap.iter
        (fun blk msgs ->
          pf "w%x=[" blk;
          List.iter (fun m -> pf "%s;" (ref_describe m)) msgs;
          pf "];")
        n.T.waiters;
      List.iter
        (function
          | T.D_inv blk -> pf "di%x;" blk
          | T.D_downgrade blk -> pf "dd%x;" blk)
        n.T.deferred;
      if n.T.in_batch then pf "B;";
      (match n.T.nstat with
       | T.N_running -> ()
       | T.N_waiting w ->
         pf "W%s;"
           (match w with
            | T.W_blocks bs ->
              "b" ^ String.concat "," (List.map (Printf.sprintf "%x") bs)
            | T.W_release -> "r"
            | T.W_sync -> "s"));
      (match n.T.resume with
       | T.R_none -> ()
       | T.R_refill -> pf "Rf;"
       | T.R_store_retry { addr; block } -> pf "Rs%x,%x;" addr block
       | T.R_store_commit { then_release } -> pf "Rc%b;" then_release
       | T.R_then_release -> pf "Rr;"
       | T.R_done -> pf "Rd;"
       | T.R_lock_acquired id -> pf "Rl%d;" id
       | T.R_unlock id -> pf "Ru%d;" id
       | T.R_barrier_enter -> pf "Rb;"
       | T.R_barrier_passed -> pf "Rp;"
       | T.R_flag_set id -> pf "Rg%d;" id
       | T.R_flag_woken id -> pf "Rw%d;" id);
      if n.T.sync_signal then pf "S;";
      pf "}")
    v.T.nodes;
  let r = v.T.rest in
  T.Imap.iter
    (fun id (l : T.lockst) ->
      pf "L%d:%s,[%s];" id
        (match l.T.holder with Some h -> string_of_int h | None -> "-")
        (String.concat "," (List.map string_of_int l.T.lq)))
    r.T.locks;
  T.Imap.iter
    (fun id (f : T.flagst) ->
      pf "F%d:%b,[%s];" id f.T.fset
        (String.concat "," (List.map string_of_int f.T.fwaiters)))
    r.T.flags;
  pf "B%s" (ns_dec r.T.barrier_arrived);
  if not (Ns.is_empty r.T.halted) then
    pf ";X%s,%s" (ns_hex r.T.crashed) (ns_hex r.T.halted);
  if not (Ns.is_empty r.T.brelease) then pf ";R%s" (ns_dec r.T.brelease);
  if not (T.Imap.is_empty r.T.homes) then begin
    pf ";H";
    T.Imap.iter (fun page h -> pf "%x:%d," page h) r.T.homes
  end;
  if not (T.Imap.is_empty r.T.heat) then begin
    pf ";h";
    T.Imap.iter (fun page (who, k) -> pf "%x:%d*%d," page who k) r.T.heat
  end;
  Buffer.contents b

(* The shared int writers agree with Printf's %d and %x, negatives and
   both extremes included. *)
let int_gen =
  Gen.(
    oneof
      [ int;
        small_signed_int;
        oneofl [ 0; -1; min_int; max_int; 0xFFFF_FF03 ] ])

let prop_int_writers n =
  let via f = let b = Buffer.create 16 in f b n; Buffer.contents b in
  via Shasta_protocol.Keybuf.add_int = Printf.sprintf "%d" n
  && via Shasta_protocol.Keybuf.add_hex = Printf.sprintf "%x" n

let message_gen =
  Gen.(
    let* src = small_nat and* addr = int_gen and* a = small_signed_int
    and* r = small_nat and* len = int_bound 8 and* excl = bool in
    let* kind =
      oneofl
        Message.
          [ Coh Read_req; Coh Readex_req; Coh Upgrade_req;
            Coh (Fwd_read { requester = r });
            Coh (Fwd_readex { requester = r; acks = a });
            Coh
              (Data_reply
                 { data = Array.make len a; exclusive = excl; acks = a });
            Coh (Upgrade_ack { acks = a }); Coh (Inv { requester = r });
            Coh Inv_ack; Sync Lock_req; Sync Lock_grant; Sync Unlock_msg;
            Sync Barrier_arrive; Sync Barrier_release; Sync Flag_set_msg;
            Sync Flag_wait_req; Sync Flag_wake ]
    in
    return { Message.src; addr; kind })

let prop_describe_matches_reference m = Message.describe m = ref_describe m

(* Seeded random walks through [Mcheck.moves] over every scenario
   family: at each reached view, [T.canon] equals the reference. *)
let walk_gen =
  Gen.(triple (oneofl [ 2; 3 ]) (int_bound 3) (int_bound 1_000_000))

let prop_canon_matches_reference (nprocs, family, seed) =
  let rng = Random.State.make [| seed |] in
  let scs, init =
    match family with
    | 0 -> (Mcheck.scenarios ~nprocs, fun sc -> Mcheck.init_sys ~lossy:1 sc)
    | 1 ->
      ( Mcheck.refine_scenarios ~nprocs,
        fun sc -> Mcheck.init_sys ~refine:true sc )
    | 2 ->
      ( Mcheck.crash_scenarios ~nprocs,
        fun sc -> Mcheck.init_sys ~crash:1 ~recover:1 sc )
    | _ -> (Mcheck.scale_scenarios ~nprocs, fun sc -> Mcheck.init_sys sc)
  in
  List.for_all
    (fun sc ->
      let cfg = Mcheck.cfg_of sc in
      let rec walk sys =
        let v = Mcheck.view sys in
        T.canon v = ref_canon v
        &&
        match Mcheck.moves cfg ~inj:Mcheck.No_injection sys with
        | [] -> true
        | ms ->
          let _, next = List.nth ms (Random.State.int rng (List.length ms)) in
          walk (next ())
      in
      walk (init sc))
    scs

(* A live run under hot-page migration (radix, where migration fires)
   populates the placement and heat maps the checker's scenarios never
   reach. *)
let t_canon_live_view () =
  let open Shasta_runtime in
  let prog = (Shasta_apps.Apps.find "radix").make Shasta_apps.Apps.Test in
  let spec =
    { (Api.default_spec prog) with nprocs = 4; home_policy = State.Migrate }
  in
  let state, _, _ = Api.prepare spec in
  let _ = Cluster.run_app state in
  let v = state.State.proto in
  Alcotest.(check bool) "homes populated" false
    (T.Imap.is_empty v.T.rest.T.homes);
  Alcotest.(check bool) "heat populated" false
    (T.Imap.is_empty v.T.rest.T.heat);
  Alcotest.(check string) "canon matches the reference" (ref_canon v)
    (T.canon v)

(* Two systems that differ only in the value an in-flight data reply
   carries are distinct states: the merge or refill that consumes the
   reply reads it. *)
let t_key_covers_reply_payload () =
  let queued v0 =
    let sc =
      { Mcheck.sname = "payload";
        nprocs = 2;
        blocks = [ 0 ];
        scripts = [| [ Mcheck.Write (0, v0) ]; [ Mcheck.Write (0, 7) ] |];
        oracle = (fun _ -> []);
        drf = false;
        cfg_mod = Fun.id }
    in
    let cfg = Mcheck.cfg_of sc in
    let sys = ref (Mcheck.init_sys sc) in
    play cfg sys (Printf.sprintf "n0: write 0x0 <- %d" v0);
    play cfg sys "n1: write 0x0 <- 7";
    play cfg sys "deliver 1->0: [1] readex_req @0x0";
    Alcotest.(check bool) "n0's exclusive reply is queued" true
      (List.mem_assoc "deliver 0->1: [0] data_reply(excl,a0,4B) @0x0"
         (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys));
    !sys
  in
  let a = queued 1 and b = queued 2 in
  Alcotest.(check string) "same protocol view"
    (T.canon (Mcheck.view a)) (T.canon (Mcheck.view b));
  Alcotest.(check bool) "different keys" false (Mcheck.key a = Mcheck.key b)

(* The compact keys the search stores agree with the flat keys: on
   random walks over the refine, lossy and crash families, two reached
   states have equal compact keys exactly when their [Mcheck.key]s are
   equal.  Walks restart at the initial state and revisit, so both
   directions are exercised. *)
let compact_gen =
  Gen.(triple (oneofl [ 2; 3 ]) (int_bound 2) (int_bound 1_000_000))

let prop_compact_keys_agree (nprocs, family, seed) =
  let runs = 12 in
  let scs, keys =
    match family with
    | 0 ->
      ( Mcheck.refine_scenarios ~nprocs,
        fun sc -> Mcheck.compact_keys ~refine:true ~seed ~runs sc )
    | 1 ->
      ( Mcheck.refine_scenarios ~nprocs,
        fun sc -> Mcheck.compact_keys ~refine:true ~lossy:2 ~seed ~runs sc )
    | _ ->
      ( Mcheck.crash_scenarios ~nprocs,
        fun sc -> Mcheck.compact_keys ~crash:1 ~recover:1 ~seed ~runs sc )
  in
  List.for_all
    (fun sc ->
      let of_flat = Hashtbl.create 64 and of_compact = Hashtbl.create 64 in
      let agree tbl k v =
        match Hashtbl.find_opt tbl k with
        | Some v' -> v = v'
        | None -> Hashtbl.add tbl k v; true
      in
      List.for_all
        (fun (flat, compact) ->
          agree of_flat flat compact && agree of_compact compact flat)
        (keys sc))
    scs

(* Exact state counts of every P=2 scenario: a key change that merges
   or splits states fails here.  The crash rows count the states the
   reply payload distinguishes. *)
let t_state_counts () =
  let names = List.map (fun sc -> sc.Mcheck.sname) in
  let family = Mcheck.refine_scenarios ~nprocs:2 in
  Alcotest.(check (list string)) "refine family"
    [ "read-sharing"; "write-race"; "lock-increment"; "flag-handoff";
      "barrier-exchange"; "upgrade-race"; "release-order" ]
    (names family);
  let crash_family = Mcheck.crash_scenarios ~nprocs:2 in
  Alcotest.(check (list string)) "crash family"
    [ "read-sharing"; "write-race"; "lock-increment"; "barrier-exchange";
      "upgrade-race" ]
    (names crash_family);
  let expect mode scs want check =
    List.iter2
      (fun sc want ->
        let r : Mcheck.result = check sc in
        Alcotest.(check int) (mode ^ " " ^ sc.Mcheck.sname) want r.states)
      scs want
  in
  expect "plain" family [ 18; 12; 64; 13; 43; 36; 100 ] (fun sc ->
      Mcheck.check_exhaustive sc);
  expect "lossy:2" family [ 643; 656; 5267; 341; 5063; 2465; 9821 ]
    (Mcheck.check_exhaustive ~lossy:2);
  expect "refine" family [ 18; 15; 64; 13; 43; 42; 100 ]
    (Mcheck.check_exhaustive ~refine:true);
  expect "refine+lossy:2" family [ 643; 748; 5267; 341; 5063; 2955; 9821 ]
    (Mcheck.check_exhaustive ~refine:true ~lossy:2);
  expect "crash 1/recover 1" crash_family [ 66; 44; 228; 145; 124 ]
    (Mcheck.check_exhaustive ~crash:1 ~recover:1)

(* The checker's per-transition path re-renders only the components a
   move changed and builds no display string, and a passing check, a
   render and a stuttering refinement step allocate nothing: a lossy
   refinement run stays under 174.7 minor words per transition (it
   measures ~169.6, each step streamed through one stepper per node and
   its actions applied into one staging record; [Transitions.step]'s
   list and a closed-system copy per action measured ~189.2, closures
   in the invariants, the renderers and the refinement bookkeeping
   ~377.9, rendering the whole flat key per transition ~715, and Printf
   on that path costs ~2,000 more). *)
let t_checker_allocation () =
  let sc = Mcheck.lock_increment ~nprocs:2 in
  let before = Gc.minor_words () in
  let r = Mcheck.check_exhaustive ~lossy:2 ~refine:true sc in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "clean" true (r.Mcheck.violation = None);
  let per = words /. float_of_int r.Mcheck.transitions in
  if per > 174.7 then
    Alcotest.failf "%.0f minor words per transition (%d transitions)" per
      r.Mcheck.transitions

(* --- deterministic replay ------------------------------------------- *)

let t_replay_reproduces () =
  let open Shasta_runtime in
  let prog = Shasta_apps.Lu.program ~n:16 ~bs:4 () in
  let spec = { (Api.default_spec prog) with nprocs = 4 } in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  let r = Replay.replay state in
  Alcotest.(check bool) "some protocol steps were recorded" true
    (r.Replay.steps > 0);
  Alcotest.(check bool) "no invariant failures during replay" true
    (r.Replay.invariant_failures = []);
  Alcotest.(check bool) "replayed view equals the live final view" false
    r.Replay.mismatch

let t_replay_under_faults () =
  (* the engine records protocol inputs AFTER the wire delivers them
     (post-retransmission, in channel order), so a run over a faulty
     wire replays exactly like a clean one: the log already contains
     the repaired, exactly-once FIFO stream the core consumed *)
  let open Shasta_runtime in
  let prog = Shasta_apps.Lu.program ~n:16 ~bs:4 () in
  let spec =
    { (Api.default_spec prog) with
      nprocs = 4;
      net_faults = Some { Shasta_network.Network.standard with drop = 0.05 } }
  in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  Alcotest.(check bool) "faults actually fired" true
    (Shasta_obs.Obs.(
       Metrics.counter_total (metrics (State.obs state)) c_net_retx)
     > 0);
  let r = Replay.replay state in
  Alcotest.(check bool) "steps recorded" true (r.Replay.steps > 0);
  Alcotest.(check bool) "replay ok under net faults" true (Replay.ok r)

let t_replay_sc_mode () =
  (* sequential consistency: every store miss blocks until ownership and
     all invalidation acks are in (scheduled checks: the store has
     already written memory) *)
  let open Shasta_runtime in
  let prog = Shasta_apps.Ocean.program ~n:18 ~iters:2 () in
  let spec =
    { (Api.default_spec prog) with
      nprocs = 4;
      consistency = State.Sequential }
  in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  let r = Replay.replay state in
  Alcotest.(check bool) "replay ok under SC" true (Replay.ok r)

(* Basic (non-scheduled) store checks call the handler before the store
   runs, so a store miss can stall and be retried inside the step that
   wakes it.  Those steps must replay, invariants checked after each. *)
let t_replay_no_sched consistency () =
  let open Shasta_runtime in
  let prog = Shasta_apps.Ocean.program ~n:18 ~iters:2 () in
  let spec =
    { (Api.default_spec prog) with
      nprocs = 4;
      consistency;
      opts = Some { Shasta.Opts.full with schedule = false } }
  in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  Alcotest.(check bool) "non-scheduled store misses recorded" true
    (List.exists
       (function
         | _, T.I_store_miss { store_done; _ } -> not store_done
         | _ -> false)
       state.State.inputs_rev);
  Alcotest.(check bool) "replay ok" true (Replay.ok (Replay.replay state))

let () =
  Alcotest.run "mcheck"
    [ ( "exhaustive",
        [ Alcotest.test_case "scenarios clean at P=2,3" `Quick
            t_exhaustive_clean;
          Alcotest.test_case "owner/sharer consistency" `Quick
            t_owner_sharer_consistency;
          Alcotest.test_case "injected dropped ack caught" `Quick
            t_injected_bug_caught ] );
      ( "fuzz",
        [ Alcotest.test_case "built-in scenarios" `Quick t_fuzz_clean;
          qtest "random scripts keep invariants" ~count:60 trace_gen
            prop_random_trace ] );
      ( "lossy",
        [ Alcotest.test_case "scenarios clean at P=2 (exhaustive)" `Quick
            t_lossy_exhaustive_clean;
          Alcotest.test_case "scenarios clean at P=3 (fuzz)" `Quick
            t_lossy_fuzz_clean;
          Alcotest.test_case "retransmit-without-dedup caught" `Quick
            t_no_dedup_caught ] );
      ( "refine",
        [ Alcotest.test_case "reordered release caught only by refinement"
            `Quick t_reordered_release_needs_refinement;
          Alcotest.test_case "release-order clean without injection" `Quick
            t_release_order_clean ] );
      ( "crash",
        [ Alcotest.test_case "scenarios clean at P=2 (exhaustive)" `Quick
            t_crash_exhaustive_clean;
          Alcotest.test_case "purged invalidations kept as sharers (P=3)"
            `Quick t_crash_purged_inv_p3;
          Alcotest.test_case "scenarios clean at P=3 (fuzz)" `Quick
            t_crash_fuzz_clean;
          Alcotest.test_case "crash after barrier arrival excused" `Quick
            t_crash_after_barrier_arrival ] );
      ( "scale",
        [ Alcotest.test_case "scale scenarios clean at P=2,3" `Quick
            t_scale_exhaustive_clean;
          Alcotest.test_case "scale scenarios clean under loss (P=2)" `Quick
            t_scale_lossy_exhaustive_clean;
          Alcotest.test_case "scale scenarios clean under crash (P=2)" `Quick
            t_scale_crash_exhaustive_clean;
          Alcotest.test_case "scale scenarios clean at P=3 (fuzz)" `Quick
            t_scale_fuzz_clean;
          Alcotest.test_case "upgrade guard pinned at P=3" `Quick
            t_upgrade_guard ] );
      ( "key",
        [ qtest "int writers match Printf" ~count:500 int_gen prop_int_writers;
          qtest "describe matches the Printf reference" ~count:500 message_gen
            prop_describe_matches_reference;
          qtest "canon matches the Printf reference on random walks" ~count:40
            walk_gen prop_canon_matches_reference;
          Alcotest.test_case "canon matches the reference on a live view"
            `Quick t_canon_live_view;
          Alcotest.test_case "reply payload is in the key" `Quick
            t_key_covers_reply_payload;
          qtest "compact keys agree with flat keys on random walks"
            ~count:30 compact_gen prop_compact_keys_agree;
          Alcotest.test_case "state counts at P=2" `Quick t_state_counts;
          Alcotest.test_case "checker allocation per transition" `Quick
            t_checker_allocation ] );
      ( "replay",
        [ Alcotest.test_case "lu reproduces" `Quick t_replay_reproduces;
          Alcotest.test_case "ocean under SC" `Quick t_replay_sc_mode;
          Alcotest.test_case "ocean, basic store checks" `Quick
            (t_replay_no_sched Shasta_runtime.State.Release);
          Alcotest.test_case "ocean, basic store checks under SC" `Quick
            (t_replay_no_sched Shasta_runtime.State.Sequential);
          Alcotest.test_case "lu under net faults" `Quick
            t_replay_under_faults ] )
    ]
