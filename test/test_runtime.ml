(* Runtime/protocol end-to-end scenarios: states and directory after
   directed sharing patterns, dirty sharing, synchronization semantics,
   release consistency, and whole-system invariants after runs. *)

open Shasta_minic.Builder
open Shasta_runtime
module Support = Test_support.Support

let prepare ~nprocs prog =
  let spec = { (Api.default_spec prog) with nprocs } in
  let state, _, _ = Api.prepare spec in
  state

let run ~nprocs prog =
  let state = prepare ~nprocs prog in
  let ph = Cluster.run_app state in
  (state, ph)

(* Structural invariants that must hold whenever the system is idle:
   every block has a valid owner whose sharer bit is set; an exclusive
   holder is the unique valid copy; every node holding a valid copy is
   in the sharer vector; and every live node's state table mirrors the
   line state the protocol core reads from its own view. *)
let check_invariants (state : State.t) =
  let module T = Shasta_protocol.Transitions in
  let module L = Shasta.Layout in
  let ls = state.config.line_shift in
  let line_of_byte st =
    if st = L.st_exclusive then T.L_exclusive
    else if st = L.st_shared then T.L_shared
    else if st = L.st_pending_invalid then T.L_pending_invalid
    else if st = L.st_pending_shared then T.L_pending_shared
    else T.L_invalid
  in
  (* the pure view's own quiescent invariants (directory/line agreement,
     single exclusive holder, no leftover pending state) *)
  (match T.quiescent_invariants state.tcfg state.proto with
   | [] -> ()
   | vs -> Alcotest.fail (String.concat "; " vs));
  (* and agreement between the view and the per-node state tables the
     inline checks actually read *)
  T.dir_fold
    (fun block e () ->
      Alcotest.(check bool)
        (Printf.sprintf "block 0x%x owner in range" block)
        true
        (e.T.owner >= 0 && e.T.owner < state.config.nprocs);
      Alcotest.(check bool)
        (Printf.sprintf "block 0x%x owner is sharer" block)
        true (T.is_sharer e e.T.owner);
      Array.iter
        (fun (n : Node.t) ->
          if
            (not (Shasta_protocol.Nodeset.mem state.proto.T.rest.T.halted n.id))
            && line_of_byte (Tables.get_state n ~ls block)
               <> T.line_state state.proto ~node:n.id ~block
          then
            Alcotest.failf "n%d's state table disagrees with its line of 0x%x"
              n.id block)
        state.nodes;
      let valid_nodes =
        Array.to_list state.nodes
        |> List.filter (fun (n : Node.t) ->
          let st = Tables.get_state n ~ls block in
          st = Shasta.Layout.st_exclusive || st = Shasta.Layout.st_shared)
      in
      List.iter
        (fun (n : Node.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "valid holder n%d of 0x%x is a sharer" n.id block)
            true (T.is_sharer e n.id))
        valid_nodes;
      let exclusive_nodes =
        List.filter
          (fun (n : Node.t) ->
            Tables.get_state n ~ls block = Shasta.Layout.st_exclusive)
          valid_nodes
      in
      match exclusive_nodes with
      | [] -> ()
      | [ x ] ->
        Alcotest.(check int)
          (Printf.sprintf "exclusive holder of 0x%x is sole valid copy" block)
          1 (List.length valid_nodes);
        Alcotest.(check int) "exclusive holder is the owner" e.T.owner x.id
      | _ ->
        Alcotest.fail (Printf.sprintf "two exclusive holders of 0x%x" block))
    state.proto ()

(* --- sharing patterns ----------------------------------------------- *)

let t_read_sharing () =
  (* everyone reads a block written during init: all end up sharers *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit"
          [ gset "a" (Gmalloc_b (i 64, i 64)); sti (g "a") (i 0) (i 7) ];
        proc "work"
          [ let_i "x" (ldi (g "a") (i 0));
            barrier;
            when_ (Pid ==% i 0) [ print_int (v "x") ] ]
      ]
  in
  let state, ph = run ~nprocs:4 p in
  Alcotest.(check string) "value read everywhere" "7\n" ph.output;
  let block = Shasta_runtime.State.shared_heap_start in
  let e =
    match Shasta_protocol.Transitions.dir_entry state.proto ~block with
    | Some e -> e
    | None -> Alcotest.fail "block not allocated"
  in
  Alcotest.(check int) "all four share" 4
    (Shasta_protocol.Transitions.sharer_count e);
  check_invariants state

let t_write_invalidates () =
  (* node 1 writes after everyone read: it becomes the sole owner and
     the others' copies are flagged invalid *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit" [ gset "a" (Gmalloc_b (i 64, i 64)) ];
        proc "work"
          [ let_i "x" (ldi (g "a") (i 0));
            barrier;
            when_ (Pid ==% i 1) [ sti (g "a") (i 0) (i 42) ];
            barrier;
            when_ (Pid ==% i 0) [ print_int (ldi (g "a") (i 0) +% v "x") ] ]
      ]
  in
  let state, ph = run ~nprocs:4 p in
  Alcotest.(check string) "new value visible" "42\n" ph.output;
  let block = Shasta_runtime.State.shared_heap_start in
  let ls = state.config.line_shift in
  (* nodes 2 and 3 must hold invalid, flagged copies *)
  List.iter
    (fun id ->
      let n = state.nodes.(id) in
      Alcotest.(check int)
        (Printf.sprintf "n%d invalidated" id)
        Shasta.Layout.st_invalid
        (Tables.get_state n ~ls block);
      Alcotest.(check int)
        (Printf.sprintf "n%d flagged" id)
        Shasta.Layout.flag_pattern
        (Shasta_machine.Memory.read_long_u n.mem block))
    [ 2; 3 ];
  check_invariants state

let t_dirty_sharing () =
  (* the home never gets a copy back when a dirty owner serves a read:
     its memory stays stale (dirty sharing, Section 2.1) *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit" [ gset "a" (Gmalloc_b (i 64, i 64)) ];
        proc "work"
          [ (* node 1 writes, then node 2 reads (forwarded to node 1) *)
            when_ (Pid ==% i 1) [ sti (g "a") (i 0) (i 99) ];
            barrier;
            when_ (Pid ==% i 2) [ sti (g "a") (i 1) (ldi (g "a") (i 0)) ];
            barrier;
            when_ (Pid ==% i 0) [ print_int (ldi (g "a") (i 1)) ] ]
      ]
  in
  let state, ph = run ~nprocs:4 p in
  Alcotest.(check string) "reader got the dirty data" "99\n" ph.output;
  check_invariants state

let t_migratory_ownership () =
  (* the lock-protected counter migrates: every node takes write misses *)
  let _, r = run ~nprocs:4 (Shasta_apps.Micro.migratory ~rounds:8 ()) in
  let module Obs = Shasta_obs.Obs in
  for id = 1 to 3 do
    let count name = Shasta_obs.Metrics.counter r.metrics name id in
    Alcotest.(check bool)
      (Printf.sprintf "n%d missed for ownership" id)
      true
      (count Obs.c_miss_read + count Obs.c_miss_write
       + count Obs.c_miss_upgrade > 0)
  done

(* --- synchronization ------------------------------------------------ *)

let t_lock_mutual_exclusion () =
  (* read-modify-write without atomicity would lose updates; under the
     lock every increment survives at any processor count *)
  let p =
    prog ~globals:[ ("c", I) ]
      [ proc "appinit"
          [ gset "c" (Gmalloc_b (i 64, i 64)); sti (g "c") (i 0) (i 0) ];
        proc "work"
          [ for_ "k" (i 0) (i 25)
              [ lock (i 3);
                sti (g "c") (i 0) (ldi (g "c") (i 0) +% i 1);
                unlock (i 3) ];
            barrier;
            when_ (Pid ==% i 0) [ print_int (ldi (g "c") (i 0)) ] ]
      ]
  in
  List.iter
    (fun np ->
      let _, ph = run ~nprocs:np p in
      Alcotest.(check string)
        (Printf.sprintf "all increments survive at P=%d" np)
        (string_of_int (np * 25) ^ "\n")
        ph.output)
    [ 1; 2; 3; 4 ]

let t_barrier_separates_phases () =
  (* without the barrier node 1 could read 0; with it, it must see 5 *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit" [ gset "a" (Gmalloc_b (i 64, i 64)) ];
        proc "work"
          [ when_ (Pid ==% i 0) [ sti (g "a") (i 0) (i 5) ];
            barrier;
            let_i "x" (ldi (g "a") (i 0));
            sti (g "a") (i 1 +% Pid) (v "x");
            barrier;
            when_ (Pid ==% i 0)
              [ let_i "s" (i 0);
                for_ "p" (i 0) Nprocs
                  [ set "s" (v "s" +% ldi (g "a") (i 1 +% v "p")) ];
                print_int (v "s") ] ]
      ]
  in
  let _, ph = run ~nprocs:4 p in
  Alcotest.(check string) "all nodes saw the pre-barrier write" "20\n"
    ph.output

let t_flags_order () =
  (* flag set/wait transfers data release->acquire between two nodes *)
  let _, ph = run ~nprocs:2 (Shasta_apps.Micro.prodcons ~items:6 ()) in
  let want = List.init 6 (fun k -> (k * k) + 1) |> List.fold_left ( + ) 0 in
  Alcotest.(check string) "pipeline sum" (string_of_int want ^ "\n") ph.output

let t_release_consistency_nonstalling () =
  (* a burst of stores to distinct blocks proceeds without stalling;
     the following unlock is the release that makes them visible *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit" [ gset "a" (Gmalloc (i 4096)) ];
        proc "work"
          [ when_ (Pid ==% i 1)
              [ lock (i 1);
                for_ "k" (i 0) (i 32) [ sti (g "a") (v "k" *% i 8) (v "k") ];
                unlock (i 1) ];
            barrier;
            when_ (Pid ==% i 0)
              [ lock (i 1);
                let_i "s" (i 0);
                for_ "k" (i 0) (i 32)
                  [ set "s" (v "s" +% ldi (g "a") (v "k" *% i 8)) ];
                unlock (i 1);
                print_int (v "s") ] ]
      ]
  in
  let state, ph = run ~nprocs:2 p in
  Alcotest.(check string) "all released stores visible" "496\n" ph.output;
  check_invariants state

let t_invariants_after_stress () =
  List.iter
    (fun prog ->
      let state, _ = run ~nprocs:4 prog in
      check_invariants state)
    [ Shasta_apps.Micro.false_sharing ~iters:40 ();
      Shasta_apps.Micro.migratory ~rounds:12 ();
      Shasta_apps.Ocean.program ~n:18 ~iters:2 () ]

let t_atm_network_also_correct () =
  let p = Shasta_apps.Lu.program ~n:16 ~bs:4 () in
  let expected = Test_support.Support.ground_truth p in
  let got, _ =
    Test_support.Support.run ~nprocs:4 ~net:Shasta_network.Network.atm p
  in
  Alcotest.(check string) "correct over ATM-class network" expected got

let t_sequential_consistency_correct () =
  (* the stricter model must still produce identical results *)
  List.iter
    (fun prog ->
      let expected = Test_support.Support.ground_truth prog in
      let spec =
        { (Api.default_spec prog) with
          nprocs = 4;
          consistency = State.Sequential }
      in
      let r = Api.run spec in
      Alcotest.(check string) "SC results match" expected r.phase.output)
    [ Shasta_apps.Lu.program ~n:16 ~bs:4 ();
      Shasta_apps.Radix.program ~nkeys:512 ();
      Shasta_apps.Ocean.program ~n:18 ~iters:2 () ]

let t_sequential_consistency_slower () =
  let prog = Shasta_apps.Ocean.program ~n:18 ~iters:2 () in
  let run c =
    (Api.run { (Api.default_spec prog) with nprocs = 4; consistency = c })
      .phase
      .wall_cycles
  in
  Alcotest.(check bool) "RC beats SC on write-heavy sharing" true
    (run State.Release < run State.Sequential)

let t_atm_slower_than_mc () =
  let p = Shasta_apps.Ocean.program ~n:18 ~iters:2 () in
  let _, rm =
    Test_support.Support.run ~nprocs:4 ~net:Shasta_network.Network.memory_channel p
  in
  let _, ra =
    Test_support.Support.run ~nprocs:4 ~net:Shasta_network.Network.atm p
  in
  Alcotest.(check bool) "higher latency, longer run" true
    (ra.phase.wall_cycles > rm.phase.wall_cycles)

(* Home policies change where pages are homed, never what a program
   computes; the placement decisions are protocol inputs, so replaying
   the recorded log through the pure core must rebuild the live final
   view.  On radix at test size first-touch moves the run time. *)
let t_home_policies () =
  let prog = (Shasta_apps.Apps.find "radix").make Shasta_apps.Apps.Test in
  let run home_policy =
    let state, _, _ =
      Api.prepare { (Api.default_spec prog) with nprocs = 4; home_policy }
    in
    state.State.record_inputs <- true;
    let ph = Cluster.run_app state in
    (state, ph)
  in
  let _, rr = run State.Round_robin in
  let state, ft = run State.First_touch in
  Alcotest.(check string) "first-touch: output as round-robin"
    rr.Cluster.output ft.Cluster.output;
  let r = Replay.replay state in
  Alcotest.(check bool) "first-touch: replay reproduces the live view"
    false r.Replay.mismatch;
  Alcotest.(check bool) "first-touch: replay ok" true (Replay.ok r);
  Alcotest.(check bool) "first-touch moves the run time" true
    (ft.Cluster.wall_cycles <> rr.Cluster.wall_cycles)

(* Cold start at the 64-node config: the private regions' exclusive bits
   read as set, yet building the cluster materializes almost nothing (the
   exclusive table is filled lazily, page by page, on first touch; an
   eager fill left 49 pages per node), and no cache has tag storage yet.
   After the run, each node's memory costs the host little more than
   its materialized pages. *)
let t_create_footprint () =
  let prog = Shasta_apps.Lu.program ~n:48 ~bs:8 () in
  let spec =
    { (Api.default_spec prog) with
      nprocs = 64;
      dir_mode = Shasta_protocol.Nodeset.Limited 4;
      scalable_sync = true }
  in
  let state, _, _ = Api.prepare spec in
  let module M = Shasta_machine.Memory in
  Array.iter
    (fun (n : Node.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d: at most 2 pages" n.id)
        true
        (M.allocated_bytes n.mem <= 2 * M.page_bytes);
      let h = n.caches in
      List.iter
        (fun (name, c) ->
          Alcotest.(check int)
            (Printf.sprintf "node %d: no %s tags" n.id name)
            0
            (Shasta_machine.Cache.allocated_bytes c))
        [ ("l1i", h.l1i); ("l1d", h.l1d); ("l2", h.l2) ])
    state.nodes;
  let ls = state.config.line_shift in
  let open Shasta.Layout in
  List.iter
    (fun id ->
      let mem = state.nodes.(id).mem in
      List.iter
        (fun a ->
          Alcotest.(check int)
            (Printf.sprintf "node %d: 0x%x exclusive" id a)
            1
            ((M.read_byte mem (a lsr (ls + 3)) lsr ((a lsr ls) land 7)) land 1))
        [ static_base; static_limit - 64; stack_limit; stack_top - 64 ])
    [ 0; 63 ];
  (* Host heap after a run: a page is its 1,024 words of bytes, a
     padding word and a header; the rest (the 64-slot page cache, a
     page table still at 16 buckets, its cells and the pending fills)
     is 204 words per node here. *)
  let r = Api.run spec in
  Array.iter
    (fun (n : Node.t) ->
      let pages = M.allocated_bytes n.mem / M.page_bytes in
      Alcotest.(check bool)
        (Printf.sprintf "node %d: %d pages in at most %d words" n.id pages
           ((pages * ((M.page_bytes / 8) + 2)) + 256))
        true
        (Obj.reachable_words (Obj.repr n.mem)
         <= (pages * ((M.page_bytes / 8) + 2)) + 256))
    r.state.nodes

(* Every deadlock names its nodes: a run cut off by the event budget
   says where each node was. *)
let t_deadlock_names_nodes () =
  let state = prepare ~nprocs:2 (Shasta_apps.Lu.program ~n:16 ~bs:4 ()) in
  Array.iter (fun (n : Node.t) -> n.status <- Node.Finished) state.nodes;
  Cluster.reset_node_for state state.nodes.(0) ~proc:"appinit";
  match Cluster.run_until_done ~max_events:5 state with
  | () -> Alcotest.fail "a 5-event budget finished the run"
  | exception Cluster.Deadlock d ->
    let has sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length d && (String.sub d i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) ("budget named: " ^ d) true
      (has "event budget exhausted");
    Alcotest.(check bool) ("n0 diagnosed: " ^ d) true (has "n0:");
    Alcotest.(check bool) ("n1 diagnosed: " ^ d) true (has "n1:")

(* --- the engine's per-step path ---------------------------------------- *)

(* The sht test preset's run at P=4: the node-fault schedule of the
   crash+recover smoke run, or none. *)
let sht_spec ?node_faults ?obs () =
  let prog = (Shasta_apps.Apps.find "sht").make Shasta_apps.Apps.Test in
  let node_faults =
    Option.map
      (fun s -> Option.get (Nodefaults.of_string s))
      node_faults
  in
  { (Api.default_spec prog) with nprocs = 4; node_faults; obs }

let crash_recover = "crash=2@40000,recover=2@120000,lease=3000"

(* The engine applies the core's actions as they stream, through one
   reused stepper per node, with no action list and no event record
   when nothing records: the whole sht run, interpreter included,
   allocates under 91.2 minor words per protocol step (it measures
   ~88.5; a copy of the stepping node's view behind every update of it,
   a closure per [wait_sat] and boxed options in [line_of] measured
   ~99.7, storing pending states in [lines] beside [pending], an ack
   counter beside [acks], an 11-word view and a fresh step context per
   step ~119.8, and building the list and every event record ~143.6). *)
let t_engine_step_allocation () =
  let state, _, _ = Api.prepare (sht_spec ()) in
  state.State.record_inputs <- true;
  let before = Gc.minor_words () in
  ignore (Cluster.run_app state);
  let words = Float.sub (Gc.minor_words ()) before in
  let steps = List.length state.State.inputs_rev in
  let per = Float.div words (float_of_int steps) in
  if per > 91.2 then
    Alcotest.failf "%.1f minor words per protocol step (%d steps)" per steps

(* Counting without the record is counting with it: a run's registry
   dump is the same whether or not a sink is attached. *)
let t_registry_without_recording () =
  let dump run =
    let quiet = Shasta_obs.Obs.create ~nprocs:4 () in
    let traced = Shasta_obs.Obs.create ~nprocs:4 () in
    Shasta_obs.Obs.attach traced
      { Shasta_obs.Sink.on_record = ignore; flush = ignore };
    run quiet;
    run traced;
    Alcotest.(check bool) "a sink records" true
      (Shasta_obs.Obs.recording traced);
    let m = Shasta_obs.Obs.metrics quiet in
    ( (fun c -> Shasta_obs.Metrics.counter_total m c),
      Shasta_obs.Metrics.to_csv m,
      Shasta_obs.Metrics.to_csv (Shasta_obs.Obs.metrics traced) )
  in
  let lu obs =
    let prog = (Shasta_apps.Apps.find "lu").make Shasta_apps.Apps.Test in
    ignore
      (Support.run ~nprocs:4 ~net_faults:Shasta_network.Network.standard ~obs
         prog)
  in
  let total, quiet, traced = dump lu in
  Alcotest.(check bool) "the wire retransmits" true
    (total Shasta_obs.Obs.c_net_retx > 0);
  Alcotest.(check string) "lu -p 4 --net-faults standard" quiet traced;
  let total, quiet, traced =
    dump (fun obs ->
      ignore (Api.run (sht_spec ~node_faults:crash_recover ~obs ())))
  in
  Alcotest.(check (pair int int)) "one crash, one recovery" (1, 1)
    (total Shasta_obs.Obs.c_node_crash, total Shasta_obs.Obs.c_node_recover);
  Alcotest.(check string) "sht crash+recover" quiet traced

(* The state tables the inline checks read agree with the core's view:
   after every engine step, the stepping node's state-table byte on
   every line of each block the step's memops named is the byte of
   [T.line_state], pending states included, and every 1,000 steps all
   directory blocks are swept at every node that never crashed (a
   crashed node's tables freeze while its view restarts empty).  The
   engine stores the view after the step, so each node's sink is
   wrapped to check a step when the next one logs its input, and the
   last step is checked after the run. *)
let t_tables_match_view () =
  let module T = Shasta_protocol.Transitions in
  let module Layout = Shasta.Layout in
  let byte = function
    | T.L_invalid -> Layout.st_invalid
    | T.L_shared -> Layout.st_shared
    | T.L_exclusive -> Layout.st_exclusive
    | T.L_pending_invalid -> Layout.st_pending_invalid
    | T.L_pending_shared -> Layout.st_pending_shared
  in
  let check name ?(opts = Shasta.Opts.full) ?net_faults ?node_faults app =
    let prog = (Shasta_apps.Apps.find app).make Shasta_apps.Apps.Test in
    let node_faults =
      Option.map (fun s -> Option.get (Nodefaults.of_string s)) node_faults
    in
    let state, _, _ =
      Api.prepare
        { (Api.default_spec prog) with
          nprocs = 4; opts = Some opts; net_faults; node_faults }
    in
    state.State.record_inputs <- true;
    let ls = state.State.config.line_shift in
    let steps = ref 0 in
    let agree (n : Node.t) block =
      let want = byte (T.line_state state.State.proto ~node:n.id ~block) in
      let len =
        Shasta_protocol.Granularity.block_bytes_at state.State.gran block
      in
      let rec go off =
        if off < len then begin
          let got = Tables.get_state n ~ls (block + off) in
          if got <> want then
            Alcotest.failf "%s, step %d: n%d block 0x%x: table byte %d, view %d"
              name !steps n.id block got want;
          go (off + (1 lsl ls))
        end
      in
      go 0
    in
    let sweep () =
      T.dir_fold
        (fun block _ () ->
          Array.iter
            (fun (n : Node.t) ->
              if
                not
                  (Shasta_protocol.Nodeset.mem
                     state.State.proto.T.rest.T.halted n.id)
              then agree n block)
            state.State.nodes)
        state.State.proto ()
    in
    (* the step being applied: its node, and the blocks its memops name *)
    let logged = ref state.State.inputs_rev in
    let stepping = ref None and named = ref [] in
    let settle () =
      Option.iter (fun n -> List.iter (agree n) !named) !stepping;
      named := []
    in
    let boundary () =
      if state.State.inputs_rev != !logged then begin
        settle ();
        let rec count l =
          if l != !logged then begin
            incr steps;
            if !steps mod 1000 = 0 then sweep ();
            count (List.tl l)
          end
        in
        count state.State.inputs_rev;
        logged := state.State.inputs_rev;
        stepping :=
          Some state.State.nodes.(fst (List.hd state.State.inputs_rev))
      end
    in
    Array.iter
      (fun (n : Node.t) ->
        n.stepper <-
          T.stepper state.State.tcfg ~node:n.id (fun a ->
            boundary ();
            (match a with
             | T.A_mem
                 ( M_make_exclusive block | M_make_shared block
                 | M_make_invalid block | M_make_pending { block; _ }
                 | M_flag { block; _ } | M_merge { block; _ }
                 | M_adopt { block; _ } ) ->
               named := block :: !named
             | _ -> ());
            Engine.sink state n a))
      state.State.nodes;
    ignore (Cluster.run_app state);
    boundary ();
    settle ();
    sweep ();
    if !steps = 0 then Alcotest.failf "%s: no protocol step" name
  in
  check "sht crash+recover" ~node_faults:crash_recover "sht";
  check "barnes" "barnes";
  check "radix no-sched" ~opts:{ Shasta.Opts.full with schedule = false }
    "radix";
  check "lu net faults" ~net_faults:Shasta_network.Network.standard "lu"

(* --- the scheduler's tournament tree ---------------------------------- *)

(* Random re-key sequences over 1 to 70 keys (powers of two and not),
   drawn so that equal keys and [max_int] are common; the run ends by
   setting every key back to [max_int].  Before and after every update
   the tree's winner is the brute-force argmin, ties to the lowest
   index. *)
let mintree_gen =
  let open QCheck2.Gen in
  int_range 1 70 >>= fun n ->
  let key =
    frequency
      [ (3, int_bound 4); (1, return max_int); (1, int_bound 1_000_000) ]
  in
  list_size (int_range 0 300) (pair (int_bound (n - 1)) key) >>= fun ops ->
  return (n, ops)

let prop_mintree_argmin (n, ops) =
  let t = Mintree.create n in
  let keys = Array.make n max_int in
  let agrees () =
    let best = ref 0 in
    Array.iteri (fun i k -> if k < keys.(!best) then best := i) keys;
    Mintree.winner t = !best && Mintree.key t !best = keys.(!best)
  in
  let set (i, k) =
    Mintree.update t i k;
    keys.(i) <- k;
    agrees ()
  in
  agrees ()
  && List.for_all set ops
  && List.for_all set (List.init n (fun i -> (i, max_int)))

(* Selecting and re-keying allocate nothing: 100,000 of each at 64
   keys stay under 0.01 minor words per pair (the measurement itself
   boxes a float or two). *)
let t_mintree_no_allocation () =
  let n = 64 and ops = 100_000 in
  let t = Mintree.create n in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for k = 1 to ops do
    Mintree.update t (k * 37 mod n) (k * 7919 mod 1000);
    sum := !sum + Mintree.winner t
  done;
  let words = Float.sub (Gc.minor_words ()) before in
  ignore (Sys.opaque_identity !sum);
  let per_op = Float.div words (float_of_int ops) in
  if per_op >= 0.01 then
    Alcotest.failf "%.4f minor words per update and select" per_op

let () =
  Alcotest.run "runtime"
    [ ( "sharing",
        [ Alcotest.test_case "read sharing" `Quick t_read_sharing;
          Alcotest.test_case "write invalidation" `Quick t_write_invalidates;
          Alcotest.test_case "dirty sharing" `Quick t_dirty_sharing;
          Alcotest.test_case "migratory" `Quick t_migratory_ownership ] );
      ( "synchronization",
        [ Alcotest.test_case "lock mutual exclusion" `Quick
            t_lock_mutual_exclusion;
          Alcotest.test_case "barriers" `Quick t_barrier_separates_phases;
          Alcotest.test_case "event flags" `Quick t_flags_order;
          Alcotest.test_case "non-stalling stores + release" `Quick
            t_release_consistency_nonstalling ] );
      ( "invariants",
        [ Alcotest.test_case "after stress" `Quick t_invariants_after_stress ]
      );
      ( "consistency",
        [ Alcotest.test_case "SC correctness" `Quick
            t_sequential_consistency_correct;
          Alcotest.test_case "RC faster than SC" `Quick
            t_sequential_consistency_slower ] );
      ( "networks",
        [ Alcotest.test_case "atm correctness" `Quick t_atm_network_also_correct;
          Alcotest.test_case "atm slower" `Quick t_atm_slower_than_mc ] );
      ( "cold start",
        [ Alcotest.test_case "footprint at P=64" `Quick t_create_footprint ] );
      ( "deadlock",
        [ Alcotest.test_case "budget names the nodes" `Quick
            t_deadlock_names_nodes ] );
      ( "engine",
        [ Alcotest.test_case "allocation per protocol step" `Quick
            t_engine_step_allocation;
          Alcotest.test_case "registry without recording" `Quick
            t_registry_without_recording;
          Alcotest.test_case "state tables match the view" `Quick
            t_tables_match_view ] );
      ( "scheduler",
        [ Support.qtest "tree winner is the argmin, ties to lowest"
            ~count:1000 mintree_gen prop_mintree_argmin;
          Alcotest.test_case "tree selects and re-keys without allocating"
            `Quick t_mintree_no_allocation ] );
      ( "home policies",
        [ Alcotest.test_case "same output, replay reproduces" `Quick
            t_home_policies ] )
    ]
