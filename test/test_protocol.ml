(* Protocol component tests: directory homes, granularity tables,
   message metadata, network ordering. *)

open Shasta_protocol
module Ev = Shasta_obs.Event

(* --- directory homes ------------------------------------------------ *)

let t_dir_homes () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 4 } in
  let v = T.init cfg in
  Alcotest.(check int) "round robin page 0" 0 (T.home_for cfg v 0);
  Alcotest.(check int) "round robin page 1" 1 (T.home_for cfg v 8192);
  Alcotest.(check int) "round robin wraps" 0 (T.home_for cfg v (4 * 8192));
  let _, v = T.step cfg v ~node:0 (T.I_set_home { page = 2; home = 3 }) in
  Alcotest.(check int) "explicit placement" 3 (T.home_for cfg v (2 * 8192));
  Alcotest.(check int) "other pages stay round robin" 1
    (T.home_for cfg v 8192)

(* A page's home is written once: a second placement for a homed page
   (a later allocation on a pooled page) leaves its home, and the
   view's placement state, as they were. *)
let t_dir_home_written_once () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 4 } in
  let set page home v =
    T.step cfg v ~node:0 (T.I_set_home { page; home })
  in
  let _, v = set 2 3 (T.init cfg) in
  let acts, w = set 2 1 v in
  Alcotest.(check int) "first placement kept" 3 (T.home_for cfg w (2 * 8192));
  Alcotest.(check int) "no actions" 0 (List.length acts);
  Alcotest.(check bool) "placement state shared" true (v.T.rest == w.T.rest)

(* --- the per-step allocation path ----------------------------------- *)

(* The protocol inputs of the sht test preset at P=4, recorded from a
   live run, with the live final view. *)
let sht_inputs =
  lazy
    (let open Shasta_runtime in
     let prog =
       Shasta_apps.Sht.program ~cfg:Shasta_apps.Apps.sht_test_cfg
         ~wl:Shasta_apps.Apps.sht_test_wl ()
     in
     let spec = { (Api.default_spec prog) with nprocs = 4 } in
     let state, _, _ = Api.prepare spec in
     state.State.record_inputs <- true;
     ignore (Cluster.run_app state);
     (state.State.tcfg, List.rev state.State.inputs_rev, state.State.proto))

(* A step allocates only the protocol state it changes.  Replaying the
   recorded run through [step] lands on the live view at under 101.8
   minor words per step (it measures ~96.6, a fresh 16-word step context
   and the action list included; a copy of the stepping node's view
   behind every update of it measured ~98.8, writing each pending state
   into [lines] too, with an 11-word view, ~111.9, line states carried
   in the miss inputs ~113.4, a count action beside every miss, lock and
   barrier event ~119, and re-inserting the stepping node into the node
   map on every update ~141).  Through one reused stepper per node, the
   path the engine and [Replay] take, it stays under 61.7 (it measures
   ~59.9: no context and no list per step). *)
let t_step_allocation () =
  let module T = Transitions in
  let cfg, inputs, live = Lazy.force sht_inputs in
  let steps = List.length inputs in
  let steppers =
    Array.init cfg.nprocs (fun node -> T.stepper cfg ~node ignore)
  in
  let replay path bound step =
    let before = Gc.minor_words () in
    let v = List.fold_left step (T.init cfg) inputs in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) (path ^ " lands on the live view") true
      (String.equal (T.canon v) (T.canon live));
    let per = words /. float_of_int steps in
    if per > bound then
      Alcotest.failf "%s: %.1f minor words per step (%d steps)" path per steps
  in
  replay "step" 101.8 (fun v (node, input) -> snd (T.step cfg v ~node input));
  replay "stepper" 61.7 (fun v (node, input) ->
    T.step_with steppers.(node) v input)

(* A step shares every entry it does not change: other nodes' views are
   the input's, and a step that leaves the stepping node alone returns
   the input's node map itself. *)
let t_step_sharing () =
  let module T = Transitions in
  let cfg, inputs, _ = Lazy.force sht_inputs in
  ignore
    (List.fold_left
       (fun v (node, input) ->
         let _, v' = T.step cfg v ~node input in
         T.Imap.iter
           (fun n nv ->
             if n <> node && T.Imap.find n v'.T.nodes != nv then
               Alcotest.failf "a step at n%d rebuilt n%d's view" node n)
           v.T.nodes;
         v')
       (T.init cfg) inputs);
  let v = T.init cfg in
  let _, v' = T.step cfg v ~node:1 (T.I_set_home { page = 2; home = 3 }) in
  Alcotest.(check bool) "I_set_home keeps the node map" true
    (v'.T.nodes == v.T.nodes)

(* A step that leaves every field of the stepping node physically as it
   found it returns that node's entry, and the node map, physically
   unchanged: the stepper builds a view only when a field changed.
   Over the recorded sht run through one stepper per node, 8,140 of the
   22,530 steps are such steps. *)
let t_unchanged_node_shared () =
  let module T = Transitions in
  let cfg, inputs, _ = Lazy.force sht_inputs in
  let steppers =
    Array.init cfg.nprocs (fun node -> T.stepper cfg ~node ignore)
  in
  let same (a : T.nview) (b : T.nview) =
    a.lines == b.lines && a.pending == b.pending && a.acks == b.acks
    && a.waiters == b.waiters && a.deferred == b.deferred
    && a.in_batch == b.in_batch && a.nstat == b.nstat
    && a.resume == b.resume && a.sync_signal == b.sync_signal
  in
  let unchanged = ref 0 in
  ignore
    (List.fold_left
       (fun (i, v) (node, input) ->
         let n = T.node_view v ~node in
         let v' = T.step_with steppers.(node) v input in
         let n' = T.node_view v' ~node in
         if same n n' then begin
           incr unchanged;
           if n' != n then
             Alcotest.failf "step %d: n%d's view rebuilt with no field changed"
               i node;
           if v'.T.nodes != v.T.nodes then
             Alcotest.failf "step %d: node map rebuilt with no field changed" i
         end;
         (i + 1, v'))
       (0, T.init cfg) inputs);
  if !unchanged = 0 then Alcotest.fail "no step left its node unchanged"

(* A passing check allocates only its accumulator: folded over the
   recorded sht run through one stepper per node, [invariants] holds
   after every step at under 8.2 minor words per call (it measures 8.0,
   the walk's record; the closures of [wait_sat] and [barrier_complete],
   which [step] shares, cost ~12.9, and a closure per map walk, a map of
   exclusive holders and [Nodeset.to_list] per range probe ~13,184). *)
let t_invariants_allocation () =
  let module T = Transitions in
  let cfg, inputs, _ = Lazy.force sht_inputs in
  let steppers = Array.init cfg.nprocs (fun node -> T.stepper cfg ~node ignore) in
  let words = ref 0.0 in
  ignore
    (List.fold_left
       (fun v (node, input) ->
         let v = T.step_with steppers.(node) v input in
         let before = Gc.minor_words () in
         let errs = T.invariants cfg v in
         words := !words +. (Gc.minor_words () -. before);
         if errs <> [] then Alcotest.failf "invariants: %s" (List.hd errs);
         v)
       (T.init cfg) inputs);
  let calls = List.length inputs in
  let per = !words /. float_of_int calls in
  if per > 8.2 then
    Alcotest.failf "%.1f minor words per call (%d calls)" per calls

(* The protocol inputs of a test-size app run at [nprocs], recorded
   from a live run. *)
let recorded ?(opts = Shasta.Opts.full) ?net_faults ?node_faults ~nprocs app =
  let open Shasta_runtime in
  let prog = (Shasta_apps.Apps.find app).make Shasta_apps.Apps.Test in
  let spec =
    { (Api.default_spec prog) with
      nprocs; opts = Some opts; net_faults; node_faults }
  in
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  ignore (Cluster.run_app state);
  (state.State.tcfg, List.rev state.State.inputs_rev, state.State.proto)

(* The events the protocol core may emit.  The engine reports the
   others (messages, stalls, faults, crashes, lifecycle) itself, so a
   core emit of one would be counted twice in the registry. *)
let protocol_event : Ev.t -> bool = function
  | Miss _ | False_miss _ | Invalidated _ | Downgraded _ | Store_reissue _
  | Batch_run _ | Lock_acquired _ | Barrier_passed | Flag_raised _
  | Flag_woken _ | Lease_takeover _ | Dir_rebuild _ ->
    true
  | Msg_send _ | Msg_recv _ | Stall _ | Node_finished | Span _ | Net_fault _
  | Node_crash _ | Node_recover _ ->
    false

(* A stepper streams exactly [step]'s list: folded over the recorded
   inputs of five runs (crash and recovery, a faulty wire, basic store
   checks, an 8-node all-to-all, batches) through one reused stepper
   per node, every step's streamed actions equal its list element for
   element, the two views are [canon]-equal, and the last lands on the
   live run's view (a stepper that kept a field of its last step, or
   lost one, would leave one of these).  The recorded inputs
   interleave the nodes, so each stepper steps again after other nodes
   have moved the view on.  The runs between them take every input
   kind that needs one, local deliveries and invalidation runs of
   width >= 2.  Every event the core emits is a {!protocol_event}. *)
let t_stepper_equals_step () =
  let module T = Transitions in
  let runs =
    [ ( "sht crash+recover",
        recorded ~nprocs:4 "sht"
          ~node_faults:
            (Option.get
               (Shasta_runtime.Nodefaults.of_string
                  "crash=2@40000,recover=2@120000,lease=3000")) );
      ( "lu net faults",
        recorded ~nprocs:4 "lu" ~net_faults:Shasta_network.Network.standard );
      ( "radix no-sched",
        recorded ~nprocs:4 "radix"
          ~opts:{ Shasta.Opts.full with schedule = false } );
      ("fft P=8", recorded ~nprocs:8 "fft");
      ("barnes", recorded ~nprocs:4 "barnes") ]
  in
  let seen = Hashtbl.create 16 in
  let see k = Hashtbl.replace seen k () in
  List.iter
    (fun (name, ((cfg : T.cfg), inputs, live)) ->
      let streamed = ref [] in
      let steppers =
        Array.init cfg.nprocs (fun node ->
          T.stepper cfg ~node (fun a -> streamed := a :: !streamed))
      in
      let _, v =
        List.fold_left
          (fun (i, v) (node, input) ->
            let acts, v1 = T.step cfg v ~node input in
            streamed := [];
            let v2 = T.step_with steppers.(node) v input in
            if List.rev !streamed <> acts then
              Alcotest.failf "%s, step %d: streamed actions differ" name i;
            if not (String.equal (T.canon v1) (T.canon v2)) then
              Alcotest.failf "%s, step %d: views differ" name i;
            (match input with
             | T.I_batch_miss _ -> see "batch miss"
             | T.I_store_miss { store_done = false; _ } -> see "basic store"
             | T.I_node_crash _ -> see "crash"
             | T.I_node_recover _ -> see "recover"
             | _ -> ());
            ignore
              (List.fold_left
                 (fun run a ->
                   match a with
                   | T.A_send { msg = { kind = Coh (Inv _); _ }; _ } ->
                     if run >= 1 then see "inv run";
                     run + 1
                   | T.A_local _ -> see "local"; 0
                   | T.A_emit e ->
                     if not (protocol_event e) then
                       Alcotest.failf "%s, step %d: the core emitted %s"
                         name i (Ev.describe e);
                     0
                   | _ -> 0)
                 0 acts);
            (i + 1, v1))
          (0, T.init cfg) inputs
      in
      if not (String.equal (T.canon v) (T.canon live)) then
        Alcotest.failf "%s: the replay misses the live view" name)
    runs;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then Alcotest.failf "no run covers: %s" k)
    [ "batch miss"; "basic store"; "crash"; "recover"; "inv run"; "local" ]

(* A basic (non-scheduled) store check calls the handler before the
   store runs.  n0 holds a shared copy, a batch store upgrades it, and
   a basic store to the pending line stalls; the upgrade ack's step
   wakes it, retries the store miss against the now-exclusive line (a
   false miss) and commits the store, all inside that one step. *)
let t_store_retry_in_step () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 2 } in
  let b = 8192 (* page 1: home n1 *) in
  let v = ref (T.init cfg) and wire = Queue.create () in
  let step node input =
    let acts, v' = T.step cfg !v ~node input in
    v := v';
    List.iter
      (function T.A_send { dst; msg } -> Queue.add (dst, msg) wire | _ -> ())
      acts;
    acts
  in
  let deliver () =
    let dst, (msg : Message.t) = Queue.pop wire in
    (msg.kind, step dst (T.I_msg msg))
  in
  ignore (step 1 (T.I_alloc { owner = 1; blocks = [ b ] }));
  ignore (step 0 (T.I_load_miss { addr = b; block = b }));
  while not (Queue.is_empty wire) do ignore (deliver ()) done;
  Alcotest.(check bool) "n0 shares the block" true
    (T.line_state !v ~node:0 ~block:b = T.L_shared);
  ignore (step 0 (T.I_batch_miss { nranges = 1; blocks = [ (b, true) ] }));
  ignore (step 0 (T.I_batch_end { values = [] }));
  ignore
    (step 0
       (T.I_store_miss { addr = b; block = b; store_done = false; stored = [] }));
  Alcotest.(check bool) "the basic store stalls for a retry" true
    ((T.node_view !v ~node:0).T.resume = T.R_store_retry { addr = b; block = b });
  let rec until_upgrade_ack () =
    match deliver () with
    | Message.Coh (Upgrade_ack _), acts -> acts
    | _ -> until_upgrade_ack ()
  in
  let tag = function
    | T.A_stall _ -> Some "stall"
    | T.A_emit (Ev.False_miss _) -> Some "false miss"
    | T.A_commit_store -> Some "commit store"
    | _ -> None
  in
  Alcotest.(check (list string)) "the wake retries and commits in-step"
    [ "stall"; "false miss"; "commit store" ]
    (List.filter_map tag (until_upgrade_ack ()));
  Alcotest.(check bool) "n0 runs" true
    ((T.node_view !v ~node:0).T.nstat = T.N_running);
  Alcotest.(check bool) "n0 holds the block exclusive" true
    (T.line_state !v ~node:0 ~block:b = T.L_exclusive);
  Alcotest.(check (list string)) "invariants hold" [] (T.invariants cfg !v)

(* Memory the directory does not hold is never shared: the state tables
   read it exclusive, so a miss there (a flag-valued private load, a
   basic store check on unshared memory) is a false miss. *)
let t_miss_outside_directory () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 2 } in
  let v = T.init cfg in
  let false_miss =
    [ T.A_emit (Ev.False_miss { addr = 0x40 }); T.A_charge T.False_miss ]
  in
  let acts, _ =
    T.step cfg v ~node:0 (T.I_load_miss { addr = 0x40; block = 0x40 })
  in
  Alcotest.(check bool) "load: false miss, then refill" true
    (acts = false_miss @ [ T.A_refill ]);
  let acts, _ =
    T.step cfg v ~node:0
      (T.I_store_miss
         { addr = 0x40; block = 0x40; store_done = false; stored = [] })
  in
  Alcotest.(check bool) "store: false miss" true (acts = false_miss)

(* Crash recovery rewrites every node's entry, the coordinator's
   included: a forward parked at the coordinator on behalf of the dead
   requester is dropped from the view the step returns, and the block
   the coordinator claimed earlier in the same step stays claimed. *)
let t_crash_drops_coordinator_waiters () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 3 } in
  let v = T.init cfg in
  let fwd requester =
    { Message.src = 0; addr = 0x40; kind = Coh (Fwd_read { requester }) }
  in
  let n0 =
    { T.empty_nview with
      waiters = T.Imap.singleton 0x40 [ fwd 1; fwd 2 ] }
  in
  let v =
    { v with
      T.nodes = T.Imap.add 0 n0 v.T.nodes;
      dir =
        T.Imap.singleton 0x80
          { T.owner = 1; sharers = Nodeset.singleton Full ~nprocs:3 1 } }
  in
  let _, v =
    T.step cfg v ~node:0 (T.I_node_crash { victim = 1; lost = [] })
  in
  Alcotest.(check int) "only the live requester's forward stays" 1
    (List.length (T.Imap.find 0x40 (T.node_view v ~node:0).T.waiters));
  Alcotest.(check bool) "the dead owner's block is claimed" true
    (T.line_state v ~node:0 ~block:0x80 = T.L_exclusive)

(* The door rule: a recovered node (halted, no longer crashed) drops a
   late data reply or invalidation ack for a request that died with it.
   Its view stays as it was, and the message costs only its handling
   charge.  A node that never halted still rejects a stray reply. *)
let t_halted_door () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 3 } in
  let v = T.init cfg in
  let halted = Nodeset.add (Nodeset.exact_empty ~nprocs:3) 1 in
  let v = { v with T.rest = { v.T.rest with halted } } in
  let late kind = T.I_msg { Message.src = 2; addr = 0x40; kind = Coh kind } in
  List.iter
    (fun (name, kind) ->
      let acts, w = T.step cfg v ~node:1 (late kind) in
      Alcotest.(check bool) (name ^ ": only the handling charge") true
        (acts = [ T.A_charge Message_handle ]);
      Alcotest.(check string) (name ^ ": view unchanged") (T.canon v)
        (T.canon w);
      Alcotest.(check (list string)) (name ^ ": invariants") []
        (T.invariants cfg w))
    [ ("data reply", Data_reply { data = [||]; exclusive = true; acks = 1 });
      ("inv ack", Inv_ack) ];
  match
    T.step cfg (T.init cfg) ~node:1
      (late (Data_reply { data = [||]; exclusive = false; acks = 0 }))
  with
  | _ -> Alcotest.fail "a live node accepted a stray data reply"
  | exception Invalid_argument _ -> ()

(* --- invariant messages ---------------------------------------------- *)

(* Every check in [invariants] and [quiescent_invariants], each given
   one hand-built broken view at P=3: the error list, its text and its
   order are pinned.  [base] is a clean view: block 0x40 owned
   exclusive by n0.  [quiescent_invariants] lists the [invariants]
   errors last first, then its own. *)
let t_invariant_messages () =
  let module T = Transitions in
  let full = { T.default_cfg with nprocs = 3 } in
  let scalable = { full with scalable_sync = true } in
  let set l = List.fold_left Nodeset.add (Nodeset.exact_empty ~nprocs:3) l in
  let ent ?(sharers = set [ 0 ]) owner = { T.owner; sharers } in
  let base =
    let v = T.init full in
    { v with
      T.dir = T.Imap.singleton 0x40 (ent 0);
      nodes =
        T.Imap.add 0
          { T.empty_nview with lines = T.Imap.singleton 0x40 T.L_exclusive }
          v.T.nodes }
  in
  let node id f v =
    { v with T.nodes = T.Imap.add id (f (T.node_view v ~node:id)) v.T.nodes }
  in
  let line blk l (n : T.nview) = { n with lines = T.Imap.add blk l n.lines } in
  let dir blk e (v : T.view) = { v with dir = T.Imap.add blk e v.dir } in
  let rest f (v : T.view) = { v with rest = f v.rest } in
  let pend k = { T.pkind = k; written = T.Imap.empty; invalidated = false } in
  let msg = { Message.src = 1; addr = 0x80; kind = Coh Read_req } in
  let bcast ~nprocs excl =
    let s = Nodeset.add (Nodeset.singleton (Limited 1) ~nprocs 0) 1 in
    List.fold_left Nodeset.remove s excl
  in
  let crashed l (r : T.rest) = { r with crashed = set l; halted = set l } in
  let cases =
    [ ("clean", full, base, [], []);
      ( "owner out of range", full,
        dir 0x40 (ent 5) base,
        [ "block 0x40: owner 5 out of range";
          "block 0x40: owner 5 missing from sharer set 1" ],
        [ "block 0x40: exclusive at node 0 but directory owner is 5" ] );
      ( "sharers beyond procs", full,
        dir 0x40 (ent ~sharers:(Nodeset.add (set [ 0 ]) 4) 0) base,
        [ "block 0x40: sharer set 11 beyond 3 procs" ],
        [ "block 0x40: exclusive at node 0 with 2 sharers" ] );
      ( "pointers beyond procs", { full with dmode = Limited 2 },
        dir 0x40
          (ent ~sharers:(Nodeset.add (Nodeset.singleton (Limited 2) ~nprocs:3 0) 7)
             0)
          base,
        [ "block 0x40: sharer set P(0,7) beyond 3 procs" ],
        [ "block 0x40: exclusive at node 0 with 2 sharers" ] );
      ( "broadcast beyond procs", { full with dmode = Limited 1 },
        dir 0x80 (ent ~sharers:(bcast ~nprocs:5 [ 3 ]) 0) base,
        [ "block 0x80: sharer set *(-3) beyond 3 procs" ], [] );
      ( "broadcast within procs", { full with dmode = Limited 1 },
        dir 0x80 (ent ~sharers:(bcast ~nprocs:5 [ 3; 4 ]) 0) base, [], [] );
      ( "owner missing from sharers", full,
        dir 0x40 (ent ~sharers:(set [ 1 ]) 0) base,
        [ "block 0x40: owner 0 missing from sharer set 2" ],
        [ "block 0x40: node 0 holds a valid copy but is not in the sharer set";
          "block 0x40: node 1 in sharer set but line invalid" ] );
      ( "three exclusive holders", full,
        base
        |> node 1 (line 0x40 T.L_exclusive)
        |> node 2 (line 0x40 T.L_exclusive),
        [ "block 0x40: exclusive at both node 0 and node 1";
          "block 0x40: exclusive at both node 0 and node 2" ],
        [ "block 0x40: node 1 holds a valid copy but is not in the sharer set";
          "block 0x40: exclusive at node 1 but directory owner is 0";
          "block 0x40: node 2 holds a valid copy but is not in the sharer set";
          "block 0x40: exclusive at node 2 but directory owner is 0" ] );
      ( "a pending entry hides an exclusive line", full,
        base
        |> node 0 (fun n ->
             { n with pending = T.Imap.singleton 0x40 (pend T.P_readex) })
        |> node 1 (line 0x40 T.L_exclusive)
        |> node 2 (line 0x40 T.L_exclusive),
        [ "block 0x40: exclusive at both node 1 and node 2" ],
        [ "node 0: 1 pending blocks at quiescence";
          "block 0x40: node 0 in sharer set but line pending-invalid";
          "block 0x40: node 1 holds a valid copy but is not in the sharer set";
          "block 0x40: exclusive at node 1 but directory owner is 0";
          "block 0x40: node 2 holds a valid copy but is not in the sharer set";
          "block 0x40: exclusive at node 2 but directory owner is 0" ] );
      ( "exclusive outside the directory", full,
        node 1 (line 0x80 T.L_exclusive) base,
        [ "block 0x80: exclusive at node 1 but not in directory" ], [] );
      ( "pending state in lines", full,
        base
        |> node 2 (line 0x40 T.L_pending_invalid)
        |> node 1 (line 0x80 T.L_pending_shared),
        [ "node 1 block 0x80: pending state stored as a settled line";
          "node 2 block 0x40: pending state stored as a settled line" ], [] );
      ( "ack counts", full,
        node 1
          (fun n ->
            { n with
              acks =
                T.Imap.of_seq
                  (List.to_seq
                     [ (0x40, { T.got = -1; expected = None });
                       (0x80, { T.got = 2; expected = Some 2 });
                       (0xc0, { T.got = -2; expected = Some (-1) });
                       (0x100, { T.got = 0; expected = Some 1 }) ]) })
          base,
        [ "node 1 block 0x40: negative acks";
          "node 1 block 0x80: 2 acks received, 2 expected — entry should \
           have completed";
          "node 1 block 0xc0: negative acks";
          "node 1 block 0xc0: nonpositive expected acks -1" ],
        [ "node 1: 4 unacked blocks at quiescence" ] );
      ( "waiter queues", full,
        node 0
          (fun n ->
            { n with
              waiters =
                T.Imap.of_seq
                  (List.to_seq [ (0x40, []); (0x80, [ msg; msg ]) ]) })
          base,
        [ "node 0 block 0x40: empty waiter queue entry";
          "node 0 block 0x80: 2 deferred requests but block not busy" ],
        [ "node 0: deferred requests at quiescence" ] );
      ( "waits", full,
        base
        |> node 1 (fun n ->
             { n with nstat = N_waiting (W_blocks [ 0x40 ]); resume = R_refill })
        |> node 2 (fun n -> { n with nstat = N_waiting W_sync }),
        [ "node 1: waiting on a satisfied condition";
          "node 2: waiting with no resume" ],
        [ "node 1: still waiting at quiescence";
          "node 2: still waiting at quiescence" ] );
      ( "barrier arrivals beyond procs", full,
        rest (fun r -> { r with barrier_arrived = Nodeset.add (set [ 0 ]) 3 }) base,
        [ "barrier_arrived 9 has members beyond 3 procs" ], [] );
      ( "halted node arrived", full,
        rest (fun r -> { r with barrier_arrived = set [ 1 ]; halted = set [ 1 ] })
          base,
        [ "barrier_arrived 2 includes halted nodes 2" ], [] );
      ( "unreleased barrier", full,
        rest (fun r -> { r with barrier_arrived = set [ 0; 1; 2 ] }) base,
        [ "barrier_arrived 7: release condition met but not released" ], [] );
      ( "release wave under centralized sync", full,
        rest (fun r -> { r with brelease = set [ 1 ] }) base,
        [ "brelease 2 nonempty under centralized sync" ],
        [ "release wave 2 undelivered at quiescence" ] );
      ( "release wave overlaps arrivals", scalable,
        rest
          (fun r -> { r with brelease = set [ 1 ]; barrier_arrived = set [ 1 ] })
          base,
        [ "brelease 2 overlaps barrier_arrived 2" ],
        [ "release wave 2 undelivered at quiescence" ] );
      ( "release wave to a crashed node", scalable,
        rest (fun r -> { (crashed [ 2 ] r) with brelease = set [ 2 ] }) base,
        [ "brelease 4 includes crashed nodes" ],
        [ "release wave 4 undelivered at quiescence" ] );
      ( "halted beyond procs", full,
        rest (fun r -> { r with halted = set [ 5 ] }) base,
        [ "halted set 20 has members beyond 3 procs" ], [] );
      ( "crashed but not halted", full,
        rest (fun r -> { r with crashed = set [ 1 ] }) base,
        [ "crashed set 2 not contained in halted set 0" ], [] );
      ( "halted nodes with requests or waits", full,
        base
        |> node 1 (fun n ->
             { n with pending = T.Imap.singleton 0x80 (pend T.P_read) })
        |> node 2 (fun n ->
             { n with nstat = N_waiting W_sync; resume = R_barrier_passed })
        |> rest (fun r -> { r with halted = set [ 1; 2 ] }),
        [ "node 1: halted but holds a pending entry, ack count, deferred \
           work, batch or wait";
          "node 2: halted but holds a pending entry, ack count, deferred \
           work, batch or wait" ],
        [ "node 1: 1 pending blocks at quiescence";
          "node 2: still waiting at quiescence" ] );
      ( "crashed owner and sharer", full,
        base
        |> dir 0x80 (ent ~sharers:(set [ 1; 2 ]) 1)
        |> rest (crashed [ 1 ]),
        [ "block 0x80: owner 1 is crashed";
          "block 0x80: crashed nodes in sharer set 6" ],
        [ "block 0x80: node 1 in sharer set but line invalid";
          "block 0x80: node 2 in sharer set but line invalid" ] );
      ( "inexact sharers may cover the crashed", { full with dmode = Limited 1 },
        base
        |> dir 0x80 (ent ~sharers:(bcast ~nprocs:3 []) 0)
        |> rest (crashed [ 1 ]), [], [] );
      ( "locks", full,
        rest
          (fun r ->
            { (crashed [ 1 ] r) with
              locks =
                T.Imap.of_seq
                  (List.to_seq
                     [ (1, { T.holder = Some 7; lq = [] });
                       (2, { T.holder = Some 1; lq = [] });
                       (3, { T.holder = None; lq = [ 0; 2 ] });
                       (4, { T.holder = Some 0; lq = [ 1 ] });
                       (5, { T.holder = Some 0; lq = [ 2; 2 ] }) ]) })
          base,
        [ "lock 1: holder 7 out of range";
          "lock 2: holder 1 is crashed (missed takeover)";
          "lock 3: free but 2 queued requesters";
          "lock 4: crashed node still queued";
          "lock 5: duplicate queued requester" ], [] );
      ( "flag waiter crashed", full,
        rest
          (fun r ->
            { (crashed [ 1 ] r) with
              flags = T.Imap.singleton 1 { T.fset = false; fwaiters = [ 1 ] } })
          base,
        [ "flag 1: crashed node still waiting" ], [] );
      ( "home override out of range", full,
        rest (fun r -> { r with homes = T.Imap.singleton 3 9 }) base,
        [ "page 3: home override 9 out of range" ], [] );
      ( "busy at quiescence", full,
        node 1
          (fun n ->
            { n with
              pending = T.Imap.singleton 0x80 (pend T.P_read);
              acks = T.Imap.singleton 0xc0 { T.got = 0; expected = Some 1 };
              waiters = T.Imap.singleton 0x80 [ msg ];
              in_batch = true;
              nstat = N_waiting (W_blocks [ 0x80 ]);
              resume = R_refill })
          base, [],
        [ "node 1: 1 pending blocks at quiescence";
          "node 1: 1 unacked blocks at quiescence";
          "node 1: deferred requests at quiescence";
          "node 1: still in a batch at quiescence";
          "node 1: still waiting at quiescence" ] );
      ( "directory disagrees with lines", full,
        base
        |> dir 0x40 (ent ~sharers:(set [ 0; 1 ]) 0)
        |> dir 0x80 (ent ~sharers:(set [ 1 ]) 1)
        |> node 0 (line 0x80 T.L_exclusive)
        |> node 1 (line 0x80 T.L_exclusive)
        |> node 2 (line 0x40 T.L_shared),
        [ "block 0x80: exclusive at both node 0 and node 1" ],
        [ "block 0x40: exclusive at node 0 with 2 sharers";
          "block 0x40: node 1 in sharer set but line invalid";
          "block 0x40: node 2 holds a valid copy but is not in the sharer set";
          "block 0x80: node 0 holds a valid copy but is not in the sharer set";
          "block 0x80: exclusive at node 0 but directory owner is 1" ] );
      ( "pending sharers at quiescence", full,
        base
        |> dir 0x80 (ent ~sharers:(set [ 1; 2 ]) 1)
        |> node 1 (fun n ->
             { n with pending = T.Imap.singleton 0x80 (pend T.P_read) })
        |> node 2 (fun n ->
             { n with pending = T.Imap.singleton 0x80 (pend T.P_upgrade) }),
        [],
        [ "node 1: 1 pending blocks at quiescence";
          "node 2: 1 pending blocks at quiescence";
          "block 0x80: node 1 in sharer set but line pending-invalid";
          "block 0x80: node 2 in sharer set but line pending-shared" ] ) ]
  in
  List.iter
    (fun (name, cfg, v, errs, quiescent) ->
      Alcotest.(check (list string)) name errs (T.invariants cfg v);
      Alcotest.(check (list string))
        (name ^ " at quiescence")
        (List.rev_append errs quiescent)
        (T.quiescent_invariants cfg v))
    cases

(* --- granularity ---------------------------------------------------- *)

let t_gran_heuristic () =
  let g = Granularity.create ~line_bytes:64 () in
  (* small objects: block = rounded object size (Section 4.2) *)
  Alcotest.(check int) "tiny object" 64 (Granularity.heuristic_block g ~size:8);
  Alcotest.(check int) "100-byte object" 128
    (Granularity.heuristic_block g ~size:100);
  Alcotest.(check int) "1KB object" 1024
    (Granularity.heuristic_block g ~size:1024);
  (* large objects fall back to the line size *)
  Alcotest.(check int) "big array" 64
    (Granularity.heuristic_block g ~size:100_000)

let t_gran_legalize () =
  let legalize = Granularity.legalize ~line_bytes:64 in
  Alcotest.(check int) "round to power of two" 256 (legalize 200);
  Alcotest.(check int) "at least a line" 64 (legalize 1);
  Alcotest.(check int) "at most a page" 8192 (legalize 100_000)

let t_gran_block_map () =
  let g = Granularity.create ~line_bytes:64 () in
  Granularity.set_page_block g ~page:10 ~block_bytes:512;
  let addr = (10 * 8192) + 1000 in
  Alcotest.(check int) "block bytes" 512 (Granularity.block_bytes_at g addr);
  Alcotest.(check int) "block base" ((10 * 8192) + 512)
    (Granularity.block_base g addr);
  Alcotest.(check int) "lines per block" 8 (Granularity.lines_per_block g addr);
  (* unset pages default to line-sized blocks *)
  Alcotest.(check int) "default" 64 (Granularity.block_bytes_at g 0);
  Alcotest.(check bool) "conflicting resize rejected" true
    (try Granularity.set_page_block g ~page:10 ~block_bytes:64; false
     with Invalid_argument _ -> true)

(* --- messages ------------------------------------------------------- *)

let t_message_payloads () =
  let mk kind = { Message.src = 0; addr = 0x1000; kind } in
  let data = Array.make 16 0 in
  Alcotest.(check bool) "data reply carries the block" true
    (Message.payload_longs
       (mk (Coh (Data_reply { data; exclusive = true; acks = 0 })))
     > Message.payload_longs (mk (Coh Read_req)));
  Alcotest.(check bool) "describe mentions kind" true
    (String.length (Message.describe (mk (Coh Read_req))) > 0)

(* --- network -------------------------------------------------------- *)

let t_net_fifo () =
  let net = Shasta_network.Network.create ~nprocs:2
      Shasta_network.Network.ideal in
  (* a big message sent first must still arrive first (point-to-point
     order, which the protocol depends on) *)
  ignore
    (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:0 ~payload_longs:1000
       "big");
  ignore
    (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:1 ~payload_longs:0
       "small");
  let t1, m1 =
    Option.get (Shasta_network.Network.recv net ~dst:1 ~now:max_int)
  in
  let t2, m2 =
    Option.get (Shasta_network.Network.recv net ~dst:1 ~now:max_int)
  in
  Alcotest.(check string) "fifo first" "big" m1;
  Alcotest.(check string) "fifo second" "small" m2;
  Alcotest.(check bool) "delivery times monotone" true (t2 >= t1)

let t_net_costs () =
  let mc = Shasta_network.Network.memory_channel
  and atm = Shasta_network.Network.atm in
  Alcotest.(check bool) "atm slower than memory channel" true
    (atm.wire_latency > mc.wire_latency
     && atm.recv_overhead > mc.recv_overhead);
  let net = Shasta_network.Network.create ~nprocs:2 mc in
  let done_at =
    Shasta_network.Network.send net ~src:0 ~dst:1 ~now:100 ~payload_longs:16
      "m"
  in
  Alcotest.(check int) "sender pays the send overhead"
    (100 + mc.send_overhead) done_at;
  Alcotest.(check bool) "not deliverable before latency" true
    (Shasta_network.Network.recv net ~dst:1 ~now:(100 + mc.send_overhead)
     = None);
  Alcotest.(check int) "in flight" 1 (Shasta_network.Network.in_flight net)

let t_net_next_arrival () =
  let net = Shasta_network.Network.create ~nprocs:2
      Shasta_network.Network.ideal in
  Alcotest.(check int) "empty" max_int
    (Shasta_network.Network.next_arrival net ~dst:1);
  ignore
    (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:5 ~payload_longs:0 "x");
  (* sent at 5, plus 1 cycle of send overhead and 1 of wire latency *)
  Alcotest.(check int) "arrival known" 7
    (Shasta_network.Network.next_arrival net ~dst:1);
  ignore (Shasta_network.Network.recv net ~dst:1 ~now:7);
  Alcotest.(check int) "empty after the pop" max_int
    (Shasta_network.Network.next_arrival net ~dst:1)

let () =
  Alcotest.run "protocol"
    [ ( "directory",
        [ Alcotest.test_case "homes" `Quick t_dir_homes;
          Alcotest.test_case "home written once" `Quick
            t_dir_home_written_once ] );
      ( "step",
        [ Alcotest.test_case "allocation per step" `Quick t_step_allocation;
          Alcotest.test_case "unchanged views shared" `Quick t_step_sharing;
          Alcotest.test_case "streamed actions equal the list" `Quick
            t_stepper_equals_step;
          Alcotest.test_case "stalled store retries in-step" `Quick
            t_store_retry_in_step;
          Alcotest.test_case "miss outside the directory is false" `Quick
            t_miss_outside_directory;
          Alcotest.test_case "crash drops coordinator waiters" `Quick
            t_crash_drops_coordinator_waiters;
          Alcotest.test_case "halted node drops late completions" `Quick
            t_halted_door;
          Alcotest.test_case "unchanged node returned as found" `Quick
            t_unchanged_node_shared ]
      );
      ( "invariants",
        [ Alcotest.test_case "each check's text and order" `Quick
            t_invariant_messages;
          Alcotest.test_case "a passing check allocates nothing" `Quick
            t_invariants_allocation ] );
      ( "granularity",
        [ Alcotest.test_case "heuristic" `Quick t_gran_heuristic;
          Alcotest.test_case "legalize" `Quick t_gran_legalize;
          Alcotest.test_case "block map" `Quick t_gran_block_map ] );
      ("messages", [ Alcotest.test_case "payloads" `Quick t_message_payloads ]);
      ( "network",
        [ Alcotest.test_case "fifo order" `Quick t_net_fifo;
          Alcotest.test_case "cost model" `Quick t_net_costs;
          Alcotest.test_case "next arrival" `Quick t_net_next_arrival ] )
    ]
