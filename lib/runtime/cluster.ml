(* Cluster construction and the simulation scheduler.

   Follows the SPLASH-2 execution model the paper adopts (Section 2 and
   footnote 1): an initialization phase runs on one processor and
   allocates/fills the shared data; process creation copies the static
   data to every node (the paper's CREATE-macro change); then the
   parallel phase runs on all nodes and is what gets timed.

   Scheduling is event-driven over per-node virtual time: the runnable
   entity with the smallest next-event time advances.  Running nodes
   execute instructions (yielding at runtime interactions); waiting or
   finished nodes advance by receiving messages.  Finished nodes keep
   serving protocol requests — they may still own blocks. *)

open Shasta_machine
module Obs = Shasta_obs.Obs
module Ev = Shasta_obs.Event

type phase_result = {
  wall_cycles : int;
  per_node_cycles : int array;
  counters : Node.counters array;
  output : string;
  msgs_sent : int;
  payload_longs : int;
  metrics : Shasta_obs.Metrics.t;
      (* delta of the observability registry over the timed phase *)
}

let create ~(config : State.config) ~(compiled : Shasta_minic.Compile.compiled)
    () =
  let image =
    Image.freeze ~pipe:config.pipe_config ~compile:Exec.compile
      compiled.program
  in
  let nodes =
    Array.init config.nprocs (fun id ->
      Node.create ~id ~pipe_config:config.pipe_config)
  in
  let pid_addr = Shasta_minic.Compile.global_address compiled "__pid" in
  let np_addr = Shasta_minic.Compile.global_address compiled "__nprocs" in
  (* crash-aware programs declare a [__crashed] global; the cluster
     keeps it equal to the detected-crash mask on every live node *)
  let crashed_addr =
    match Shasta_minic.Compile.global_address_opt compiled "__crashed" with
    | Some a -> a
    | None -> -1
  in
  let tcfg =
    { Shasta_protocol.Transitions.nprocs = config.nprocs;
      consistency = config.consistency; dmode = config.dir_mode;
      scalable_sync = config.scalable_sync }
  in
  let state =
    { State.config; image; nodes;
      net = Shasta_network.Network.create ?faults:config.net_faults
          ~nprocs:config.nprocs config.net_profile;
      gran =
        Shasta_protocol.Granularity.create
          ~line_bytes:(1 lsl config.line_shift) ();
      tcfg;
      proto = Shasta_protocol.Transitions.init tcfg;
      shared_next_page = State.shared_heap_start;
      pools = Hashtbl.create 8;
      output = Buffer.create 256;
      allocations = [];
      pid_addr;
      nprocs_addr = np_addr;
      crashed_addr;
      record_inputs = false;
      inputs_rev = [];
      fault_queue = [] }
  in
  Engine.attach state;
  (* Wire the interconnect and cache-model taps into the observability
     subsystem: every network send/delivery becomes a typed event when
     a sink or profiler records (only a registry bump otherwise), every
     hardware cache miss a registry bump. *)
  let obs = config.obs in
  let module M = Shasta_protocol.Message in
  Shasta_network.Network.set_taps state.net
    ~on_send:(fun ~src ~dst ~now (msg : M.t) ->
      if Obs.recording obs then
        (* stamp the send with the sender's current code site so the
           profiler's transaction spans open at the requesting access *)
        Engine.emit_at obs nodes.(src) ~time:now
          (Ev.Msg_send
             { dst; kind = M.kind_name msg; block = msg.addr;
               longs = M.payload_longs msg })
      else Obs.count_send obs ~node:src ~longs:(M.payload_longs msg))
    ~on_recv:(fun ~src ~dst ~now (msg : M.t) ->
      if Obs.recording obs then
        Obs.emit obs ~node:dst ~time:now
          (Ev.Msg_recv
             { src; kind = M.kind_name msg; block = msg.addr;
               longs = M.payload_longs msg })
      else Obs.count_recv obs ~node:dst);
  (* fault-layer perturbations attribute to the sender's site too, so
     the profiler charges retransmission stalls to the code that sent
     the frame; with faults off the tap never fires and the event
     stream is byte-identical to a reliable run *)
  Shasta_network.Network.set_fault_tap state.net
    ~on_fault:(fun ~src ~dst ~now (x : Shasta_network.Network.xmit) msg ->
      Engine.emit_at obs nodes.(src) ~time:now
        (Ev.Net_fault
           { dst; kind = M.kind_name msg; retx = x.retx;
             backoff = x.backoff }));
  (* hardware cache misses bump counters resolved here, once *)
  let l1i = Obs.counter obs "cache.l1i.misses"
  and l1d = Obs.counter obs "cache.l1d.misses"
  and l2 = Obs.counter obs "cache.l2.misses" in
  Array.iter
    (fun (n : Node.t) ->
      let h = n.caches in
      h.on_miss <-
        (fun c ->
          Obs.incr ~node:n.id
            (if c == h.l1i then l1i else if c == h.l1d then l1d else l2)))
    nodes;
  Array.iter
    (fun (n : Node.t) ->
      (* private regions are exclusive from the start so that store
         checks without range checks succeed on them *)
      Tables.mark_private_exclusive n ~ls:config.line_shift
        ~addr:Shasta.Layout.static_base
        ~len:(Shasta.Layout.static_limit - Shasta.Layout.static_base);
      Tables.mark_private_exclusive n ~ls:config.line_shift
        ~addr:Shasta.Layout.stack_limit
        ~len:(Shasta.Layout.stack_top - Shasta.Layout.stack_limit);
      List.iter
        (fun (addr, bits) -> Memory.write_quad_bits n.mem addr bits)
        compiled.static_init;
      Memory.write_quad n.mem pid_addr n.id;
      Memory.write_quad n.mem np_addr config.nprocs)
    nodes;
  state

let reset_node_for (state : State.t) (node : Node.t) ~proc =
  node.pc_proc <- Image.proc_index state.image proc;
  node.pc_idx <- 0;
  node.call_stack <- [];
  node.status <- Running;
  node.regs.(Shasta_isa.Reg.sp) <- Shasta.Layout.stack_top;
  node.regs.(Shasta_isa.Reg.gp) <- Shasta.Layout.static_base;
  node.regs.(Shasta_isa.Reg.zero) <- 0

let next_event_time (state : State.t) (node : Node.t) =
  match node.status with
  | Node.Running -> Node.time node
  | Node.Crashed -> max_int (* never runs, never delivers *)
  | Node.Waiting _ | Node.Finished ->
    let t = Shasta_network.Network.next_arrival state.net ~dst:node.id in
    if t = max_int then max_int else max t (Node.time node)

exception Deadlock of string

(* One "nN:status" word per node; every [Deadlock] message ends with it. *)
let diagnose (state : State.t) =
  Array.to_list state.nodes
  |> List.map (fun (n : Node.t) ->
    Printf.sprintf "n%d:%s" n.id
      (match n.status with
       | Node.Running -> "run"
       | Node.Finished -> "done"
       | Node.Crashed -> "crashed"
       | Node.Waiting w -> Shasta_protocol.Transitions.string_of_wait w))
  |> String.concat " "

let deadlock state why = raise (Deadlock (why ^ diagnose state))

(* ------------------------------------------------------------------ *)
(* Node crash/recovery injection (--node-faults)                        *)
(* ------------------------------------------------------------------ *)

(* Mirror the ever-crashed (halted) mask into every live node's
   [__crashed] cell (declared by crash-aware programs; a private
   global, so the write never touches the protocol).  Halted, not
   currently-crashed: a recovered node serves protocol traffic again
   but its program died with the crash, and that is what programs need
   to know (e.g. which shards' data reflects a truncated plan). *)
let write_crashed_cells (state : State.t) =
  if state.crashed_addr >= 0 then begin
    let mask = Shasta_protocol.Transitions.halted_mask state.proto in
    Array.iter
      (fun (n : Node.t) ->
        if n.status <> Node.Crashed then
          Memory.write_quad n.mem state.crashed_addr mask)
      state.nodes
  end

(* Detection: purge the victim's in-flight frames off the wire and feed
   the pure core the crash at the lowest surviving node, which becomes
   the recovery coordinator (directory rebuild, lease takeover, re-sent
   replies all run as its protocol work and are recorded for replay). *)
let detect_crash (state : State.t) ~victim ~at =
  let lost =
    Shasta_network.Network.mark_dead state.net ~node:victim
    |> List.map (fun (_src, dst, msg) -> (dst, msg))
  in
  let coord = ref (-1) in
  Array.iter
    (fun (n : Node.t) ->
      if !coord < 0 && n.status <> Node.Crashed then coord := n.id)
    state.nodes;
  if !coord >= 0 then begin
    let coord = state.nodes.(!coord) in
    Pipeline.advance_to coord.pipe at;
    Engine.node_crash state coord ~victim ~lost;
    write_crashed_cells state
  end

let fire_fault (state : State.t) (at, (e : Nodefaults.event)) =
  let obs = state.config.obs in
  match e.what with
  | Nodefaults.Crash ->
    let victim = state.nodes.(e.node) in
    if victim.status <> Node.Crashed then begin
      (* crash-stop: the program dies here; the memory image freezes
         (recovery salvages block bytes out of it) *)
      Pipeline.advance_to victim.pipe at;
      victim.status <- Node.Crashed;
      victim.refill <- (fun () -> ());
      victim.commit_store <- (fun () -> ());
      Obs.emit obs ~node:e.node ~time:at (Ev.Node_crash { victim = e.node });
      (* schedule detection at the liveness lease expiry over the
         victim's last observed send — its implicit final heartbeat *)
      let spec =
        match state.config.node_faults with
        | Some s -> s
        | None -> Nodefaults.empty
      in
      let d =
        max (at + 1)
          (Shasta_network.Network.last_activity state.net ~node:e.node
           + max 1 spec.lease)
      in
      state.fault_queue <-
        List.merge
          (fun (a, _) (b, _) -> compare a b)
          state.fault_queue
          [ (d, { Nodefaults.at = d; node = e.node; what = Nodefaults.Detect }) ]
    end
  | Nodefaults.Detect -> detect_crash state ~victim:e.node ~at
  | Nodefaults.Recover ->
    let victim = state.nodes.(e.node) in
    if victim.status = Node.Crashed then begin
      (* an undetected crash detects now: recovery must rejoin a clean
         protocol identity, not resume half-stale pending state *)
      if Shasta_protocol.Transitions.is_live state.proto ~node:e.node then
        detect_crash state ~victim:e.node ~at;
      state.fault_queue <-
        List.filter
          (fun (_, (f : Nodefaults.event)) ->
            not (f.node = e.node && f.what = Nodefaults.Detect))
          state.fault_queue;
      Engine.node_recover state victim ~victim:e.node;
      Pipeline.advance_to victim.pipe at;
      (* protocol duties only: the node serves home/owner traffic again
         but its program died with the crash *)
      victim.status <- Node.Finished;
      Obs.emit obs ~node:e.node ~time:at (Ev.Node_recover { victim = e.node });
      write_crashed_cells state
    end

let next_fault_time (state : State.t) =
  match state.fault_queue with [] -> max_int | (t, _) :: _ -> t

(* Every node has finished and the network has drained. *)
let finished (state : State.t) =
  Array.for_all
    (fun (n : Node.t) ->
      match n.status with
      | Node.Finished | Node.Crashed -> true
      | Node.Running | Node.Waiting _ -> false)
    state.nodes
  && Shasta_network.Network.in_flight state.net = 0

(* Run the scheduler until [finished].  Each event goes to the node
   with the earliest next-event time, ties to the lowest id; a tree
   over the nodes' event times ([Mintree]) picks it.

   Invariant that keeps the tree's keys current: an event changes the
   event time of the node that ran it and of the destinations of its
   sends (the network marks every destination whose earliest arrival
   moved, [Network.pop_moved]), and of no other node — a node's status
   and clock change only in its own handlers, and the steps a running
   node takes on another's behalf ([I_alloc] at the allocator,
   [I_set_home] at n0) emit no actions.  A fired fault may change any
   node (crash, coordinator recovery work, the wire purge), so it
   re-keys them all.

   A node with an event means the run is not finished, so [finished]
   is tested only when no node has one. *)
let run_until_done ?(max_events = 2_000_000_000) (state : State.t) =
  let tree = Mintree.create (Array.length state.nodes) in
  let rekey i = Mintree.update tree i (next_event_time state state.nodes.(i)) in
  let rec rekey_moved () =
    let dst = Shasta_network.Network.pop_moved state.net in
    if dst >= 0 then begin
      rekey dst;
      rekey_moved ()
    end
  in
  let rekey_all () =
    rekey_moved ();
    Array.iteri (fun i _ -> rekey i) state.nodes
  in
  rekey_all ();
  let rec loop events =
    let best = Mintree.winner tree in
    let best_t = Mintree.key tree best in
    if best_t < max_int || not (finished state) then begin
      if events > max_events then deadlock state "event budget exhausted: ";
      (* a scheduled fault fires once simulated time reaches it — i.e.
         no node has an earlier event.  Firing with no node event at
         all matters: before a crash is detected, every live node may
         be blocked on the victim with nothing in flight; that is the
         detector's cue, not a deadlock. *)
      let nft = next_fault_time state in
      if nft < max_int && nft <= best_t then begin
        match state.fault_queue with
        | [] -> assert false
        | entry :: rest ->
          state.fault_queue <- rest;
          fire_fault state entry;
          rekey_all ()
      end
      else if best_t = max_int then deadlock state ""
      else begin
        let node = state.nodes.(best) in
        (match node.status with
         | Node.Running -> ignore (Exec.run state node ~fuel:400)
         | Node.Crashed -> assert false (* never the earliest event *)
         | Node.Waiting _ | Node.Finished ->
           if not (Engine.deliver_next state node) then
             deadlock state
               (Printf.sprintf "waiting node n%d has no incoming messages: "
                  node.id));
        rekey best;
        rekey_moved ()
      end;
      loop (events + 1)
    end
  in
  loop 1

let snapshot_counters (n : Node.t) =
  { n.counters with insns = n.counters.insns }

let diff_counters (a : Node.counters) (b : Node.counters) : Node.counters =
  { insns = b.insns - a.insns;
    polls = b.polls - a.polls;
    stall_cycles = b.stall_cycles - a.stall_cycles;
    dyn_loads = b.dyn_loads - a.dyn_loads;
    dyn_loads_shared = b.dyn_loads_shared - a.dyn_loads_shared;
    dyn_stores = b.dyn_stores - a.dyn_stores;
    dyn_stores_shared = b.dyn_stores_shared - a.dyn_stores_shared }

(* Run [init_proc] on node 0 (others idle), copy the static area to all
   nodes (process creation), then run [work_proc] everywhere and time
   it.  [perf] (when given) charges host time to the "load" phase (the
   sequential init run plus the process-creation copy) and the "run"
   phase (the timed parallel execution). *)
let run_app ?(init_proc = "appinit") ?(work_proc = "work") ?perf
    (state : State.t) =
  let ph name f =
    match perf with
    | Some p -> Shasta_obs.Perf.phase p name f
    | None -> f ()
  in
  let nodes = state.nodes in
  ph "load" (fun () ->
    (* --- initialization phase on node 0 --- *)
    (if Hashtbl.mem state.image.index init_proc then begin
       Array.iter (fun (n : Node.t) -> n.status <- Node.Finished) nodes;
       reset_node_for state nodes.(0) ~proc:init_proc;
       run_until_done state
     end);
    (* --- process creation: copy static data to every node --- *)
    let n0 = nodes.(0) in
    Array.iter
      (fun (n : Node.t) ->
        if n.id <> 0 then
          Memory.copy_pages ~src:n0.mem ~dst:n.mem
            ~addr:Shasta.Layout.static_base
            ~len:(Shasta.Layout.static_limit - Shasta.Layout.static_base))
      nodes;
    (* the copy clobbered the per-node pid cells; restore them *)
    Array.iter
      (fun (n : Node.t) -> Memory.write_quad n.mem state.pid_addr n.id)
      nodes);
  (* --- parallel phase --- *)
  let t0 =
    Array.fold_left (fun a (n : Node.t) -> max a (Node.time n)) 0 nodes
  in
  Array.iter
    (fun (n : Node.t) ->
      Pipeline.advance_to n.pipe t0;
      reset_node_for state n ~proc:work_proc)
    nodes;
  (* arm the crash schedule: spec cycles are parallel-phase relative,
     the queue holds absolute times.  With no events (or no spec) the
     queue stays empty and the scheduler never looks at the clock — the
     run is byte-identical to one without the layer. *)
  (match state.config.node_faults with
   | Some spec when not (Nodefaults.is_off spec) ->
     let spec = Nodefaults.resolve spec ~nprocs:state.config.nprocs in
     List.iter
       (fun (e : Nodefaults.event) ->
         if e.node < 0 || e.node >= state.config.nprocs then
           invalid_arg
             (Printf.sprintf "node-faults: node %d out of range" e.node))
       spec.events;
     state.fault_queue <-
       List.map (fun (e : Nodefaults.event) -> (t0 + e.at, e)) spec.events
   | _ -> state.fault_queue <- []);
  let before = Array.map snapshot_counters nodes in
  let sent0, pay0 = Shasta_network.Network.stats state.net in
  let metrics0 = Shasta_obs.Metrics.copy (Obs.metrics state.config.obs) in
  ph "run" (fun () -> run_until_done state);
  ph "drain" (fun () ->
    let t1 =
      Array.fold_left (fun a (n : Node.t) -> max a (Node.time n)) 0 nodes
    in
    let sent1, pay1 = Shasta_network.Network.stats state.net in
    { wall_cycles = t1 - t0;
      per_node_cycles = Array.map (fun (n : Node.t) -> Node.time n - t0) nodes;
      counters =
        Array.mapi (fun i (n : Node.t) -> diff_counters before.(i) n.counters)
          nodes;
      output = Buffer.contents state.output;
      msgs_sent = sent1 - sent0;
      payload_longs = pay1 - pay0;
      metrics =
        Shasta_obs.Metrics.sub (Obs.metrics state.config.obs) metrics0 })
