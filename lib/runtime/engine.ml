(* The protocol engine as a thin interpreter over the pure transition
   core ([Shasta_protocol.Transitions]).

   All protocol DECISIONS — directory updates, lockup-free pending
   states, dirty sharing, piggybacked invalidation acks, deferred
   batched invalidations, sync objects (Sections 2.1 and 4 of the
   paper) — are made by [Transitions.step] over the immutable view in
   [state.proto].  This module:

   - turns machine observations into step inputs (miss addresses,
     drained network messages, batched access lists with their
     historical iteration orders, store values the core cannot read
     itself) — the core reads line states from its own view;
   - steps the core through the node's [Transitions.stepper], a step
     context built once per node ([attach]), and applies each action
     IN ORDER, as the stepper streams it into the node's [sink], against
     Pipeline/Network/Memory/Tables and the observability subsystem,
     which reproduces the old monolithic engine's effect order — and
     therefore its event stream and cycle counts — exactly.  No action
     list and no step context is built per step.  The core's events are
     already [Shasta_obs.Event.t] values and go to [Obs.emit] as they
     are; the record around one is built only when a sink or profiler
     will read it, otherwise the event is one registry bump;
   - records every (node, input) pair when [state.record_inputs] is
     set, enabling deterministic replay through the pure core alone.

   Every step runs to completion: the interpreter never re-enters the
   core from inside an action. *)

open Shasta_machine
open Shasta_protocol
module Obs = Shasta_obs.Obs
module Ev = Shasta_obs.Event
module T = Transitions

let ls state = state.State.config.line_shift

(* Report a typed event at the node's current simulated time, attributed
   to the node's current code site.  The interpreter bumps [pc_idx]
   before dispatching into the engine, so [pc_idx - 1] is the
   miss-check pseudo-instruction (or Batch_end / Rt_call) that caused
   the event; a blocked node's pc does not move, so the stall emitted at
   wake-up lands on the same site as its miss.  [call_stack] is an
   immutable list — aliasing it costs nothing.  The site is built only
   when a sink or profiler will see the record; otherwise the event only
   bumps the registry. *)
let emit_at obs (node : Node.t) ~time ev =
  let site =
    if Obs.recording obs then
      Some
        { Ev.sproc = node.pc_proc;
          spc = (if node.pc_idx > 0 then node.pc_idx - 1 else 0);
          sstack = node.call_stack }
    else None
  in
  Obs.emit obs ?site ~node:node.id ~time ev

let emit state (node : Node.t) ev =
  emit_at state.State.config.obs node ~time:(Pipeline.cycle node.pipe) ev

let block_of state addr = Granularity.block_base state.State.gran addr
let block_len state block = Granularity.block_bytes_at state.State.gran block

let charge (node : Node.t) cycles = Pipeline.stall node.pipe cycles

(* ------------------------------------------------------------------ *)
(* Input construction helpers                                           *)
(* ------------------------------------------------------------------ *)

(* The longwords [addr, addr+bytes) covers, with their current memory
   values (the store has already executed). *)
let longword_cover (node : Node.t) ~addr ~bytes =
  let first = addr land lnot 3 in
  let n = (addr + bytes - 1 - first) / 4 in
  let rec go k acc =
    if k < 0 then acc
    else
      let a = first + (4 * k) in
      go (k - 1) ((a, Memory.read_long_u node.mem a) :: acc)
  in
  go n []

(* ------------------------------------------------------------------ *)
(* Action application                                                   *)
(* ------------------------------------------------------------------ *)

let cost_cycles (c : T.cost) =
  let costs = Costs.default in
  match c with
  | T.Request_issue -> costs.request_issue
  | T.Message_handle -> costs.message_handle
  | T.Sync_local -> costs.sync_local
  | T.False_miss -> costs.false_miss
  | T.Batch_record n -> costs.batch_record * n

(* Data replies leave the core with an empty payload: read the block out
   of this node's memory at apply time.  No memory action can intervene
   between the core's send point and this apply point, so the data is
   exactly what the old engine read inline. *)
let fill_data state (node : Node.t) (msg : Message.t) =
  match msg.kind with
  | Message.Coh (Data_reply { data; exclusive; acks })
    when Array.length data = 0 ->
    let data =
      Tables.read_block node ~addr:msg.addr ~len:(block_len state msg.addr)
    in
    { msg with Message.kind = Message.Coh (Data_reply { data; exclusive; acks }) }
  | _ -> msg

let stall_reason = function
  | T.W_blocks _ -> Ev.Wait_miss
  | T.W_release -> Ev.Wait_release
  | T.W_sync -> Ev.Wait_sync

let rec apply state (node : Node.t) (a : T.action) =
  let obs = state.State.config.obs in
  match a with
  | T.A_charge c -> charge node (cost_cycles c)
  | T.A_emit e -> emit state node e
  | T.A_send { dst; msg } ->
    let msg = fill_data state node msg in
    (* the network's send tap reports the message to the observability
       subsystem *)
    let now = Pipeline.cycle node.pipe in
    let done_at =
      Shasta_network.Network.send state.State.net ~src:node.id ~dst ~now
        ~payload_longs:(Message.payload_longs msg)
        msg
    in
    charge node (done_at - now)
  | T.A_local _ ->
    (* local delivery: the core charged the handler cost and handled the
       message inline; it never reaches the network taps, so count it
       here *)
    Obs.incr (Obs.msg_local obs) ~node:node.id
  | T.A_mem op -> apply_mem state node op
  | T.A_block w ->
    node.status <- Waiting w;
    node.wait_started <- Pipeline.cycle node.pipe
  | T.A_stall w ->
    let stalled = Pipeline.cycle node.pipe - node.wait_started in
    node.counters.stall_cycles <- node.counters.stall_cycles + stalled;
    if Obs.recording obs then
      emit state node
        (Ev.Stall
           { reason = stall_reason w;
             started = node.wait_started;
             cycles = stalled })
    else Obs.count_stall obs ~node:node.id (stall_reason w) ~cycles:stalled;
    node.status <- Running
  | T.A_refill -> node.refill ()
  | T.A_commit_store ->
    node.commit_store ();
    node.commit_store <- (fun () -> ())

and apply_mem state (node : Node.t) (op : T.memop) =
  match op with
  | T.M_make_exclusive b ->
    Tables.make_exclusive node ~ls:(ls state) ~addr:b ~len:(block_len state b)
  | T.M_make_shared b ->
    Tables.make_shared node ~ls:(ls state) ~addr:b ~len:(block_len state b)
  | T.M_make_invalid b ->
    Tables.make_invalid node ~ls:(ls state) ~addr:b ~len:(block_len state b)
  | T.M_make_pending { block; shared } ->
    Tables.make_pending node ~ls:(ls state) ~addr:block
      ~len:(block_len state block) ~shared
  | T.M_flag { block; keep } ->
    Tables.flag_range node ~keep ~addr:block ~len:(block_len state block)
  | T.M_merge { block; written } ->
    (* merge the triggering reply's longwords, overlaying the node's own
       pending stores.  The reply data is consumed at most once per
       step; a locally served reply (same-node owner) falls back to the
       node's own memory, which is what the local owner path read. *)
    let data =
      match node.reply_data with
      | Some d ->
        node.reply_data <- None;
        d
      | None -> Tables.read_block node ~addr:block ~len:(block_len state block)
    in
    Tables.merge_block_data node ~addr:block ~written data
  | T.M_adopt { block; from } ->
    (* crash salvage: copy the block's bytes out of the dead node's
       frozen memory image (its pipeline never runs again, so the image
       is stable); a pure byte copy — no state-table change *)
    let victim = state.State.nodes.(from) in
    let len = block_len state block in
    let data = Tables.read_block victim ~addr:block ~len in
    Memory.blit_in node.mem ~addr:block data;
    Cache.dinvalidate node.caches ~addr:block ~len

(* A maximal run of invalidation sends — the home's fan-out for one
   request over the sharer set — goes out back to back, each send
   starting where the previous one left the sender, with nothing
   charged in between.  [flush] charges the whole run once and feeds
   the dir.fanout histogram its width, at the first action after the
   run or at the end of the step. *)
let flush state (node : Node.t) =
  if node.fan_n > 0 then begin
    charge node (node.fan_done - Pipeline.cycle node.pipe);
    Obs.observe (Obs.fanout state.State.config.obs) ~node:node.id node.fan_n;
    node.fan_n <- 0
  end

let sink state (node : Node.t) (a : T.action) =
  match a with
  | T.A_send { dst; msg = { kind = Coh (Inv _); _ } as msg } ->
    let now =
      if node.fan_n = 0 then Pipeline.cycle node.pipe else node.fan_done
    in
    node.fan_done <-
      Shasta_network.Network.send state.State.net ~src:node.id ~dst ~now
        ~payload_longs:(Message.payload_longs msg)
        msg;
    node.fan_n <- node.fan_n + 1
  | a ->
    flush state node;
    apply state node a

(* Build every node's stepper, over its sink, once, when the cluster is
   created. *)
let attach state =
  Array.iter
    (fun (n : Node.t) ->
      n.stepper <- T.stepper state.State.tcfg ~node:n.id (sink state n))
    state.State.nodes

(* One protocol step: the node's stepper streams the core's actions into
   its sink, which applies each as it arrives.  No action reads
   [state.proto], so the view is stored once the step is done. *)
let step state (node : Node.t) (input : T.input) =
  if state.State.record_inputs then
    state.State.inputs_rev <- (node.id, input) :: state.State.inputs_rev;
  state.State.proto <- T.step_with node.stepper state.State.proto input;
  flush state node

(* ------------------------------------------------------------------ *)
(* Message delivery                                                     *)
(* ------------------------------------------------------------------ *)

let handle_msg state (node : Node.t) (msg : Message.t) =
  (match msg.kind with
   | Message.Coh (Data_reply { data; _ }) -> node.reply_data <- Some data
   | _ -> ());
  step state node (T.I_msg msg);
  node.reply_data <- None

(* Drain every message that has already arrived for [node]. *)
let rec drain state (node : Node.t) =
  let now = Pipeline.cycle node.pipe in
  match Shasta_network.Network.recv state.State.net ~dst:node.id ~now with
  | Some (_, msg) ->
    charge node state.State.config.net_profile.recv_overhead;
    handle_msg state node msg;
    drain state node
  | None -> ()

let enter_handler state (node : Node.t) =
  charge node Costs.default.handler_entry;
  drain state node

(* Deliver the next message even if it is in the future (used by the
   scheduler for blocked nodes). *)
let deliver_next state (node : Node.t) =
  let arrival =
    Shasta_network.Network.next_arrival state.State.net ~dst:node.id
  in
  if arrival = max_int then false
  else begin
    Pipeline.advance_to node.pipe arrival;
    (match
       Shasta_network.Network.recv state.State.net ~dst:node.id
         ~now:(Pipeline.cycle node.pipe)
     with
     | Some (_, msg) ->
       charge node state.State.config.net_profile.recv_overhead;
       handle_msg state node msg
     | None -> assert false);
    true
  end

(* ------------------------------------------------------------------ *)
(* Inline miss handlers (called from the interpreter pseudo-ops)        *)
(* ------------------------------------------------------------------ *)

(* Load miss: the flag matched (or the basic check failed).  False
   misses return immediately after the state lookup (Section 3.2). *)
let load_miss state (node : Node.t) ~addr ~refill =
  enter_handler state node;
  node.refill <- refill;
  step state node (T.I_load_miss { addr; block = block_of state addr })

(* Store miss.  With [store_done] (the scheduled check of Section 3.1),
   the store has already written memory and the handler is non-stalling
   under release consistency; without it, the handler stalls until the
   line is exclusive and the store executes afterwards. *)
let store_miss state (node : Node.t) ~addr ~bytes ~store_done =
  (* Messages drained below may invalidate the block and flag the
     just-stored longwords before the core records them, so capture the
     store's value now and re-apply it after the drain: the store is the
     newest write to these longwords. *)
  let saved =
    if store_done then
      Some (Memory.blit_out node.mem ~addr ~nlongs:(bytes / 4))
    else None
  in
  enter_handler state node;
  (match saved with
   | Some data ->
     Memory.blit_in node.mem ~addr data;
     Cache.dinvalidate node.caches ~addr ~len:bytes
   | None -> ());
  let block = block_of state addr in
  let stored =
    if store_done then longword_cover node ~addr ~bytes else []
  in
  step state node (T.I_store_miss { addr; block; store_done; stored })

(* Batch miss (Section 4.3): issue requests for every block the batch
   ranges touch, then wait for the read and read-exclusive replies only
   (not for invalidation acknowledgements). *)
let batch_miss state (node : Node.t) ~nranges ~accesses =
  enter_handler state node;
  node.in_batch <- true;
  node.batch_stores <-
    List.filter_map
      (fun (addr, bytes, is_store) ->
        if is_store then Some (addr, bytes) else None)
      accesses;
  (* per-block need: exclusive if any store touches the block.  The
     iteration order of this table is part of the engine's historical
     behavior, so it is passed to the core as part of the input. *)
  let blocks = Hashtbl.create 8 in
  List.iter
    (fun (addr, bytes, is_store) ->
      let rec cover a =
        if a < addr + bytes then begin
          let b = block_of state a in
          let prev =
            match Hashtbl.find_opt blocks b with Some s -> s | None -> false
          in
          Hashtbl.replace blocks b (prev || is_store);
          cover (b + block_len state b)
        end
      in
      cover addr)
    accesses;
  let rev = Hashtbl.fold (fun b excl acc -> (b, excl) :: acc) blocks [] in
  step state node (T.I_batch_miss { nranges; blocks = List.rev rev })

(* Batch end: transfer batched store locations into still-pending
   blocks, then apply deferred invalidations/downgrades with store
   reissue (Section 4.3). *)
let batch_end state (node : Node.t) =
  if node.in_batch then begin
    (* store values at batch end, tagged with their covering block *)
    let values =
      List.concat_map
        (fun (addr, bytes) ->
          List.map
            (fun (a, v) -> (a, block_of state a, v))
            (longword_cover node ~addr ~bytes))
        node.batch_stores
    in
    node.in_batch <- false;
    step state node (T.I_batch_end { values });
    node.batch_stores <- []
  end

(* Poll (Section 2.2): the inline three-instruction sequence; when the
   "message arrived" location is set, drain and handle. *)
let poll state (node : Node.t) =
  node.counters.polls <- node.counters.polls + 1;
  (* polls are far too frequent to stream as events; registry only *)
  Obs.incr (Obs.polls state.State.config.obs) ~node:node.id;
  charge node Costs.default.poll_cycles;
  drain state node

(* ------------------------------------------------------------------ *)
(* Synchronization entry points (Rt_call)                               *)
(* ------------------------------------------------------------------ *)

let rt_lock state (node : Node.t) id =
  enter_handler state node;
  step state node (T.I_lock id)

let rt_unlock state (node : Node.t) id =
  enter_handler state node;
  step state node (T.I_unlock id)

let rt_barrier state (node : Node.t) =
  enter_handler state node;
  step state node T.I_barrier

let rt_flag_set state (node : Node.t) id =
  enter_handler state node;
  step state node (T.I_flag_set id)

let rt_flag_wait state (node : Node.t) id =
  enter_handler state node;
  step state node (T.I_flag_wait id)

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

(* Register freshly allocated blocks with the directory inside the pure
   view, owned exclusively by [owner]. *)
let alloc_blocks state ~owner blocks =
  step state state.State.nodes.(owner) (T.I_alloc { owner; blocks })

(* Install a home-placement override in the pure view (first-touch
   allocation).  Fed through [step] like every other input so --replay
   reproduces placement decisions. *)
let set_home state ~page ~home =
  step state state.State.nodes.(0) (T.I_set_home { page; home })

(* ------------------------------------------------------------------ *)
(* Node fault injection (called by the cluster scheduler)               *)
(* ------------------------------------------------------------------ *)

(* The detected-crash step runs at the surviving coordinator: the pure
   core gets the victim's purged in-flight frames (global send order)
   and returns the recovery work — directory rebuilds, lease takeovers,
   salvage copies, re-sent replies — as the coordinator's own actions.
   Recorded like any other input, so --replay reproduces recovery. *)
let node_crash state (coord : Node.t) ~victim ~lost =
  step state coord (T.I_node_crash { victim; lost })

let node_recover state (node : Node.t) ~victim =
  step state node (T.I_node_recover victim)
