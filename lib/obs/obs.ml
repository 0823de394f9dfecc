(* Observability facade: one value the whole runtime reports into.

   [emit] is the single entry point: it folds the event into the
   metrics registry (always on — plain integer bumps) and fans it out
   to the attached sinks (none attached means no work beyond the
   registry update).  Hot paths that only need a counter and have no
   event worth streaming use [incr]/[observe] directly, on cells
   resolved once. *)

module Event = Event
module Metrics = Metrics
module Sink = Sink
module Profile = Profile
module Perf = Perf
module Benchjson = Benchjson

(* Counter names, fixed here so that every layer and every consumer
   (CLI tables, bench, tests) agrees on them. *)
let c_msg_sent = "msg.sent"
let c_msg_recv = "msg.recv"

(* Same-node deliveries: the engine's local fast path never reaches the
   network taps, so without this counter local protocol traffic would be
   invisible in the registry. *)
let c_msg_local = "msg.local"
let c_miss_read = "miss.read"
let c_miss_write = "miss.write"
let c_miss_upgrade = "miss.upgrade"
let c_miss_false = "miss.false"
let c_miss_batch = "miss.batch"
let c_invals = "protocol.invalidations"
let c_downgrades = "protocol.downgrades"
let c_store_reissues = "protocol.store_reissues"
let c_stalls = "stall.count"
let c_locks = "sync.lock_acquires"
let c_barriers = "sync.barriers"
let c_flag_sets = "sync.flag_sets"
let c_flag_wakes = "sync.flag_wakes"
let c_polls = "runtime.polls"
let c_finished = "runtime.threads_finished"
let c_spans = "span.matched"

(* Fault-layer activity under --net-faults: dropped transmission
   attempts (each one retransmitted) and total cycles spent waiting out
   retransmission timeouts.  The wire keeps no tally of its own: these
   are the one count. *)
let c_net_retx = "net.retx"
let c_net_backoff = "net.backoff_cycles"

(* Node-level fault tolerance under --node-faults: injected halts and
   restarts, lock/flag leases reclaimed from dead holders, and
   directory entries reconstructed from surviving sharer state.  The
   takeover/rebuild counters are the measurable cost of one recovery. *)
let c_node_crash = "node.crash"
let c_node_recover = "node.recover"
let c_lease_takeover = "lease.takeover"
let c_dir_rebuild = "dir.rebuild"

let h_payload = "msg.payload_longs"
let h_stall = "stall.cycles"
let h_miss_latency = "miss.latency_cycles"

(* Invalidation fan-out: sharers invalidated per directory-driven
   invalidation run — the distribution that separates the directory
   organizations (an overflowed broadcast fans wider than full-map). *)
let h_fanout = "dir.fanout"

(* Registry cells resolved once, at [create]: the per-event path bumps
   an array slot instead of hashing a counter name. *)
type cells = {
  msg_sent : Metrics.counter;
  msg_recv : Metrics.counter;
  msg_local : Metrics.counter;
  miss_read : Metrics.counter;
  miss_write : Metrics.counter;
  miss_upgrade : Metrics.counter;
  miss_false : Metrics.counter;
  miss_batch : Metrics.counter;
  invals : Metrics.counter;
  downgrades : Metrics.counter;
  store_reissues : Metrics.counter;
  stalls : Metrics.counter;
  locks : Metrics.counter;
  barriers : Metrics.counter;
  flag_sets : Metrics.counter;
  flag_wakes : Metrics.counter;
  polls : Metrics.counter;
  finished : Metrics.counter;
  spans : Metrics.counter;
  net_retx : Metrics.counter;
  net_backoff : Metrics.counter;
  node_crash : Metrics.counter;
  node_recover : Metrics.counter;
  lease_takeover : Metrics.counter;
  dir_rebuild : Metrics.counter;
  payload : Metrics.histogram;
  stall : Metrics.histogram;
  miss_latency : Metrics.histogram;
  fanout : Metrics.histogram;
}

type t = {
  metrics : Metrics.t;
  cells : cells;
  mutable sinks : Sink.t list;
  mutable profiler : Profile.t option;
}

let create ~nprocs () =
  let m = Metrics.create ~nprocs in
  let c = Metrics.counter_handle m and h = Metrics.hist_handle m in
  let cells =
    { msg_sent = c c_msg_sent; msg_recv = c c_msg_recv;
      msg_local = c c_msg_local; miss_read = c c_miss_read;
      miss_write = c c_miss_write; miss_upgrade = c c_miss_upgrade;
      miss_false = c c_miss_false; miss_batch = c c_miss_batch;
      invals = c c_invals; downgrades = c c_downgrades;
      store_reissues = c c_store_reissues; stalls = c c_stalls;
      locks = c c_locks; barriers = c c_barriers; flag_sets = c c_flag_sets;
      flag_wakes = c c_flag_wakes; polls = c c_polls;
      finished = c c_finished; spans = c c_spans; net_retx = c c_net_retx;
      net_backoff = c c_net_backoff; node_crash = c c_node_crash;
      node_recover = c c_node_recover; lease_takeover = c c_lease_takeover;
      dir_rebuild = c c_dir_rebuild;
      payload = h h_payload; stall = h h_stall;
      miss_latency = h h_miss_latency; fanout = h h_fanout }
  in
  { metrics = m; cells; sinks = []; profiler = None }

let metrics t = t.metrics

let attach t sink = t.sinks <- t.sinks @ [ sink ]

let attach_profiler t p = t.profiler <- Some p

let profiler t = t.profiler

let recording t = t.sinks <> [] || t.profiler <> None

let flush t =
  (* drain the profiler's matched transactions into the sinks first, so
     a Chrome trace gets its async span tracks before the array closes;
     [Profile.drain_spans] is one-shot, so repeated flushes (which the
     sinks themselves also tolerate) add nothing twice *)
  (match t.profiler with
   | Some p when t.sinks <> [] ->
     List.iter
       (fun r -> List.iter (fun (s : Sink.t) -> s.on_record r) t.sinks)
       (Profile.drain_spans p)
   | _ -> ());
  List.iter Sink.flush t.sinks

let incr c ~node = Metrics.bump c ~node 1
let observe h ~node v = Metrics.observe_handle h ~node v

let count_send t ~node ~longs =
  incr t.cells.msg_sent ~node;
  observe t.cells.payload ~node longs

let count_recv t ~node = incr t.cells.msg_recv ~node

let count_stall t ~node (reason : Event.stall_reason) ~cycles =
  let c = t.cells in
  incr c.stalls ~node;
  observe c.stall ~node cycles;
  if reason = Wait_miss then observe c.miss_latency ~node cycles

(* The one map from an event to the registry cells it bumps. *)
let count_event t ~node (ev : Event.t) =
  let c = t.cells in
  match ev with
  | Msg_send { longs; _ } -> count_send t ~node ~longs
  | Msg_recv _ -> count_recv t ~node
  | Miss { kind = Read; _ } -> incr c.miss_read ~node
  | Miss { kind = Write; _ } -> incr c.miss_write ~node
  | Miss { kind = Upgrade; _ } -> incr c.miss_upgrade ~node
  | False_miss _ -> incr c.miss_false ~node
  | Invalidated _ -> incr c.invals ~node
  | Downgraded _ -> incr c.downgrades ~node
  | Stall { reason; cycles; _ } -> count_stall t ~node reason ~cycles
  | Lock_acquired _ -> incr c.locks ~node
  | Barrier_passed -> incr c.barriers ~node
  | Flag_raised _ -> incr c.flag_sets ~node
  | Flag_woken _ -> incr c.flag_wakes ~node
  | Batch_run _ -> incr c.miss_batch ~node
  | Store_reissue _ -> incr c.store_reissues ~node
  | Node_finished -> incr c.finished ~node
  | Span _ -> incr c.spans ~node
  | Net_fault { retx; backoff; _ } ->
    if retx > 0 then begin
      Metrics.bump c.net_retx ~node retx;
      Metrics.bump c.net_backoff ~node backoff
    end
  | Node_crash _ -> incr c.node_crash ~node
  | Node_recover _ -> incr c.node_recover ~node
  | Lease_takeover _ -> incr c.lease_takeover ~node
  | Dir_rebuild _ -> incr c.dir_rebuild ~node

let emit t ?site ~node ~time ev =
  count_event t ~node ev;
  match (t.sinks, t.profiler) with
  | [], None -> ()
  | sinks, profiler ->
    let r = { Event.node; time; ev; site } in
    (match profiler with Some p -> Profile.feed p r | None -> ());
    List.iter (fun (s : Sink.t) -> s.on_record r) sinks

let counter t name = Metrics.counter_handle t.metrics name
let polls t = t.cells.polls
let msg_local t = t.cells.msg_local
let fanout t = t.cells.fanout
