(** Structured observability: typed event tracing plus a metrics
    registry, reported into by every layer of the runtime.

    Create one [t] per simulated cluster (the [State.config] carries
    it), attach zero or more sinks, and read the registry after the
    run.  With no sinks attached, [emit] only bumps registry counters
    — cheap enough to leave on unconditionally.

    One map, inside [emit], takes each {!Event.t} constructor to the
    registry cells it bumps; the protocol core's events arrive through
    [emit] as the core built them.  [count_send], [count_recv] and
    [count_stall] are that map's arms for the three events the runtime
    would otherwise build only to count. *)

module Event = Event
module Metrics = Metrics
module Sink = Sink
module Profile = Profile
module Perf = Perf
module Benchjson = Benchjson

type t

val create : nprocs:int -> unit -> t

val metrics : t -> Metrics.t

val attach : t -> Sink.t -> unit
(** Add a sink; events are fanned out to all attached sinks in
    attachment order. *)

val attach_profiler : t -> Profile.t -> unit
(** Feed every emitted record to [p] (at most one profiler). *)

val profiler : t -> Profile.t option

val recording : t -> bool
(** [true] when a sink or a profiler is attached, i.e. when an emitted
    record is seen by more than the registry.  Emit sites build the
    {!Event.site} only then. *)

val flush : t -> unit
(** Drain the profiler's matched spans into the sinks, then finalize
    every sink (e.g. close the Chrome JSON array).  Idempotent. *)

val emit : t -> ?site:Event.site -> node:int -> time:int -> Event.t -> unit
(** Record one event: folded into the registry, then streamed to the
    profiler and sinks (if any).  [site] attributes the event to the
    emitting node's current code location. *)

val count_send : t -> node:int -> longs:int -> unit
(** Count one network send of [longs] payload longwords, exactly as
    emitting an {!Event.Msg_send} would, without building the event:
    the network tap's path when nothing is {!recording}. *)

val count_recv : t -> node:int -> unit
(** Count one network delivery, as an {!Event.Msg_recv} would. *)

val count_stall :
  t -> node:int -> Event.stall_reason -> cycles:int -> unit
(** Count one stall of [cycles], as an {!Event.Stall} would. *)

val counter : t -> string -> Metrics.counter
(** Resolve a registry counter once, for a hot path with no event. *)

val incr : Metrics.counter -> node:int -> unit
(** Bump a resolved counter: an array update, no name lookup. *)

val observe : Metrics.histogram -> node:int -> int -> unit
(** Observe into a resolved histogram. *)

val polls : t -> Metrics.counter
val msg_local : t -> Metrics.counter
val fanout : t -> Metrics.histogram
(** The resolved cells of {!c_polls}, {!c_msg_local} and {!h_fanout},
    which the engine bumps directly. *)

(** Registry metric names used by the runtime's emit points. *)

val c_msg_sent : string
val c_msg_recv : string

val c_msg_local : string
(** Same-node deliveries taken by the engine's local fast path, which
    bypasses the network send/recv taps. *)

val c_miss_read : string
val c_miss_write : string
val c_miss_upgrade : string
val c_miss_false : string
val c_miss_batch : string
val c_invals : string
val c_downgrades : string
val c_store_reissues : string
val c_stalls : string
val c_locks : string
val c_barriers : string
val c_flag_sets : string
val c_flag_wakes : string
val c_polls : string
val c_finished : string
val c_spans : string

val c_net_retx : string
(** Transmission attempts lost by the faulty wire, each retransmitted. *)

val c_net_backoff : string
(** Total cycles spent waiting out retransmission timeouts. *)

val c_node_crash : string
(** Nodes halted by the crash injector. *)

val c_node_recover : string
(** Crashed nodes brought back (protocol duties only). *)

val c_lease_takeover : string
(** Lock/flag leases reclaimed from dead holders. *)

val c_dir_rebuild : string
(** Directory entries reconstructed after a crash. *)

val h_payload : string
val h_stall : string
val h_miss_latency : string

val h_fanout : string
(** Sharers invalidated per directory-driven invalidation run — the
    distribution that separates directory organizations. *)
