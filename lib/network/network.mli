(** Cluster interconnect: per-(src,dst) FIFO channels — the paper's
    protocol "depends on point-to-point order for messages sent between
    any two nodes" — with a configurable cost model in processor
    cycles.

    Every send plans its frame's arrival time and clamps it to the
    channel's previous delivery.  The wire may optionally be made
    unreliable ([faults]): seeded, per-channel deterministic drop and
    delay, with the arrival planned by sender-side retransmission with
    timeout and exponential backoff ({!tx_plan}).  The protocol above
    still observes exactly-once per-channel-FIFO delivery; drops and
    delays cost retransmission stalls, which the fault tap reports.
    The wire keeps no fault tally of its own: the tap's listener (the
    observability registry) is the one count. *)

type profile = {
  net_name : string;
  send_overhead : int;  (** cycles spent by the sending CPU *)
  recv_overhead : int;  (** cycles spent by the receiver per message *)
  wire_latency : int;
  per_longword : int;
}

val memory_channel : profile
(** Digital's Memory Channel: a few microseconds end to end. *)

val atm : profile
(** The ATM cluster: an order of magnitude slower. *)

val ideal : profile
val profile_of_string : string -> profile

(** {2 Fault model} *)

type faults = {
  fseed : int;  (** per-channel RNG seed component *)
  drop : float;  (** per-transmission-attempt loss probability *)
  delay : float;  (** probability of [delay_cycles] extra flight time *)
  delay_cycles : int;
  rto : int;  (** base retransmission timeout; 0 derives it from the profile *)
}

val no_faults : faults
(** All probabilities zero; a wire with [Some no_faults] behaves like a
    reliable one (timing included). *)

val standard : faults
(** The standard fault matrix: drop 1%. *)

val faults_of_string : string -> faults option
(** ["none"], ["standard"], or a comma-separated [key=value] spec with
    keys [drop], [delay], [delay-cycles], [seed], [rto], [max-retx].
    Raises [Invalid_argument], naming the key, on a malformed spec, an
    unknown key or a value out of range: probabilities must be finite
    and in [0, 0.9], [delay-cycles] and [rto] non-negative, and
    [max-retx] 0: the wire retries a frame until a copy survives,
    because a bounded channel would abandon frames that nothing re-sends
    and deadlock the run. *)

val describe_faults : faults -> string

type xmit = {
  retx : int;  (** dropped transmission attempts, each retransmitted *)
  backoff : int;  (** total cycles spent waiting for timeouts *)
}
(** What the fault layer did to one logical send. *)

val max_attempts : int

val tx_plan :
  faults -> Random.State.t -> now:int -> flight:int -> rto:int -> int * xmit
(** Plan one frame's transmission over the faulty wire: returns the
    arrival time of the first surviving copy and the fault summary.
    Deterministic in the RNG state.  There are at most [max_attempts]
    tries, the last of which always survives. *)

(** {2 The interconnect} *)

type 'a t

val create : ?faults:faults -> nprocs:int -> profile -> 'a t
(** Without [?faults] the wire is the paper's reliable interconnect and
    holds no fault state. *)

val set_taps :
  'a t ->
  on_send:(src:int -> dst:int -> now:int -> 'a -> unit) ->
  on_recv:(src:int -> dst:int -> now:int -> 'a -> unit) ->
  unit
(** Install observability taps: [on_send] fires on every queued
    message at the sender's time, [on_recv] on every delivery at
    arrival time.  The cluster points these at the observability
    subsystem; the default taps do nothing. *)

val set_fault_tap :
  'a t ->
  on_fault:(src:int -> dst:int -> now:int -> xmit -> 'a -> unit) ->
  unit
(** [on_fault] fires at send time whenever the fault layer dropped
    (and retransmitted) an attempt of a frame. *)

val send : 'a t -> src:int -> dst:int -> now:int -> payload_longs:int ->
  'a -> int
(** Queue a message; returns the time at which the sender is done (the
    caller charges it to the sending node).  Each channel delivers in
    send order, faults or not.  Every frame is queued, whatever its
    destination: the wire does not know which nodes are dead. *)

val next_arrival : 'a t -> dst:int -> int
(** Earliest arrival time among the frames queued for [dst], [max_int]
    when none: a per-destination value kept at push, pop and
    {!mark_dead}, read in O(1). *)

val pop_moved : 'a t -> int
(** One destination whose {!next_arrival} changed since it was last
    popped, or [-1] when there is none.  Each destination is held at
    most once; marking and popping never allocate.  The scheduler
    re-keys exactly these nodes. *)

val recv : 'a t -> dst:int -> now:int -> (int * 'a) option
(** Earliest already-arrived message for [dst], with its arrival time;
    answers at once when nothing for [dst] has arrived by [now]. *)

val pending_for : 'a t -> dst:int -> int
(** Frames queued for [dst]: a per-destination count kept at push, pop
    and {!mark_dead}, read in O(1). *)

val in_flight : 'a t -> int
(** Frames queued anywhere, in O(P). *)

val queued : 'a t -> (int * int * int * 'a) list
(** Every queued frame as [(src, dst, arrival, msg)], channel by
    channel.  A brute-force O(P²) scan, for checks. *)

val stats : 'a t -> int * int
(** (messages sent, payload longwords) since creation. *)

(** {2 Node-level liveness} *)

val last_activity : 'a t -> node:int -> int
(** Last cycle at which [node] put a frame on the wire — the implicit
    (piggybacked) heartbeat stream the crash detector watches. *)

val mark_dead : 'a t -> node:int -> (int * int * 'a) list
(** Purge a crashed [node] off the wire.  Every frame still queued to
    or from it is removed and returned as [(src, dst, msg)] in global
    send order (deterministic, so recovery handling replays), and the
    FIFO points of the purged channels are reset.  Nothing else is
    recorded: which nodes are dead is the protocol's fact, and a later
    frame addressed to [node] is queued like any other. *)
