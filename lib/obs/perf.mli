(** Host-side performance counters: monotonic wall time and its
    per-phase breakdown (compile / load / run / drain) — the simulator
    measuring itself rather than the simulated machine. *)

type t

type report = {
  wall_s : float;  (** total wall seconds from [create] to [report] *)
  phases : (string * float) list;
      (** seconds charged per phase, in first-use order *)
}

val monotonic_clock : unit -> float
(** Monotonic seconds (bechamel's clock). *)

val create : ?clock:(unit -> float) -> unit -> t
(** Start a measurement.  [clock] (default {!monotonic_clock}) is
    injectable for deterministic tests. *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** Time the closure and charge it to the named phase bucket;
    re-entering a name accumulates.  Exceptions propagate, the time
    still lands in the bucket. *)

val add_phase : t -> string -> float -> unit
(** Charge seconds to a bucket directly (for regions not expressible
    as a closure). *)

val report : t -> report
