(** Node crash/recovery schedules (shasta_run --node-faults): a
    deterministic timetable of halt/restart events plus the liveness
    lease horizon the cluster uses to derive detection times. *)

type what =
  | Crash
  | Recover
  | Detect
      (** internal: inserted by the scheduler at the liveness lease
          expiry after a crash fires; never produced by {!of_string} *)

type event = { at : int; node : int; what : what }
(** [at] is a parallel-phase cycle; [node] may be negative inside an
    unresolved spec (a [crash=*@T] wildcard) until {!resolve}. *)

type t = {
  events : event list;  (** sorted by [at] *)
  lease : int;  (** liveness lease horizon in cycles *)
  seed : int;
}

val default_lease : int
val empty : t

val is_off : t -> bool
(** No scheduled events: the cluster must behave byte-identically to a
    run without --node-faults. *)

val of_string : string -> t option
(** ["none"] is [None]; otherwise a comma-separated spec with keys
    [crash=NODE@CYCLE], [recover=NODE@CYCLE], [lease=CYCLES] and
    [seed=S].  [NODE] may be [*] (seeded victim pick, resolved by
    {!resolve}).  Raises [Invalid_argument] naming the offending entry
    on a malformed spec. *)

val resolve : t -> nprocs:int -> t
(** Bind wildcard victims to concrete nodes (never node 0). *)

val describe : t -> string
