(** Versioned BENCH_*.json records: the one schema every benchmark
    artifact in the repo is written in and parsed from.

    Files are JSON Lines — one record per line — so emitters can
    append section by section.  A record holds only simulated metrics
    (sim_cycles, messages, misses and the per-workload [extra] fields):
    it is a pure function of the simulated run, and the gate compares
    every metric on exact equality. *)

(** Extra metrics keep their JSON numeric kind so emit/parse
    round-trips byte-identically. *)
type num = Int of int | Float of float

type t = {
  schema : int;
  workload : string;
  nprocs : int;
  line : int;
  opts : string;
  sim_cycles : int;
  messages : int;
  misses : int;
  extra : (string * num) list;
}

val schema_version : int

val make :
  workload:string ->
  nprocs:int ->
  ?line:int ->
  ?opts:string ->
  sim_cycles:int ->
  ?messages:int ->
  ?misses:int ->
  ?extra:(string * num) list ->
  unit ->
  t

val key : t -> string * int * int * string
(** Identity of a record: [(workload, nprocs, line, opts)].  Baseline
    and candidate records are matched on it. *)

val key_str : t -> string

val float_str : float -> string
(** Shortest decimal rendering that round-trips exactly. *)

val num_str : num -> string

val emit : t -> string
(** One record as a single JSON object line (no trailing newline).
    Keys are formatted as ["key": value] with a space after the colon,
    which CI greps rely on. *)

val parse : string -> t
(** Parse one record line: a flat JSON object whose values are strings
    or numbers.  @raise Failure on malformed input or a schema version
    other than {!schema_version}. *)

val load_string : string -> t list
(** Parse a whole BENCH file (JSON Lines; blank lines are ignored). *)

val load_file : string -> t list

(** {2 Regression gate} *)

type status = Ok | Regression | Missing | New

type check = {
  c_key : string;
  c_metric : string;
  c_base : num option;
  c_cand : num option;
  c_ok : bool;
  c_status : status;
  c_note : string;
}

val gate : baseline:t list -> candidate:t list -> check list * bool
(** Compare candidate records against baseline records: every metric
    must match exactly.  A baseline record or metric absent from the
    candidate fails; a candidate-only record or metric is reported
    [New] and passes.  Returns all checks and whether the gate
    passes. *)

val status_str : status -> string
