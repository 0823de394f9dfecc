(** End-of-run report of a {!Workload} drive program.

    [parse] turns the integer block printed by node 0 back into a
    structured report; latency percentiles come from the per-operation
    histogram through {!Shasta_obs.Metrics.percentile} (the same
    fixed-bucket machinery the profiler's span histograms use), and
    throughput is expressed in operations per million simulated cycles
    so that reports are byte-identical across runs of the same seed. *)

type t = {
  nprocs : int;
  nkeys : int;
  ops : int;
  load_ops : int;
  gets : int;
  puts : int;
  dels : int;
  scans : int;
  errors : int;  (** consistency violations observed by get/scan *)
  lat_sum : int;
  lat_max : int;
  hist : int array;  (** [Workload.nb_lat] latency buckets *)
  per_node : (int * int * int) array;  (** (ops, run start, run end) *)
  overflows : int;  (** inserts dropped by the table *)
  migrations : int;  (** shard-ownership handoffs *)
  verify_errors : int;  (** violations during the final sweep *)
  population : int;
  checksum : int;
  lost : int;
      (** keys skipped by the final sweep because their loading node's
          program crashed mid-plan (their state reflects an unknowable
          plan prefix) *)
  owned : int array;  (** final shard-ownership count per node *)
}

val parse : string -> t
(** Parse the raw printed output of a run (one integer per line).
    Raises [Failure] on a malformed block. *)

val strip_timing : t -> t
(** The timing-invariant projection: latency and timestamp fields
    zeroed.  Two runs of the same plan at the same node count must
    agree on it regardless of instrumentation or network timing. *)

val run_cycles : t -> int
(** Timed-window length: latest run end minus earliest run start. *)

val ops_per_mcycle : t -> float

val latency_hist : t -> Shasta_obs.Metrics.hist
(** The per-operation latency histogram as a metrics histogram, for
    [Metrics.percentile]. *)

val percentile : t -> float -> int

val render : ?label:string -> t -> string
(** Human-readable report; deterministic for a given [t]. *)

val to_bench :
  workload:string ->
  ?line:int ->
  ?opts:string ->
  ?messages:int ->
  ?misses:int ->
  t ->
  Shasta_obs.Benchjson.t
(** The report as a versioned BENCH record: KV metrics (ops,
    throughput, percentiles, errors, lost, ...) in the record's
    [extra] fields, gated exactly like the fixed simulated metrics.
    [messages]/[misses] come from the cluster phase result when the
    caller has one. *)

val to_json :
  ?line:int ->
  ?opts:string ->
  ?messages:int ->
  ?misses:int ->
  workload:string ->
  t ->
  string
(** [to_bench] rendered as one JSON object line ({!Shasta_obs.Benchjson.emit}),
    for BENCH_kv.json. *)
