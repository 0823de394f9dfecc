(** Convenience front end: MiniC source -> compile -> instrument ->
    simulate — the full pipeline of the paper's Figure 1 in one call. *)

open Shasta_minic

type spec = {
  prog : Ast.prog;
  opts : Shasta.Opts.t option;
      (** [None] runs the original, uninstrumented binary (one
          processor only — there is no coherence without checks) *)
  nprocs : int;
  pipe : Shasta_machine.Pipeline.config;
  net : Shasta_network.Network.profile;
  net_faults : Shasta_network.Network.faults option;
      (** [None] = the paper's reliable wire; [Some f] injects seeded
          drop/delay beneath the reliable-delivery sublayer (the
          protocol still sees exactly-once FIFO delivery, only
          slower) *)
  node_faults : Nodefaults.t option;
      (** [None] (or an event-free spec) = no crash injection; [Some s]
          halts/restarts nodes per the schedule, with lease-based
          detection, directory reconstruction and lock-lease takeover *)
  fixed_block : int option;  (** force one block size (ablations) *)
  consistency : State.consistency;
  obs : Shasta_obs.Obs.t option;
      (** observability subsystem to report into — attach sinks before
          running; [None] builds a fresh sinkless one (the metrics
          registry is still populated and readable via the result
          state) *)
  dir_mode : Shasta_protocol.Nodeset.mode;
      (** directory organization (full-map / limited-pointer);
          [nprocs] is validated against its capacity when the cluster
          is built *)
  home_policy : State.home_policy;
  scalable_sync : bool;
      (** queue locks and combining-tree barriers instead of the
          centralized home-node lock/barrier protocol *)
}

val default_spec : Ast.prog -> spec
(** One processor, full optimizations, Memory Channel, release
    consistency. *)

type result = {
  phase : Cluster.phase_result;
  inst_stats : Shasta.Instrument.stats option;
  program : Shasta_isa.Program.t;  (** the executable actually run *)
  state : State.t;
      (** the cluster after the run — gives access to the metrics
          registry ([State.obs]), network stats, directory and node
          tables *)
}

val prepare :
  spec -> State.t * Shasta.Instrument.stats option * Shasta_isa.Program.t
(** Compile, instrument and build the cluster without running it —
    for callers that need access to the simulation state (caches,
    directory, node tables). *)

val run : ?init_proc:string -> ?work_proc:string -> spec -> result
(** Run the SPLASH-style two-phase execution: [init_proc] (default
    "appinit") sequentially on node 0, then — after the static area is
    copied to every node, the paper's CREATE-macro behaviour —
    [work_proc] (default "work") on all nodes, which is what gets
    timed. *)

val run_measured :
  ?init_proc:string ->
  ?work_proc:string ->
  ?clock:(unit -> float) ->
  spec ->
  result * Shasta_obs.Perf.report
(** [run] wrapped in a {!Shasta_obs.Perf} measurement: host wall time
    broken into compile / load / run / drain phases.  The report is
    not added to the result state's metrics registry, so [--metrics]
    shows the same simulated counts on every run.  [clock] is
    injectable for tests. *)

val phase_misses : Cluster.phase_result -> int
(** Total inline-check misses (read + write + upgrade) of the timed
    phase, summed over nodes, from the phase's metrics registry. *)

val record_line : spec -> int
(** The [line] key of a BENCH record for a run of [spec]: the block
    size the run used for a forced block (the request rounded as
    {!Shasta_protocol.Granularity.legalize} rounds it), else the
    instrumented line size (64 for the original binary). *)

val bench_record :
  workload:string ->
  ?opts_name:string ->
  ?extra:(string * Shasta_obs.Benchjson.num) list ->
  spec ->
  result ->
  Shasta_obs.Benchjson.t
(** One versioned BENCH record for a completed run: the simulated
    metrics of the phase result, plus [extra]. *)
