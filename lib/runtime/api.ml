(* Convenience front end: MiniC source -> compile -> instrument -> run.

   This is the "Shasta compilation process" of Figure 1: the application
   executable (produced by the MiniC compiler standing in for the system
   C compiler) is rewritten with miss checks and linked against the
   runtime, then run on a simulated cluster. *)

open Shasta_minic

type spec = {
  prog : Ast.prog;
  opts : Shasta.Opts.t option; (* None = original, uninstrumented binary *)
  nprocs : int;
  pipe : Shasta_machine.Pipeline.config;
  net : Shasta_network.Network.profile;
  net_faults : Shasta_network.Network.faults option;
      (* None = the paper's reliable wire; Some f injects seeded
         drop/delay under the reliable-delivery sublayer *)
  node_faults : Nodefaults.t option;
      (* None (or an event-free spec) = no crash injection; Some s
         halts/restarts nodes per the schedule with lease-based
         detection and directory reconstruction *)
  fixed_block : int option;
  consistency : State.consistency;
  obs : Shasta_obs.Obs.t option;
      (* observability subsystem to report into; [None] builds a fresh
         sinkless one (the metrics registry is still populated) *)
  dir_mode : Shasta_protocol.Nodeset.mode;
      (* directory organization for the protocol's node sets; nprocs is
         validated against its capacity at prepare time *)
  home_policy : State.home_policy;
  scalable_sync : bool; (* queue locks + combining-tree barrier *)
}

let default_spec prog =
  { prog; opts = Some Shasta.Opts.full; nprocs = 1;
    pipe = Shasta_machine.Pipeline.alpha_21064a;
    net = Shasta_network.Network.memory_channel; net_faults = None;
    node_faults = None; fixed_block = None; consistency = State.Release;
    obs = None; dir_mode = Shasta_protocol.Nodeset.Full;
    home_policy = State.Round_robin; scalable_sync = false }

type result = {
  phase : Cluster.phase_result;
  inst_stats : Shasta.Instrument.stats option;
  program : Shasta_isa.Program.t; (* the executable actually run *)
  state : State.t; (* post-run cluster state (registry, network, protocol view) *)
}

let prepare spec =
  let compiled = Compile.compile spec.prog in
  let program, inst_stats =
    match spec.opts with
    | Some opts ->
      let p, s = Shasta.Instrument.instrument ~opts compiled.program in
      (p, Some s)
    | None ->
      if spec.nprocs > 1 then
        invalid_arg
          "Api.prepare: uninstrumented executables only run on one node";
      (compiled.program, None)
  in
  let line_shift =
    match spec.opts with Some o -> o.line_shift | None -> 6
  in
  let config =
    State.default_config ~nprocs:spec.nprocs ~line_shift
      ~consistency:spec.consistency ~pipe_config:spec.pipe
      ~net_profile:spec.net ?net_faults:spec.net_faults
      ?node_faults:spec.node_faults ?fixed_block:spec.fixed_block
      ?obs:spec.obs ~dir_mode:spec.dir_mode ~home_policy:spec.home_policy
      ~scalable_sync:spec.scalable_sync ()
  in
  let state =
    Cluster.create ~config ~compiled:{ compiled with program } ()
  in
  (state, inst_stats, program)

let run ?(init_proc = "appinit") ?(work_proc = "work") spec =
  let state, inst_stats, program = prepare spec in
  let phase = Cluster.run_app ~init_proc ~work_proc state in
  { phase; inst_stats; program; state }

(* [run] under host-side measurement: the whole pipeline inside one
   {!Shasta_obs.Perf} accumulator — "compile" covers MiniC compilation,
   instrumentation and cluster construction, "load"/"run"/"drain" are
   charged by [Cluster.run_app].  The report is returned beside the
   result and stays out of the metrics registry, which holds only
   simulated counts. *)
let run_measured ?(init_proc = "appinit") ?(work_proc = "work") ?clock spec =
  let perf = Shasta_obs.Perf.create ?clock () in
  let state, inst_stats, program =
    Shasta_obs.Perf.phase perf "compile" (fun () -> prepare spec)
  in
  let phase = Cluster.run_app ~init_proc ~work_proc ~perf state in
  let report = Shasta_obs.Perf.report perf in
  ({ phase; inst_stats; program; state }, report)

(* Total inline-check misses of the timed phase — the [misses] field of
   a BENCH record. *)
let phase_misses (ph : Cluster.phase_result) =
  let total = Shasta_obs.Metrics.counter_total ph.metrics in
  total Shasta_obs.Obs.c_miss_read + total Shasta_obs.Obs.c_miss_write
  + total Shasta_obs.Obs.c_miss_upgrade

(* The [line] key of a BENCH record: a forced block size, legalized the
   way the allocator legalizes it, wins over the instrumented line size
   (64 for the original binary). *)
let record_line spec =
  let line_bytes =
    match spec.opts with Some o -> 1 lsl o.Shasta.Opts.line_shift | None -> 64
  in
  match spec.fixed_block with
  | Some b -> Shasta_protocol.Granularity.legalize ~line_bytes b
  | None -> line_bytes

(* One BENCH record for a completed run, all from the phase result. *)
let bench_record ~workload ?(opts_name = "full") ?(extra = []) spec
    (r : result) =
  Shasta_obs.Benchjson.make ~workload ~nprocs:spec.nprocs
    ~line:(record_line spec)
    ~opts:opts_name ~sim_cycles:r.phase.wall_cycles
    ~messages:r.phase.msgs_sent ~misses:(phase_misses r.phase) ~extra ()
