(* The repository benchmark: five workloads that load different layers
   of the simulator, each rep timed in a fresh child process, every
   output checked.

     compute    LU on one node, instrumented and original binary (the
                Table 2 pair): interpreter, pipeline/cache model and
                inline checks; no protocol or network traffic
     coherence  FFT on 8 nodes: the all-to-all transpose drives read
                misses and upgrades through Engine, protocol, network
                and obs
     kv         the sharded hash table under YCSB mix a on 4 nodes, a
                closed loop: lock traffic and migratory writes
     scale      the compute LU on 64 nodes with a limited-pointer
                directory and scalable sync: Cluster.create cost,
                inexact node sets, the tree barrier
     mcheck     exhaustive refinement check of the protocol core over a
                lossy wire: Transitions.step and the visited set, no
                interpreter

   Usage (from the root of a checkout: the metric names and units are
   read from BENCHMARK.json):
     suite.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
       Reps of W, one child process at a time, for S seconds (at least
       three).  --trace 0 prints the end-to-end metrics, the timed ones
       scaled to a reference host speed (see [calibrate]); --trace 1 runs
       one more, traced rep and prints the per-layer metrics, writing
       its spans as a Chrome trace to .perfbench/W.trace.json.  The last
       line of stdout is one JSON object.
     suite.exe [--seed N] [--trace 0|1] [--quick]
       Every workload, 5 reps each (1 with --quick), round-robin
       (A B C D E, A B C D E, ...), so a slow spell on the host hits all
       of them alike; one JSON line per workload.

   --seed draws the kv key stream; the other inputs are fixed.  The
   timed phase starts after the init phase has run on node 0, with the
   other nodes' caches empty.  A failed check makes the suite exit 1. *)

open Shasta_runtime
module Obs = Shasta_obs.Obs
module Metrics = Shasta_obs.Metrics
module Perf = Shasta_obs.Perf
module T = Shasta_protocol.Transitions
module Net = Shasta_network.Network
module Mcheck = Shasta_mcheck.Mcheck
module W = Shasta_workload.Workload
module Report = Shasta_workload.Report

type size = Standard | Quick

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Child side: a rep reports "<kind> <name> <value>" lines on stdout    *)
(* ------------------------------------------------------------------ *)

(* kinds: [value] end-to-end measurements, [exact] values every rep
   must repeat, [check] oracle outcomes, [layer] per-layer metrics of
   the traced rep *)
let emit kind name value = Printf.printf "%s %s %s\n" kind name value
let value name v = emit "value" name (Printf.sprintf "%.17g" v)
let exact name v = emit "exact" name v
let check name ok = emit "check" name (if ok then "ok" else "FAIL")

(* Spans: name, start, end and parent, kept in memory and written as a
   Chrome trace when the traced rep exits. *)
type span = {
  sid : int;
  parent : int; (* 0 = root *)
  sname : string;
  t0 : float;
  mutable t1 : float;
  mutable counts : (string * float) list;
}

let spans : span list ref = ref []
let open_span = ref 0

let new_span ~parent name t0 t1 =
  let s =
    { sid = List.length !spans + 1; parent; sname = name; t0; t1; counts = [] }
  in
  spans := s :: !spans;
  s

let span ?(counts = fun _ -> []) name f =
  let s = new_span ~parent:!open_span name (Perf.monotonic_clock ()) 0.0 in
  open_span := s.sid;
  let r =
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Perf.monotonic_clock ();
        open_span := s.parent)
      f
  in
  s.counts <- counts r;
  r

(* A host phase charged to [perf] and recorded as a span. *)
let phase ?counts perf name f =
  Perf.phase perf name (fun () -> span ?counts name f)

(* Minor words allocated by [f].  Gc.minor_words is exact; the
   Gc.quick_stat deltas in Perf only move at minor collections. *)
let allocated f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let phase_s (r : Perf.report) name =
  Option.value ~default:0.0 (List.assoc_opt name r.phases)

let phases_s (r : Perf.report) =
  List.fold_left (fun a (_, s) -> a +. s) 0.0 r.phases

(* [f]'s result and host seconds, as a one-phase accumulator. *)
let timed_phase ?counts name f =
  let perf = Perf.create () in
  let r = phase ?counts perf name f in
  (r, phase_s (Perf.report perf) name)

(* Cluster.run_app charges load/run/drain to a Perf accumulator whose
   clock keeps every reading.  Perf reads it once at creation, then at
   the start and end of each phase; run_app enters each phase once, in
   order, so the readings after the first pair up into the phases'
   spans, children of the run_app span. *)
let run_app state =
  let stamps = ref [] in
  let clock () =
    let t = Perf.monotonic_clock () in
    stamps := t :: !stamps;
    t
  in
  let perf = Perf.create ~clock () in
  let parent = ref 0 in
  let ph =
    span "run_app"
      ~counts:(fun (ph : Cluster.phase_result) ->
        [ ("sim_cycles", float ph.wall_cycles);
          ("msgs", float ph.msgs_sent);
          ("insns",
           float (Array.fold_left (fun a c -> a + c.Node.insns) 0 ph.counters)) ])
      (fun () ->
        parent := !open_span;
        Cluster.run_app ~perf state)
  in
  let rec lay names stamps =
    match (names, stamps) with
    | name :: names, t0 :: t1 :: rest ->
      ignore (new_span ~parent:!parent name t0 t1);
      lay names rest
    | _ -> ()
  in
  let r = Perf.report perf in
  lay (List.map fst r.phases) (List.tl (List.rev !stamps));
  (ph, r)

let write_trace file ~id =
  let oc = open_out file in
  let base = List.fold_left (fun a s -> min a s.t0) infinity !spans in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      let counts =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%.17g" k v) s.counts)
      in
      Printf.fprintf oc
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\
         \"tid\":1,\"args\":{\"id\":\"%s\",\"span\":%d,\"parent\":%d%s}}"
        s.sname ((s.t0 -. base) *. 1e6) ((s.t1 -. s.t0) *. 1e6) id s.sid
        s.parent counts)
    (List.rev !spans);
  output_string oc "\n]\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* One simulated binary: compile, instrument, create, run               *)
(* ------------------------------------------------------------------ *)

type sim = {
  state : State.t;
  ph : Cluster.phase_result;
  stats : Shasta.Instrument.stats option;
  setup : Perf.report; (* compile / instrument / create *)
  run : Perf.report; (* load / run / drain *)
  run_words : float; (* minor words allocated by load / run / drain *)
  events : int; (* obs records (traced only) *)
  sends : (int * int * int * int) list;
      (* src, dst, send time, payload longs, in send order (traced only) *)
}

let simulate ?(traced = false) ?(opts = Some Shasta.Opts.full)
    ?(dir_mode = Shasta_protocol.Nodeset.Full) ?(scalable_sync = false)
    ~nprocs prog =
  let obs = Obs.create ~nprocs () in
  let events = ref 0 and sends = ref [] in
  if traced then
    Obs.attach obs
      { Shasta_obs.Sink.on_record =
          (fun r ->
            incr events;
            match r.ev with
            | Shasta_obs.Event.Msg_send { dst; longs; _ } ->
              sends := (r.node, dst, r.time, longs) :: !sends
            | _ -> ());
        flush = ignore };
  let sp = Perf.create () in
  let compiled = phase sp "compile" (fun () -> Shasta_minic.Compile.compile prog) in
  let program, stats =
    match opts with
    | None -> (compiled.program, None)
    | Some opts ->
      let p, s =
        phase sp "instrument"
          ~counts:(fun (_, (s : Shasta.Instrument.stats)) ->
            [ ("insns_before", float s.insns_before);
              ("insns_after", float s.insns_after) ])
          (fun () -> Shasta.Instrument.instrument ~opts compiled.program)
      in
      (p, Some s)
  in
  let config =
    State.default_config ~nprocs ~obs ~dir_mode ~scalable_sync ()
  in
  let state =
    phase sp "create" (fun () ->
      Cluster.create ~config ~compiled:{ compiled with program } ())
  in
  let setup = Perf.report sp in
  state.record_inputs <- traced;
  let (ph, run), run_words = allocated (fun () -> run_app state) in
  { state; ph; stats; setup; run; run_words; events = !events;
    sends = List.rev !sends }

let digest output = Digest.to_hex (Digest.string output)

(* Fold Transitions.step over the recorded inputs from the initial view;
   the pure core must land exactly on the live run's view. *)
let replay_protocol (s : sim) =
  let cfg = s.state.tcfg and inputs = List.rev s.state.inputs_rev in
  let steps = List.length inputs in
  let (v, step_s), words =
    allocated (fun () ->
      timed_phase "replay.protocol"
        ~counts:(fun _ -> [ ("steps", float steps) ])
        (fun () ->
          List.fold_left
            (fun v (node, input) -> snd (T.step cfg v ~node input))
            (T.init cfg) inputs))
  in
  check "protocol-replay-lands-on-live-view"
    (String.equal (T.canon v) (T.canon s.state.proto));
  (steps, step_s, words)

(* Push the recorded sends through a fresh interconnect and drain it. *)
let replay_network (s : sim) =
  let nprocs = s.state.config.nprocs in
  let net = Net.create ~nprocs s.state.config.net_profile in
  let delivered, net_s =
    timed_phase "replay.network"
      ~counts:(fun n -> [ ("msgs", float n) ])
      (fun () ->
        List.iter
          (fun (src, dst, now, longs) ->
            ignore (Net.send net ~src ~dst ~now ~payload_longs:longs ()))
          s.sends;
        let n = ref 0 in
        for dst = 0 to nprocs - 1 do
          while Net.recv net ~dst ~now:max_int <> None do incr n done
        done;
        !n)
  in
  check "network-replay-matches-live-wire"
    (delivered = List.length s.sends && Net.stats net = Net.stats s.state.net);
  net_s

(* Per-layer metrics of a traced sim (README.md maps each one to the
   end-to-end metric it should move). *)
let sim_layers (s : sim) =
  let total = Metrics.counter_total s.ph.metrics in
  let sum f = float (Array.fold_left (fun a c -> a + f c) 0 s.ph.counters) in
  let insns = sum (fun c -> c.Node.insns) in
  let all_insns =
    float
      (Array.fold_left
         (fun a (n : Node.t) -> a + n.counters.insns)
         0 s.state.nodes)
  in
  let misses =
    float
      (total Obs.c_miss_read + total Obs.c_miss_write
       + total Obs.c_miss_upgrade)
  in
  let fanout = Metrics.hist_total s.ph.metrics Obs.h_fanout in
  let steps, step_s, step_words = replay_protocol s in
  let net_s = replay_network s in
  let static_checks, batches, growth =
    match s.stats with
    | Some st ->
      ( float (st.loads_instrumented + st.stores_instrumented),
        float st.batches,
        ratio (float st.insns_after) (float st.insns_before) )
    | None -> (0.0, 0.0, 0.0)
  in
  let stat name = float (total name) in
  [ ("minic.compile_s", phase_s s.setup "compile");
    ("core.instrument_s", phase_s s.setup "instrument");
    ("core.static_checks", static_checks);
    ("core.batches", batches);
    ("core.code_growth", growth);
    ("machine.l1d_misses", stat "cache.l1d.misses");
    ("runtime.create_s", phase_s s.setup "create");
    ("runtime.load_s", phase_s s.run "load");
    ("runtime.run_s", phase_s s.run "run");
    ("runtime.drain_s", phase_s s.run "drain");
    ("runtime.sim_cycles", float s.ph.wall_cycles);
    ("runtime.insns", insns);
    ("runtime.polls", sum (fun c -> c.Node.polls));
    ("runtime.stall_cycles", sum (fun c -> c.Node.stall_cycles));
    ("runtime.minsn_per_s", ratio insns (phase_s s.run "run") /. 1e6);
    ("runtime.words_per_insn", ratio s.run_words all_insns);
    ("protocol.steps", float steps);
    ("protocol.step_s", step_s);
    ("protocol.ns_per_step", ratio step_s (float steps) *. 1e9);
    ("protocol.words_per_step", ratio step_words (float steps));
    ("protocol.read_misses", stat Obs.c_miss_read);
    ("protocol.write_misses", stat Obs.c_miss_write);
    ("protocol.upgrade_misses", stat Obs.c_miss_upgrade);
    ("protocol.false_misses", stat Obs.c_miss_false);
    ("protocol.invals", stat Obs.c_invals);
    ("protocol.fanout_mean", ratio (float fanout.sum) (float fanout.n));
    ("network.msgs", float s.ph.msgs_sent);
    ("network.payload_longs", float s.ph.payload_longs);
    ("network.msgs_per_miss", ratio (float s.ph.msgs_sent) misses);
    ("network.ns_per_msg",
     ratio net_s (float (List.length s.sends)) *. 1e9);
    ("obs.events", float s.events) ]

let emit_layers = List.iter (fun (n, v) -> emit "layer" n (Printf.sprintf "%.17g" v))

(* The end-to-end and determinism lines every simulated workload prints;
   the model's work is the first sim's simulated cycles. *)
let report_sims ?(extra_setup = 0.0) sims =
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 sims in
  value "setup_s" (extra_setup +. sum (fun s -> phases_s s.setup));
  value "run_s" (sum (fun s -> phases_s s.run));
  value "run_mwords" (sum (fun s -> s.run_words) /. 1e6);
  value "model_work" (float (List.hd sims).ph.wall_cycles);
  List.iteri
    (fun i s ->
      let tag = if i = 0 then "" else Printf.sprintf ".%d" i in
      exact ("sim_cycles" ^ tag) (string_of_int s.ph.wall_cycles);
      exact ("sim_msgs" ^ tag) (string_of_int s.ph.msgs_sent);
      exact ("output" ^ tag) (digest s.ph.output))
    sims

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let lu = function
  | Standard -> Shasta_apps.Lu.program ~n:48 ~bs:8 ()
  | Quick -> Shasta_apps.Lu.program ~n:16 ~bs:4 ()

let fft = function
  | Standard -> Shasta_apps.Fft.program ~n:2048 ()
  | Quick -> Shasta_apps.Fft.program ~n:64 ()

let kv_nprocs = 4

(* YCSB mix a (50% updates), Zipf 0.99, keys drawn from the seed *)
let kv_params size ~seed =
  let seed = seed land 0x3FFFFFFF in
  match size with
  | Standard ->
    ( W.spec ~nkeys:1024 ~ops:8000 ~mix:W.A ~seed ~quanta:1024 (),
      { Shasta_apps.Sht.nbuckets = 512; slots = 8; handoff = 8 } )
  | Quick ->
    ( W.spec ~nkeys:256 ~ops:1000 ~mix:W.A ~seed ~quanta:256 (),
      { Shasta_apps.Sht.nbuckets = 128; slots = 8; handoff = 8 } )

let scale_nprocs = function Standard -> 64 | Quick -> 16

let mcheck_params = function
  | Standard -> (2, Some 2) (* nprocs, lossy budget *)
  | Quick -> (2, None)

let rep_compute size ~seed:_ ~traced =
  let prog = lu size in
  let inst = simulate ~traced ~nprocs:1 prog in
  let orig = simulate ~opts:None ~nprocs:1 prog in
  check "instrumented-output-equals-original" (inst.ph.output = orig.ph.output);
  report_sims [ inst; orig ];
  if traced then
    emit_layers
      (("core.check_overhead",
        ratio (float inst.ph.wall_cycles) (float orig.ph.wall_cycles))
       :: sim_layers inst)

let rep_coherence size ~seed:_ ~traced =
  let s = simulate ~traced ~nprocs:8 (fft size) in
  report_sims [ s ];
  if traced then emit_layers (sim_layers s)

let rep_kv size ~seed ~traced =
  let wl, cfg = kv_params size ~seed in
  let prog, generate_s =
    timed_phase "generate" (fun () -> Shasta_apps.Sht.program ~cfg ~wl ())
  in
  let s = simulate ~traced ~nprocs:kv_nprocs prog in
  let rep = Report.parse s.ph.output in
  check "kv-no-errors" (rep.errors + rep.verify_errors = 0);
  exact "kv.ops" (Printf.sprintf "%d/%d/%d/%d" rep.gets rep.puts rep.dels rep.scans);
  report_sims ~extra_setup:generate_s [ s ];
  exact "kv.p99" (string_of_int (Report.percentile rep 99.0));
  if traced then
    emit_layers
      (sim_layers s
       @ [ ("workload.kv_ops_per_mcyc", Report.ops_per_mcycle rep);
           ("workload.kv_p50_cyc", float (Report.percentile rep 50.0));
           ("workload.kv_p99_cyc", float (Report.percentile rep 99.0));
           ("workload.kv_handoffs", float rep.migrations) ])

let rep_scale size ~seed:_ ~traced =
  let s =
    simulate ~traced ~nprocs:(scale_nprocs size)
      ~dir_mode:(Shasta_protocol.Nodeset.Limited 4) ~scalable_sync:true
      (lu size)
  in
  report_sims [ s ];
  if traced then emit_layers (sim_layers s)

let rep_mcheck size ~seed:_ ~traced =
  let nprocs, lossy = mcheck_params size in
  let scenarios, setup_s =
    timed_phase "scenarios" (fun () -> Mcheck.refine_scenarios ~nprocs)
  in
  let rp = Perf.create () in
  let check_all () =
    List.map
      (fun (sc : Mcheck.scenario) ->
        phase rp ("check." ^ sc.sname)
          ~counts:(fun (r : Mcheck.result) ->
            [ ("states", float r.states);
              ("transitions", float r.transitions) ])
          (fun () -> Mcheck.check_exhaustive ?lossy ~refine:true sc))
      scenarios
  in
  let results, run_words = allocated check_all in
  List.iter2
    (fun (sc : Mcheck.scenario) (r : Mcheck.result) ->
      check ("mcheck-clean." ^ sc.sname) (r.violation = None && not r.truncated);
      exact ("mcheck.states." ^ sc.sname) (string_of_int r.states))
    scenarios results;
  let run = Perf.report rp in
  let total f = float (List.fold_left (fun a r -> a + f r) 0 results) in
  let states = total (fun (r : Mcheck.result) -> r.states) in
  value "setup_s" setup_s;
  value "run_s" (phases_s run);
  value "run_mwords" (run_words /. 1e6);
  (* the checker's work is the state space it exhausted *)
  value "model_work" states;
  if traced then begin
    emit_layers
      [ ("mcheck.states", states);
        ("mcheck.transitions", total (fun r -> r.transitions));
        ("mcheck.max_depth",
         float
           (List.fold_left
              (fun a (r : Mcheck.result) -> max a r.max_depth)
              0 results));
        ("mcheck.check_s", phases_s run);
        ("mcheck.states_per_s", ratio states (phases_s run)) ]
  end

(* Exact values a workload's reps must produce, computed once per
   invocation in the parent and not timed. *)
let ref_none _ ~seed:_ = []

let ref_p1_output prog_of size ~seed:_ =
  let r = Api.run { (Api.default_spec (prog_of size)) with nprocs = 1 } in
  [ ("output", digest r.phase.output) ]

let ref_kv size ~seed =
  let wl, _ = kv_params size ~seed in
  let g, p, d, s = W.plan_counts (W.plan wl ~nprocs:kv_nprocs) in
  [ ("kv.ops", Printf.sprintf "%d/%d/%d/%d" g p d s) ]

type workload = {
  name : string;
  rep : size -> seed:int -> traced:bool -> unit; (* runs in the child *)
  reference : size -> seed:int -> (string * string) list;
}

let workloads =
  [ { name = "compute"; rep = rep_compute; reference = ref_none };
    (* the P=8 transpose must compute what one node computes *)
    { name = "coherence"; rep = rep_coherence; reference = ref_p1_output fft };
    { name = "kv"; rep = rep_kv; reference = ref_kv };
    (* 64 nodes must compute the one-node LU answer *)
    { name = "scale"; rep = rep_scale; reference = ref_p1_output lu };
    { name = "mcheck"; rep = rep_mcheck; reference = ref_none } ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "perfbench: unknown workload %s (have: %s)\n" name
      (String.concat " " (List.map (fun w -> w.name) workloads));
    exit 2

(* Host-speed calibration.  The host's speed drifts by up to 1.5x over
   tens of seconds (a shared 2-vCPU VM): far more than any change worth
   gating.  Just before each rep, a child of its own times this fixed
   stdlib kernel, and the parent scales the median set-up and run times
   by [cal_ref_s] over the kernel's median, i.e. reports them at a
   reference host speed.  The kernel is hash-table, map and list work on
   a few MB, memory-bound like the simulator, which is why it tracks the
   drift where an ALU loop does not.  It runs on the fresh heap of its
   own process, under fixed GC settings, and calls none of the
   program's code, so a change to the program cannot move the
   yardstick. *)
let cal_ref_s = 0.1

let calibrate () =
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = Perf.monotonic_clock () in
  let h = Hashtbl.create 16 in
  for i = 0 to 59_999 do Hashtbl.replace h (i * 7919) (float i) done;
  let s = ref 0.0 in
  for i = 0 to 239_999 do
    match Hashtbl.find_opt h (i mod 60_000 * 7919) with
    | Some v -> s := !s +. sqrt v
    | None -> ()
  done;
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to 39_999 do
    m := M.add ((i * 2654435761) land 0xFFFFF) [ i; i + 1 ] !m
  done;
  let l = List.init 60_000 (fun i -> (i * 2654435761) land 0xFFFFFF) in
  ignore (Sys.opaque_identity (!s, M.cardinal !m, List.sort compare l));
  Perf.monotonic_clock () -. t0

let child_main w size ~seed ~trace_file =
  let traced = trace_file <> None in
  span w.name (fun () -> w.rep size ~seed ~traced);
  let words = float (Gc.quick_stat ()).top_heap_words in
  value "host_heap_mb" (words *. float (Sys.word_size / 8) /. 1048576.0);
  Option.iter
    (fun file -> write_trace file ~id:(Printf.sprintf "%s-%d" w.name seed))
    trace_file

(* ------------------------------------------------------------------ *)
(* Parent side: spawn reps, check, summarize                            *)
(* ------------------------------------------------------------------ *)

type rep = {
  values : (string * float) list;
  exacts : (string * string) list;
  checks : (string * bool) list;
  layers : (string * float) list;
}

(* Run this executable as a child with [args] and parse what it
   reports; [label] names the child in the exit-status check. *)
let spawn label args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  let status = Unix.close_process_in ic in
  let rep =
    List.fold_left
      (fun r line ->
        match String.split_on_char ' ' line with
        | [ "value"; n; v ] ->
          { r with values = (n, float_of_string v) :: r.values }
        | [ "exact"; n; v ] -> { r with exacts = (n, v) :: r.exacts }
        | [ "check"; n; v ] -> { r with checks = (n, v = "ok") :: r.checks }
        | [ "layer"; n; v ] ->
          { r with layers = (n, float_of_string v) :: r.layers }
        | _ -> r)
      { values = []; exacts = []; checks = []; layers = [] }
      lines
  in
  { rep with
    checks = (label ^ "-exit-0", status = Unix.WEXITED 0) :: List.rev rep.checks }

(* One rep of [w], with the calibration kernel timed just before it. *)
let run_rep w size ~seed ~trace_file =
  let cal = spawn "calibration" [ "--calibrate" ] in
  let rep =
    spawn "child"
      ([ "--child"; w.name; "--seed"; string_of_int seed ]
       @ (if size = Quick then [ "--quick" ] else [])
       @ match trace_file with Some f -> [ "--traced"; f ] | None -> [])
  in
  { rep with values = cal.values @ rep.values; checks = cal.checks @ rep.checks }

type metric = { mname : string; unit : string }

(* BENCHMARK.json's end-to-end and per-layer metrics, in its order.  The
   file holds one {"name": ..., "unit": ...} entry a line, under the
   "end_to_end" and "per_layer" keys. *)
let declared_metrics () =
  let file = "BENCHMARK.json" in
  if not (Sys.file_exists file) then begin
    prerr_endline "perfbench: no BENCHMARK.json; run from the root of a checkout";
    exit 2
  end;
  let section = ref "" and found = ref [] in
  List.iter
    (fun line ->
      match Scanf.sscanf_opt line " %S : [" Fun.id with
      | Some key -> section := key
      | None ->
        Option.iter
          (fun m -> found := (!section, m) :: !found)
          (Scanf.sscanf_opt line " {\"name\": %S, \"unit\": %S"
             (fun mname unit -> { mname; unit })))
    (String.split_on_char '\n' (In_channel.with_open_text file In_channel.input_all));
  let of_key key =
    List.rev
      (List.filter_map (fun (k, m) -> if k = key then Some m else None) !found)
  in
  match (of_key "end_to_end", of_key "per_layer") with
  | [], _ | _, [] ->
    prerr_endline "perfbench: BENCHMARK.json lists no end_to_end or per_layer metric";
    exit 2
  | declared -> declared

(* end-to-end times, reported at the reference host speed *)
let speed_scaled = [ "setup_s"; "run_s" ]

(* end-to-end values that are exact: every untraced rep must repeat
   them (tracing allocates, so the traced rep is left out) *)
let exact_end_to_end = [ "run_mwords"; "model_work" ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Fold the reps of one workload (untimed traced rep last, if any) into
   the result object, printing a readable summary on the way; [label]
   names the workload in the object.  The metrics are the declared
   end-to-end ones, or with a traced rep the declared per-layer ones
   (0 where the workload does not exercise the layer). *)
let summarize ?(label = false) ~declared w ~references reps traced =
  let end_to_end, per_layer = declared in
  let all = reps @ Option.to_list traced in
  let values name = List.filter_map (fun r -> List.assoc_opt name r.values) reps in
  let med name = median (values name) in
  (* every exact value must repeat in every rep, traced one included,
     and match the parent's reference where there is one *)
  let first = (List.hd all).exacts in
  let same_in_all (n, v) =
    List.for_all (fun r -> List.assoc_opt n r.exacts = Some v) all
  in
  let det = List.map (fun e -> ("same-in-every-rep." ^ fst e, same_in_all e)) first in
  let refs = List.map (fun e -> ("matches-reference." ^ fst e, same_in_all e)) references in
  let det_end_to_end =
    List.map
      (fun n ->
        ( "same-in-every-rep." ^ n,
          match values n with v :: vs -> List.for_all (Float.equal v) vs | [] -> false ))
      exact_end_to_end
  in
  let speed = ratio cal_ref_s (med "cal_s") in
  let rows, emitted =
    match traced with
    | None ->
      ( List.map
          (fun m ->
            let raw = med m.mname in
            if List.mem m.mname speed_scaled then
              (m, raw *. speed, Printf.sprintf " median of %d (raw %.6g)" (List.length reps) raw)
            else (m, raw, Printf.sprintf " median of %d" (List.length reps)))
          end_to_end,
        List.map (fun m -> ("emitted." ^ m.mname, values m.mname <> [])) end_to_end )
    | Some t ->
      let get n = Option.value ~default:0.0 (List.assoc_opt n t.values) in
      let overhead =
        ratio (ratio (get "run_s") (get "cal_s")) (ratio (med "run_s") (med "cal_s"))
        -. 1.0
      in
      let layers = ("obs.trace_overhead", overhead) :: t.layers in
      ( List.map
          (fun m ->
            (m, Option.value ~default:0.0 (List.assoc_opt m.mname layers), ""))
          per_layer,
        (* a layer metric the suite emits must be declared *)
        List.map
          (fun (n, _) ->
            ("declared." ^ n, List.exists (fun m -> m.mname = n) per_layer))
          layers )
  in
  let checks =
    List.concat_map (fun r -> r.checks) all @ det @ refs @ det_end_to_end @ emitted
  in
  List.iter
    (fun (n, ok) ->
      if not ok then Printf.printf "%s: CHECK FAILED: %s\n" w.name n)
    checks;
  let failed = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  List.iter (fun (k, v) -> Printf.printf "%-10s %-28s %s (exact)\n" w.name k v) first;
  Printf.printf "%-10s calibration kernel median %.4f s (reference %.2f s)\n"
    w.name (med "cal_s") cal_ref_s;
  List.iter
    (fun (m, v, note) ->
      Printf.printf "%-10s %-28s %14.6g %-4s%s\n" w.name m.mname v m.unit note)
    rows;
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (m, v, _) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.mname v
             m.unit)
         rows)
  in
  ( failed,
    Printf.sprintf
      "{%s\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (if label then Printf.sprintf "\"workload\": \"%s\", " w.name else "")
      (failed = 0) (List.length checks) failed json_metrics )

let trace_path w =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat ".perfbench" (w.name ^ ".trace.json")

let traced_rep w size ~seed ~trace =
  if not trace then None
  else begin
    let file = trace_path w in
    let r = run_rep w size ~seed ~trace_file:(Some file) in
    Printf.printf "%s: Chrome trace in %s\n" w.name file;
    Some r
  end

(* One workload for [seconds] of reps (at least three): the
   benchmark-contract entry point. *)
let run_timed ~declared w size ~seed ~seconds ~trace =
  let references = w.reference size ~seed in
  let t0 = Perf.monotonic_clock () in
  let rec loop acc =
    if List.length acc >= 3 && Perf.monotonic_clock () -. t0 >= seconds then
      List.rev acc
    else loop (run_rep w size ~seed ~trace_file:None :: acc)
  in
  let reps = loop [] in
  let traced = traced_rep w size ~seed ~trace in
  let failed, json = summarize ~declared w ~references reps traced in
  print_endline json;
  failed

(* Every workload, 5 reps each (1 with --quick), round-robin.  Traced,
   it also checks that some workload emits each declared per-layer
   metric. *)
let run_all ~declared size ~seed ~trace =
  let nreps = if size = Quick then 1 else 5 in
  let references = List.map (fun w -> w.reference size ~seed) workloads in
  let rounds =
    Array.init nreps (fun _ ->
      Array.of_list
        (List.map (fun w -> run_rep w size ~seed ~trace_file:None) workloads))
  in
  let failed = ref 0 and emitted = ref [ "obs.trace_overhead" ] in
  List.iteri
    (fun i (w, references) ->
      let reps = Array.to_list (Array.map (fun round -> round.(i)) rounds) in
      let traced = traced_rep w size ~seed ~trace in
      Option.iter (fun t -> emitted := List.map fst t.layers @ !emitted) traced;
      let f, json = summarize ~label:true ~declared w ~references reps traced in
      print_endline json;
      failed := !failed + f)
    (List.combine workloads references);
  if trace then
    List.iter
      (fun m ->
        if not (List.mem m.mname !emitted) then begin
          Printf.printf "CHECK FAILED: no workload emits %s\n" m.mname;
          incr failed
        end)
      (snd declared);
  !failed

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload = ref None and child = ref None and trace_file = ref None in
  let seed = ref 42 and seconds = ref 10.0 and cal = ref false in
  let trace = ref false and size = ref Standard in
  let usage () =
    prerr_endline
      "usage: suite.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
      \                 [--quick]";
    exit 2
  in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--" :: rest -> parse rest
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--child" :: w :: rest -> child := Some w; parse rest
    | "--traced" :: f :: rest -> trace_file := Some f; parse rest
    | "--calibrate" :: rest -> cal := true; parse rest
    | "--seed" :: n :: rest -> seed := num int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := num float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--quick" :: rest -> size := Quick; parse rest
    | _ -> usage ()
  in
  parse args;
  let size = !size and seed = !seed and trace = !trace in
  match (!cal, !child, !workload) with
  | true, _, _ -> value "cal_s" (calibrate ())
  | false, Some w, _ ->
    child_main (find_workload w) size ~seed ~trace_file:!trace_file
  | false, None, Some w ->
    let declared = declared_metrics () in
    let failed =
      run_timed ~declared (find_workload w) size ~seed ~seconds:!seconds ~trace
    in
    if failed > 0 then exit 1
  | false, None, None ->
    let declared = declared_metrics () in
    if run_all ~declared size ~seed ~trace > 0 then exit 1
