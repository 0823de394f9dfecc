(* shasta_run: compile, instrument and run a workload on the simulated
   cluster from the command line.

     dune exec bin/shasta_run.exe -- --app lu --procs 8 --net mc
     dune exec bin/shasta_run.exe -- --app radix --no-batch --line 128
     dune exec bin/shasta_run.exe -- --app lu --trace-out /tmp/lu.json
     dune exec bin/shasta_run.exe -- --app ocean --metrics
     dune exec bin/shasta_run.exe -- --list *)

open Cmdliner
open Shasta_runtime
module Obs = Shasta_obs.Obs
module Metrics = Shasta_obs.Metrics
module Sink = Shasta_obs.Sink
module Mcheck = Shasta_mcheck.Mcheck

(* --check: enumerate every interleaving of the small built-in protocol
   scenarios and verify invariants, quiescence and the data oracles.
   With --lossy N the channels become the unreliable wire under the
   reliable-delivery sublayer, with an adversarial per-channel fault
   budget of N drop/dup/reorder moves.  With --inject drop-ack, the
   routing layer drops the first invalidation acknowledgement; with
   --inject no-dedup, the sublayer's receiver-side dedup is removed so
   retransmitted/duplicated frames hit the protocol twice.  Success
   under an injection inverts: the checker must FIND the violation and
   print its counterexample trace. *)
let model_check nprocs inject fuzz_seed fuzz_runs lossy crash recover
    fuzz_only scale refine dmode scalable_sync =
  let injection = Option.value inject ~default:Mcheck.No_injection in
  (match (injection, lossy) with
   | Mcheck.Retransmit_no_dedup, None ->
     failwith "--inject no-dedup needs --lossy N (it is a sublayer bug)"
   | _ -> ());
  if crash > 0 && lossy <> None then
    failwith "--crash needs the reliable wire (drop --lossy)";
  if recover > 0 && crash = 0 then
    failwith "--recover needs --crash N (nothing to restart otherwise)";
  (* exhaustive enumeration only stays tractable on tiny configs *)
  let np = max 2 (min nprocs 3) in
  if np <> nprocs then
    Printf.printf "(clamped to %d processors for exhaustive search)\n" np;
  (* the CLI's --dir-mode/--sync select the configuration every
     scenario runs over (scale scenarios still pin their own) *)
  let base =
    { Shasta_protocol.Transitions.nprocs = np; page_bytes = 8192; sc = false;
      dmode; scalable_sync; migrate = false }
  in
  Printf.printf "== model check: %d processors, %s%s%s%s%s%s\n" np
    (match injection with
     | Mcheck.No_injection -> "no fault injection"
     | Mcheck.Drop_first_inv_ack -> "dropping first invalidation ack"
     | Mcheck.Retransmit_no_dedup -> "retransmit without receiver dedup"
     | Mcheck.Store_past_release -> "store commit reordered past release")
    (match lossy with
     | Some b -> Printf.sprintf ", lossy channels (budget %d)" b
     | None -> "")
    (if crash > 0 then
       Printf.sprintf ", crash adversary (%d halt%s)" crash
         (if recover > 0 then Printf.sprintf ", %d restart" recover else "")
     else "")
    (if scale then ", scaling scenarios" else "")
    (if refine then ", refinement against the serial-memory spec" else "")
    (if dmode <> Shasta_protocol.Nodeset.Full || scalable_sync then
       Printf.sprintf " [dir-mode %s, sync %s]"
         (Shasta_protocol.Nodeset.mode_name dmode)
         (if scalable_sync then "scalable" else "central")
     else "");
  let scenario_set ~nprocs =
    if injection = Mcheck.Store_past_release then
      (* the mutation defers a store under a held lock: the directed
         release-order scenario isolates it (other lock scenarios'
         strong oracles would also trip, muddying the demonstration
         that refinement alone sees it) *)
      [ Mcheck.release_order ]
    else if scale then Mcheck.scale_scenarios ~nprocs
    else if crash > 0 then Mcheck.crash_scenarios ~nprocs
    else if refine then Mcheck.refine_scenarios ~nprocs
    else Mcheck.scenarios ~nprocs
  in
  let crash = if crash > 0 then Some crash else None in
  let recover = match recover with 0 -> None | r -> Some r in
  let results =
    if fuzz_only then []
    else
      List.map
        (fun sc ->
          Mcheck.run_scenario ~injection ?lossy ?crash ?recover ~refine ~base
            stdout sc)
        (scenario_set ~nprocs:np)
  in
  let states = List.fold_left (fun a (r : Mcheck.result) -> a + r.states) 0 results in
  let transitions =
    List.fold_left (fun a (r : Mcheck.result) -> a + r.transitions) 0 results
  in
  let violations =
    List.filter_map (fun (r : Mcheck.result) -> r.violation) results
  in
  Printf.printf "total: %d states, %d transitions, %d scenario(s), %d violation(s)\n"
    states transitions (List.length results) (List.length violations);
  (* seeded random-walk fuzzing on top of the exhaustive pass *)
  let fuzz_violations = ref 0 in
  if fuzz_runs > 0 then begin
    List.iter
      (fun sc ->
        let steps, v =
          Mcheck.fuzz ~injection ?lossy ?crash ?recover ~refine ~base
            ~seed:fuzz_seed ~runs:fuzz_runs sc
        in
        Printf.printf "fuzz %-17s %d runs, %d steps%s\n" sc.Mcheck.sname
          fuzz_runs steps
          (match v with None -> "" | Some _ -> " VIOLATION");
        match v with
        | Some v ->
          incr fuzz_violations;
          Mcheck.pp_violation stdout v
        | None -> ())
      (scenario_set ~nprocs:np)
  end;
  let found = List.length violations + !fuzz_violations > 0 in
  match injection with
  | Mcheck.No_injection ->
    if found then begin
      print_endline "FAIL: protocol violation found";
      exit 1
    end
    else print_endline "OK: no violations in any explored interleaving"
  | Mcheck.Drop_first_inv_ack | Mcheck.Retransmit_no_dedup
  | Mcheck.Store_past_release ->
    if found then
      print_endline "OK: injected fault caught (counterexample above)"
    else begin
      print_endline "FAIL: injected fault was not detected";
      exit 1
    end

(* --replay: run the workload with input recording on, then fold the
   recorded inputs through the pure core from the initial view and
   demand the exact same final protocol state. *)
let replay_run spec app =
  let state, _, _ = Api.prepare spec in
  state.State.record_inputs <- true;
  let phase = Cluster.run_app state in
  let r = Replay.replay state in
  Printf.printf "== replay: %s, %d processor(s)\n" app spec.Api.nprocs;
  Printf.printf "live run    : %d wall cycles, %d messages\n" phase.wall_cycles
    phase.msgs_sent;
  Printf.printf "replayed    : %d protocol steps through the pure core\n"
    r.Replay.steps;
  List.iter
    (fun (k, errs) ->
      Printf.printf "invariants broken at step %d:\n" k;
      List.iter (fun e -> Printf.printf "  %s\n" e) errs)
    r.Replay.invariant_failures;
  if r.Replay.mismatch then
    print_endline "FAIL: replayed view differs from the live run's final view"
  else if r.Replay.invariant_failures <> [] then
    print_endline "FAIL: invariant violations during replay"
  else
    print_endline "OK: replay reproduces the live run's final protocol state";
  if not (Replay.ok r) then exit 1

(* --kv: drive the sharded hash table with a YCSB-style workload built
   from the command line instead of the registry's preset, and print
   the parsed end-of-run report (throughput in simulated cycles,
   per-op latency percentiles, table/shard accounting). *)
type kv_opts = {
  kv : bool;
  kv_ops : int;
  kv_mix : string;
  kv_theta : float;
  kv_keys : int option;
  kv_seed : int;
  kv_report : bool;
  bench_out : string option;
}

let kv_workload size kvo =
  let module W = Shasta_workload.Workload in
  let nkeys, quanta =
    match size with
    | Shasta_apps.Apps.Test -> (256, 256)
    | Shasta_apps.Apps.Small -> (1024, 1024)
    | Shasta_apps.Apps.Large -> (4096, 1024)
  in
  let nkeys = Option.value kvo.kv_keys ~default:nkeys in
  let dist =
    if kvo.kv_theta <= 0.0 then W.Uniform else W.Zipfian kvo.kv_theta
  in
  let wl =
    W.spec ~nkeys ~ops:kvo.kv_ops ~quanta
      ~mix:(W.mix_of_string kvo.kv_mix)
      ~dist ~seed:kvo.kv_seed ()
  in
  (wl, Shasta_apps.Sht.default_cfg ~nkeys)

let home_policies =
  [ ("rr", State.Round_robin); ("first-touch", State.First_touch);
    ("migrate", State.Migrate) ]

let run app size nprocs (net_name, net) faults nfaults pipe line_bytes
    no_instrument no_sched no_flag no_excl no_batch poll no_range fixed_block
    threshold sc trace trace_out metrics metrics_csv profile profile_out
    flame_out top show_asm replay progress dmode home_policy scalable_sync
    kvo =
  let entry = Shasta_apps.Apps.find app in
  let kv_wl =
    if kvo.kv || kvo.bench_out <> None then begin
      if app <> "sht" then
        failwith "--kv drives the sharded hash table; use --app sht";
      Some (kv_workload size kvo)
    end
    else None
  in
  let prog =
    match kv_wl with
    | Some (wl, cfg) -> Shasta_apps.Sht.program ~cfg ~wl ()
    | None -> entry.make size
  in
  let opts =
    if no_instrument then None
    else
      Some
        { Shasta.Opts.line_shift = (if line_bytes = 128 then 7 else 6);
          schedule = not no_sched;
          flag_loads = not no_flag;
          excl_table = not no_excl;
          batching = not no_batch;
          range_check = not no_range;
          poll }
  in
  (* Observability: attach the requested sinks before the run; the
     metrics registry is always on. *)
  let obs = Obs.create ~nprocs () in
  if trace then Obs.attach obs (Sink.text prerr_endline);
  let open_out_or_die file =
    try open_out file
    with Sys_error e ->
      prerr_endline ("shasta_run: cannot open output file: " ^ e);
      exit 1
  in
  let chrome_oc =
    match trace_out with
    | None -> None
    | Some file ->
      let oc = open_out_or_die file in
      Obs.attach obs (Sink.chrome ~nprocs oc);
      Some oc
  in
  (* the site profiler piggybacks on the same event stream *)
  let want_profile =
    profile || profile_out <> None || flame_out <> None || kvo.kv_report
  in
  let prof =
    if want_profile then begin
      let p =
        Obs.Profile.create ~nprocs
          ~block_of:(fun a -> a land lnot (line_bytes - 1))
          ()
      in
      Obs.attach_profiler obs p;
      Some p
    end
    else None
  in
  let spec =
    { (Api.default_spec prog) with
      opts;
      nprocs;
      pipe;
      net;
      net_faults = faults;
      node_faults = nfaults;
      fixed_block;
      granularity_threshold = threshold;
      consistency = (if sc then State.Sequential else State.Release);
      obs = Some obs;
      progress;
      dir_mode = dmode;
      home_policy;
      scalable_sync }
  in
  if replay then replay_run spec app
  else begin
  let r, perf = Api.run_measured spec in
  Obs.flush obs;
  Option.iter close_out chrome_oc;
  if show_asm then print_string (Shasta_isa.Asm.program_to_string r.program);
  Printf.printf "== %s (%s), %d processor(s), %s network%s%s\n" app
    entry.descr nprocs net_name
    (match faults with
     | Some f ->
       " (faulty: " ^ Shasta_network.Network.describe_faults f ^ ")"
     | None -> "")
    (match nfaults with
     | Some nf when not (Nodefaults.is_off nf) ->
       ", node faults: "
       ^ Nodefaults.describe (Nodefaults.resolve nf ~nprocs)
     | _ -> "");
  if dmode <> Shasta_protocol.Nodeset.Full || scalable_sync
     || home_policy <> State.Round_robin then
    Printf.printf "scaling     : dir-mode %s, homes %s, sync %s\n"
      (Shasta_protocol.Nodeset.mode_name dmode)
      (fst (List.find (fun (_, p) -> p = home_policy) home_policies))
      (if scalable_sync then "scalable" else "central");
  (match kv_wl with
   | Some _ -> () (* the raw output block is the report's wire format *)
   | None -> Printf.printf "output:\n%s" r.phase.output);
  Printf.printf "wall cycles : %d\n" r.phase.wall_cycles;
  Printf.printf "host        : %.3f s (%s)\n"
    perf.Shasta_obs.Perf.wall_s
    (String.concat ", "
       (List.map
          (fun (n, s) -> Printf.sprintf "%s %.3fs" n s)
          perf.Shasta_obs.Perf.phases));
  Printf.printf "messages    : %d (%d payload longwords)\n" r.phase.msgs_sent
    r.phase.payload_longs;
  (match faults with
   | Some _ ->
     let fs = Shasta_network.Network.fault_stats r.state.State.net in
     Printf.printf
       "net faults  : %d dropped (retransmitted), %d duplicated, \
        %d reordered, %d backoff cycles\n"
       fs.Shasta_network.Network.drops fs.dups fs.reorders fs.backoff_cycles
   | None -> ());
  (match nfaults with
   | Some nf when not (Nodefaults.is_off nf) ->
     let m = Obs.metrics obs in
     let total c = Obs.Metrics.counter_total m c in
     Printf.printf
       "node faults : %d crashed, %d recovered, %d lock leases taken over, \
        %d directory entries rebuilt\n"
       (total Obs.c_node_crash) (total Obs.c_node_recover)
       (total Obs.c_lease_takeover) (total Obs.c_dir_rebuild)
   | _ -> ());
  (match r.inst_stats with
   | Some s ->
     Printf.printf
       "instrumented: %d/%d loads, %d/%d stores, %d batches (%d accesses)\n"
       s.loads_instrumented s.loads_total s.stores_instrumented s.stores_total
       s.batches s.batched_accesses;
     Printf.printf "code size   : %d -> %d instructions\n" s.insns_before
       s.insns_after
   | None -> Printf.printf "instrumented: no (original binary)\n");
  Array.iteri
    (fun id (c : Node.counters) ->
      Printf.printf
        "node %d: %9d insns, misses rd=%d wr=%d up=%d batch=%d false=%d, \
         stall=%d cyc, polls=%d, locks=%d\n"
        id c.insns c.read_misses c.write_misses c.upgrade_misses
        c.batch_misses c.false_misses c.stall_cycles c.polls c.lock_acquires)
    r.phase.counters;
  (match prof with
   | None -> ()
   | Some p ->
     let image = r.state.State.image in
     let name_site = Image.site_name image in
     let report = Obs.Profile.report ~top p ~name_site in
     Printf.printf "\n== site profile (top %d)\n%s" top report;
     (* cross-check: the profiler and the registry consumed the same
        stream, so per-site miss totals must sum to the registry's
        counters exactly *)
     let reg = Obs.metrics obs in
     let tot = Obs.Profile.totals p in
     Printf.printf
       "site totals vs registry: read %d/%d write %d/%d upgrade %d/%d \
        false %d/%d\n"
       tot.Obs.Profile.t_read
       (Metrics.counter_total reg Obs.c_miss_read)
       tot.Obs.Profile.t_write
       (Metrics.counter_total reg Obs.c_miss_write)
       tot.Obs.Profile.t_upgrade
       (Metrics.counter_total reg Obs.c_miss_upgrade)
       tot.Obs.Profile.t_false
       (Metrics.counter_total reg Obs.c_miss_false);
     (match profile_out with
      | None -> ()
      | Some file ->
        let oc = open_out_or_die file in
        output_string oc (Obs.Profile.report ~top:max_int p ~name_site);
        close_out oc);
     (match flame_out with
      | None -> ()
      | Some file ->
        let oc = open_out_or_die file in
        output_string oc
          (Obs.Profile.collapsed p ~name_proc:(Image.proc_name image)
             ~name_site);
        close_out oc));
  (match kv_wl with
   | None -> ()
   | Some (wl, _) ->
     let module W = Shasta_workload.Workload in
     let module Report = Shasta_workload.Report in
     let rep = Report.parse r.phase.output in
     let label =
       Printf.sprintf "%s mix, %s, %d procs" (W.mix_name wl.W.mix)
         (W.dist_name wl.W.dist) nprocs
     in
     print_newline ();
     print_string (Report.render ~label rep);
     (match prof with
      | Some p when kvo.kv_report ->
        (* protocol-level view of the same run: per-request-kind
           latency percentiles from the profiler's span histograms *)
        let sm = Obs.Profile.span_metrics p in
        Printf.printf "protocol spans:\n";
        List.iter
          (fun name ->
            let h = Metrics.hist_total sm name in
            if h.Metrics.n > 0 then
              Printf.printf
                "  %-14s n=%-7d p50 %-6d p95 %-6d p99 %-6d p99.9 %d cycles\n"
                name h.Metrics.n
                (Metrics.percentile h 50.0)
                (Metrics.percentile h 95.0)
                (Metrics.percentile h 99.0)
                (Metrics.percentile h 99.9))
          (Metrics.hist_names sm)
      | _ -> ());
     (match kvo.bench_out with
      | None -> ()
      | Some file ->
        (* versioned BENCH record of the simulated KV metrics,
           parseable by Benchjson *)
        let opts_name =
          match opts with
          | None -> "orig"
          | Some o ->
            if { o with Shasta.Opts.line_shift = 6 } = Shasta.Opts.full then
              "full"
            else "custom"
        in
        let oc = open_out_or_die file in
        output_string oc
          (Report.to_json ~line:line_bytes ~opts:opts_name
             ~messages:r.phase.msgs_sent ~misses:(Api.phase_misses r.phase)
             ~workload:(W.mix_name wl.W.mix) rep);
        output_string oc "\n";
        close_out oc));
  if metrics then begin
    let reg = Obs.metrics obs in
    Printf.printf "\n== metrics registry (whole run, per node + aggregate)\n";
    print_string (Metrics.to_string reg);
    (* cross-check: the registry's protocol-message totals must agree
       with the interconnect's own accounting *)
    let sent, pay = Shasta_network.Network.stats r.state.net in
    Printf.printf
      "\nnetwork cross-check: registry msg.sent=%d msg.recv=%d, \
       Network.stats sent=%d (%d payload longwords)\n"
      (Metrics.counter_total reg Obs.c_msg_sent)
      (Metrics.counter_total reg Obs.c_msg_recv)
      sent pay
  end;
  match metrics_csv with
  | None -> ()
  | Some file ->
    let oc = open_out_or_die file in
    output_string oc (Metrics.to_csv (Obs.metrics obs));
    close_out oc
  end

let list_apps () =
  List.iter
    (fun (e : Shasta_apps.Apps.entry) ->
      Printf.printf "%-10s %s\n" e.name e.descr)
    Shasta_apps.Apps.all

(* Each knob is parsed once, here, by a converter built from the
   library's own parser (or by [Arg.enum]): a malformed value is
   reported against the option's name, and [run] and [model_check]
   only ever see typed values. *)
let parsed ~docv parse print =
  Arg.conv ~docv
    ( (fun s -> try Ok (parse s) with Invalid_argument e -> Error (`Msg e)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

let net_c =
  parsed ~docv:"NET"
    (fun s -> (s, Shasta_network.Network.profile_of_string s))
    fst

let net_faults_c =
  parsed ~docv:"SPEC" Shasta_network.Network.faults_of_string (function
    | None -> "none"
    | Some f -> Shasta_network.Network.describe_faults f)

let node_faults_c =
  parsed ~docv:"SPEC" Nodefaults.of_string (function
    | None -> "none"
    | Some nf -> Nodefaults.describe nf)

(* Counts and sizes: a value outside the range is an error against the
   option's name, never clamped or ignored. *)
let int_at_least ~docv lo =
  let what = if lo = 0 then "a non-negative" else "a positive" in
  Arg.conv ~docv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "%s integer is required, got %S" what s))),
      Format.pp_print_int )

let count_c = int_at_least ~docv:"N" 0
let positive_c = int_at_least ~docv:"N" 1

let dir_mode_c =
  let module Ns = Shasta_protocol.Nodeset in
  Arg.conv ~docv:"MODE"
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Ns.mode_of_string s)),
      fun ppf m -> Format.pp_print_string ppf (Ns.mode_name m) )

let cmd =
  let app_t =
    Arg.(value & opt string "lu" & info [ "app"; "a" ] ~doc:"Workload name.")
  in
  let size_t =
    Arg.(value
         & opt
             (enum
                [ ("test", Shasta_apps.Apps.Test);
                  ("small", Shasta_apps.Apps.Small);
                  ("large", Shasta_apps.Apps.Large) ])
             Shasta_apps.Apps.Small
         & info [ "size" ] ~doc:"Problem size: test, small or large.")
  in
  let procs_t =
    Arg.(value & opt int 4 & info [ "procs"; "p" ] ~doc:"Processor count.")
  in
  let net_t =
    Arg.(value & opt net_c ("mc", Shasta_network.Network.memory_channel)
         & info [ "net" ] ~doc:"Network profile: mc, atm or ideal.")
  in
  let net_faults_t =
    Arg.(value & opt net_faults_c None
         & info [ "net-faults" ] ~docv:"SPEC"
             ~doc:"Make the wire unreliable beneath the reliable-delivery \
                   sublayer.  SPEC is 'none', 'standard' (drop 1%, dup \
                   1%, reorder 2%) or comma-separated key=value pairs \
                   among drop, dup, reorder, delay, delay-cycles, seed, \
                   rto and max-retx (bound per-channel retransmissions), \
                   e.g. 'drop=0.05,seed=3'.  Deterministic per seed.")
  in
  let node_faults_t =
    Arg.(value & opt node_faults_c None
         & info [ "node-faults" ] ~docv:"SPEC"
             ~doc:"Crash (and optionally restart) whole nodes mid-run.  \
                   SPEC is 'none' or comma-separated key=value pairs \
                   among crash=NODE@CYCLE (NODE may be '*' for a seeded \
                   victim), recover=NODE@CYCLE, lease=CYCLES (liveness \
                   lease horizon driving detection) and seed=S.  The \
                   surviving coordinator reconstructs the directory, \
                   takes over the victim's locks and re-serves its \
                   in-flight replies from salvaged memory; the run's \
                   report then skips the dead node's shards.  \
                   Deterministic per seed.")
  in
  let cpu_t =
    Arg.(value
         & opt
             (enum
                [ ("21064a", Shasta_machine.Pipeline.alpha_21064a);
                  ("21164", Shasta_machine.Pipeline.alpha_21164) ])
             Shasta_machine.Pipeline.alpha_21064a
         & info [ "cpu" ] ~doc:"Pipeline model: 21064a or 21164.")
  in
  let line_t =
    Arg.(value & opt (enum [ ("64", 64); ("128", 128) ]) 64
         & info [ "line" ] ~doc:"Line size (64 or 128).")
  in
  let no_instrument_t =
    Arg.(value & flag
         & info [ "no-instrument" ]
             ~doc:"Run the original binary (one processor only).")
  in
  let no_sched_t = Arg.(value & flag & info [ "no-sched" ] ~doc:"Disable check scheduling.") in
  let no_flag_t = Arg.(value & flag & info [ "no-flag" ] ~doc:"Disable flag load checks.") in
  let no_excl_t = Arg.(value & flag & info [ "no-excl" ] ~doc:"Disable the exclusive table.") in
  let no_batch_t = Arg.(value & flag & info [ "no-batch" ] ~doc:"Disable batching.") in
  let poll_t =
    Arg.(value
         & opt
             (enum
                [ ("none", Shasta.Opts.Poll_none);
                  ("fn", Shasta.Opts.Poll_fn_entry);
                  ("loop", Shasta.Opts.Poll_loop) ])
             Shasta.Opts.Poll_loop
         & info [ "poll" ] ~doc:"Polling: none, fn or loop.")
  in
  let no_range_t = Arg.(value & flag & info [ "no-range" ] ~doc:"Drop the range check.") in
  let fixed_block_t =
    Arg.(value & opt (some positive_c) None
         & info [ "block" ] ~doc:"Force one block size in bytes (ablation).")
  in
  let threshold_t =
    Arg.(value & opt count_c 1024
         & info [ "threshold" ]
             ~doc:"Size cutoff of the block-size heuristic (Section 4.2).")
  in
  let sc_t =
    Arg.(value & flag
         & info [ "sc" ]
             ~doc:"Sequential consistency (stores stall; default is the \
                   paper's release-consistent protocol).")
  in
  let trace_t =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the typed event stream as text on stderr.")
  in
  let trace_out_t =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON trace (open in \
                   chrome://tracing or Perfetto; one track per node).")
  in
  let metrics_t =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the metrics registry: per-node and aggregate \
                   counters and histograms.")
  in
  let metrics_csv_t =
    Arg.(value & opt (some string) None
         & info [ "metrics-csv" ] ~docv:"FILE"
             ~doc:"Dump the metrics registry as CSV.")
  in
  let profile_t =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print the site profile: top-N hot sites (misses, \
                   stalls per code location), contended blocks with a \
                   false-sharing verdict, and protocol span latencies.")
  in
  let profile_out_t =
    Arg.(value & opt (some string) None
         & info [ "profile-out" ] ~docv:"FILE"
             ~doc:"Write the full (untruncated) site profile to FILE.")
  in
  let flame_out_t =
    Arg.(value & opt (some string) None
         & info [ "flame-out" ] ~docv:"FILE"
             ~doc:"Write collapsed call stacks (fn;fn;site count) to \
                   FILE, for flamegraph tools.")
  in
  let top_t =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows shown in the profile tables (default 10).")
  in
  let show_asm_t =
    Arg.(value & flag
         & info [ "asm" ] ~doc:"Disassemble the instrumented executable.")
  in
  let list_t =
    Arg.(value & flag & info [ "list" ] ~doc:"List available workloads.")
  in
  let check_t =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Model-check the protocol core: exhaustively enumerate \
                   every interleaving of small built-in scenarios and \
                   verify coherence invariants, quiescence and data \
                   oracles.  Exits non-zero on a violation.")
  in
  let inject_t =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("drop-ack", Mcheck.Drop_first_inv_ack);
                     ("no-dedup", Mcheck.Retransmit_no_dedup);
                     ("reorder-release", Mcheck.Store_past_release) ]))
             None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"With --check: inject a bug (drop-ack drops the first \
                   invalidation acknowledgement; no-dedup removes the \
                   sublayer's receiver-side dedup, needs --lossy; \
                   reorder-release sinks a store commit past its lock \
                   release — invisible to every invariant, caught only \
                   by --refine).  Success inverts: the checker must \
                   find and print a counterexample.")
  in
  let lossy_t =
    Arg.(value & opt (some count_c) None
         & info [ "lossy" ] ~docv:"BUDGET"
             ~doc:"With --check: model-check over the unreliable wire \
                   under the reliable-delivery sublayer, giving the \
                   adversary BUDGET drop/dup/reorder moves per channel.")
  in
  let crash_t =
    Arg.(value & opt count_c 0
         & info [ "crash" ] ~docv:"N"
             ~doc:"With --check: give the node-crash adversary N halt \
                   moves — at any state it may kill any node (while two \
                   or more are live), with the surviving coordinator \
                   reconstructing directory, lock and in-flight state.  \
                   Data oracles are skipped once a crash fires; \
                   invariants, survivor liveness and quiescence are \
                   still required.  Needs the reliable wire.")
  in
  let recover_t =
    Arg.(value & opt count_c 0
         & info [ "recover" ] ~docv:"N"
             ~doc:"With --check --crash: also give the adversary N \
                   restart moves that bring crashed nodes back into \
                   protocol duty; terminal states must be quiescent \
                   post-recovery.")
  in
  let fuzz_only_t =
    Arg.(value & flag
         & info [ "fuzz-only" ]
             ~doc:"With --check: skip the exhaustive pass and only run \
                   the seeded random-walk fuzzer (for configurations \
                   whose full state space is too large, e.g. --lossy at \
                   3 processors).")
  in
  let fuzz_seed_t =
    Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~doc:"Fuzzer seed.")
  in
  let fuzz_runs_t =
    Arg.(value & opt count_c 50
         & info [ "fuzz-runs" ]
             ~doc:"Random interleavings per scenario after the exhaustive \
                   pass (0 disables).")
  in
  let kv_t =
    Arg.(value & flag
         & info [ "kv" ]
             ~doc:"Drive the sharded hash table (--app sht) with a \
                   YCSB-style key-value workload built from the --kv-* \
                   flags, and print the end-of-run report (simulated \
                   throughput, per-operation latency percentiles, \
                   table and shard-handoff accounting).")
  in
  let kv_ops_t =
    Arg.(value & opt positive_c 100_000
         & info [ "kv-ops" ] ~docv:"N"
             ~doc:"Total run-phase operations across all nodes.")
  in
  let kv_mix_t =
    Arg.(value & opt string "b"
         & info [ "kv-mix" ] ~docv:"MIX"
             ~doc:"Operation mix: a (50/50 read/update), b (95/5), c \
                   (read-only), e (95/5 scan/insert) or m \
                   (40/40/10/10 read/update/delete/scan).")
  in
  let kv_theta_t =
    Arg.(value & opt float 0.99
         & info [ "kv-theta" ] ~docv:"THETA"
             ~doc:"Zipfian skew of the key popularity (0 or negative \
                   selects the uniform distribution).")
  in
  let kv_keys_t =
    Arg.(value & opt (some int) None
         & info [ "kv-keys" ] ~docv:"N"
             ~doc:"Key-space size (default picked by --size).")
  in
  let kv_seed_t =
    Arg.(value & opt int 42
         & info [ "kv-seed" ]
             ~doc:"Workload seed; identical seeds give byte-identical \
                   reports.")
  in
  let kv_report_t =
    Arg.(value & flag
         & info [ "kv-report" ]
             ~doc:"With --kv: also attach the site profiler and print \
                   per-request-kind protocol span latency percentiles \
                   under the report.")
  in
  let bench_out_t =
    Arg.(value & opt (some string) None
         & info [ "bench-out" ] ~docv:"FILE"
             ~doc:"Write the KV report as one JSON object to FILE \
                   (implies --kv).")
  in
  let kv_opts_t =
    let mk kv kv_ops kv_mix kv_theta kv_keys kv_seed kv_report bench_out =
      { kv; kv_ops; kv_mix; kv_theta; kv_keys; kv_seed; kv_report;
        bench_out }
    in
    Term.(
      const mk $ kv_t $ kv_ops_t $ kv_mix_t $ kv_theta_t $ kv_keys_t
      $ kv_seed_t $ kv_report_t $ bench_out_t)
  in
  let replay_t =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:"Record every protocol-core input during the run, then \
                   replay the log through the pure transition core and \
                   verify it reproduces the exact final protocol state.")
  in
  let progress_t =
    Arg.(value & opt (some int) None
         & info [ "progress" ] ~docv:"N"
             ~doc:"Print a heartbeat line to stderr (and emit a runtime \
                   heartbeat event) every N million simulated cycles. Off \
                   by default so runs stay byte-identical.")
  in
  let dir_mode_t =
    Arg.(value & opt dir_mode_c Shasta_protocol.Nodeset.Full
         & info [ "dir-mode" ] ~docv:"MODE"
             ~doc:"Directory organization: full (one presence bit per \
                   node, up to 61 nodes), limited[:K] (K sharer pointers \
                   per entry, overflowing to broadcast-with-exclusions; \
                   default K=4).  The processor count is validated \
                   against the mode's capacity.")
  in
  let home_policy_t =
    Arg.(value & opt (enum home_policies) State.Round_robin
         & info [ "home-policy" ] ~docv:"POLICY"
             ~doc:"Home assignment: rr (pages round-robin across nodes, \
                   the default), first-touch (pages homed at the \
                   allocating node) or migrate (a page's home follows \
                   sustained remote access at run time).")
  in
  let sync_t =
    Arg.(value & opt (enum [ ("central", false); ("scalable", true) ]) false
         & info [ "sync" ] ~docv:"KIND"
             ~doc:"Synchronization primitives: central (home-node lock \
                   grants and a flat barrier) or scalable (MCS-style \
                   queue locks with direct release-to-successor handoff \
                   and a combining-tree barrier).")
  in
  let refine_t =
    Arg.(value & flag
         & info [ "refine" ]
             ~doc:"With --check: also check state-machine refinement \
                   against an atomic-step serial-memory specification — \
                   every load/store/sync commit maps to exactly one \
                   spec step, all other protocol activity is \
                   stuttering, crash boundaries resolve in-flight \
                   stores to committed-before-or-never, and a \
                   vector-clock race detector validates each \
                   scenario's DRF claim.  Divergence counterexamples \
                   print the full commit history.")
  in
  let scale_check_t =
    Arg.(value & flag
         & info [ "scale" ]
             ~doc:"With --check: model-check the scaling scenarios \
                   instead of the base set (limited-pointer overflow to \
                   broadcast, the stale-home trap, the queue lock and \
                   the combining-tree barrier).")
  in
  let main list check inject lossy crash recover fuzz_only fuzz_seed
      fuzz_runs scale_check refine app size procs net net_faults node_faults
      cpu line no_instrument no_sched no_flag no_excl no_batch poll no_range
      fixed_block threshold sc trace trace_out metrics metrics_csv profile
      profile_out flame_out top show_asm replay progress dir_mode
      home_policy sync kvo =
    try
      if list then list_apps ()
      else if check then
        model_check procs inject fuzz_seed fuzz_runs lossy crash recover
          fuzz_only scale_check refine dir_mode sync
      else
        run app size procs net net_faults node_faults cpu line no_instrument
          no_sched no_flag no_excl no_batch poll no_range fixed_block
          threshold sc trace trace_out metrics metrics_csv profile
          profile_out flame_out top show_asm replay progress dir_mode
          home_policy sync kvo
    with
    | Failure e | Invalid_argument e ->
      prerr_endline ("shasta_run: " ^ e);
      exit 2
    | Cluster.Deadlock d ->
      prerr_endline ("shasta_run: deadlock: " ^ d);
      exit 2
  in
  let term =
    Term.(
      const main $ list_t $ check_t $ inject_t $ lossy_t $ crash_t
      $ recover_t $ fuzz_only_t $ fuzz_seed_t $ fuzz_runs_t $ scale_check_t
      $ refine_t
      $ app_t $ size_t $ procs_t $ net_t $ net_faults_t $ node_faults_t
      $ cpu_t
      $ line_t $ no_instrument_t $ no_sched_t $ no_flag_t $ no_excl_t
      $ no_batch_t $ poll_t $ no_range_t $ fixed_block_t $ threshold_t
      $ sc_t $ trace_t $ trace_out_t $ metrics_t $ metrics_csv_t
      $ profile_t $ profile_out_t $ flame_out_t $ top_t $ show_asm_t
      $ replay_t $ progress_t $ dir_mode_t $ home_policy_t $ sync_t
      $ kv_opts_t)
  in
  Cmd.v
    (Cmd.info "shasta_run"
       ~doc:"Run a workload under the Shasta fine-grain software DSM")
    term

let () = exit (Cmd.eval cmd)
