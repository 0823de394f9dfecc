(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus the ablations DESIGN.md calls out.

   Usage: dune exec bench/main.exe [-- --quick] [--json-out FILE]
            [--progress N] [section ...]
   Sections: figures table1 table2 table3 parallel granularity polling
             excltable consistency messages faults throughput kv crash
             scaling micro (default: all).

   Absolute numbers differ from the paper (the substrate is a simulator,
   not a 275 MHz Alpha cluster); the shapes — which technique helps
   which application, who wins and by roughly what factor — are the
   reproduction target.  EXPERIMENTS.md records paper-vs-measured.

   --json-out writes every emitting section's versioned BENCH records
   (one JSON line each, the Benchjson schema) to FILE.  A record holds
   only simulated metrics, so the file is byte-identical across runs
   and machines and can serve as a checked-in baseline;
   bin/bench_gate.exe compares two such files.  Oracle/consistency
   failures make the harness exit non-zero. *)

open Shasta
open Shasta_minic.Builder
open Shasta_runtime
module Table = Shasta_stats.Table
module Obs = Shasta_obs.Obs
module Metrics = Shasta_obs.Metrics
module Benchjson = Shasta_obs.Benchjson

let quick = ref false
let json_out : string option ref = ref None
let progress : int option ref = ref None

let app_size () =
  if !quick then Shasta_apps.Apps.Test else Shasta_apps.Apps.Small

(* ------------------------------------------------------------------ *)
(* helpers                                                              *)
(* ------------------------------------------------------------------ *)

(* Oracle/consistency checks: a failed check is reported immediately
   and makes the harness exit non-zero, so CI cannot silently pass a
   wrong bench run. *)
let failures = ref 0

let check ~what cond =
  if not cond then begin
    incr failures;
    Printf.eprintf "BENCH FAILURE: %s\n%!" what
  end

(* BENCH records accumulated by the emitting sections, written as JSON
   lines at exit when --json-out is set. *)
let bench_records : Benchjson.t list ref = ref []

let emit_bench r = bench_records := r :: !bench_records

let write_bench path =
  let recs = List.rev !bench_records in
  let oc = open_out path in
  List.iter
    (fun r ->
      output_string oc (Benchjson.emit r);
      output_char oc '\n')
    recs;
  close_out oc;
  Printf.printf "wrote %d BENCH record(s) to %s\n" (List.length recs) path

let run_cycles ?(opts = Some Opts.full) ?(nprocs = 1)
    ?(pipe = Shasta_machine.Pipeline.alpha_21064a)
    ?(net = Shasta_network.Network.memory_channel) ?net_faults ?node_faults
    ?fixed_block ?obs prog =
  let spec =
    { (Api.default_spec prog) with
      opts; nprocs; pipe; net; net_faults; node_faults; fixed_block; obs;
      progress = !progress }
  in
  let r = Api.run spec in
  (r.phase.wall_cycles, r)

(* Drive the phases by hand so the cache model's counters are visible. *)
let run_with_caches ~opts prog =
  let spec = { (Api.default_spec prog) with opts = Some opts; nprocs = 1 } in
  let state, _, _ = Api.prepare spec in
  let ph = Cluster.run_app state in
  let dmisses =
    Array.fold_left
      (fun a (n : Node.t) -> a + n.caches.l1d.misses)
      0 state.nodes
  in
  (ph, dmisses)

let fresh_gen () =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "L%d" !n

(* ------------------------------------------------------------------ *)
(* figures: the generated check code next to the paper's listings       *)
(* ------------------------------------------------------------------ *)

let print_code title (w : Check.wrapped) ~around =
  Printf.printf "%s\n" title;
  List.iter (fun i -> Printf.printf "  %s\n" (Shasta_isa.Asm.to_string i)) w.pre;
  (match around with
   | Some s -> Printf.printf "  %s   <-- original access\n" s
   | None -> ());
  List.iter (fun i -> Printf.printf "  %s\n" (Shasta_isa.Asm.to_string i)) w.post;
  print_newline ()

let section_figures () =
  Table.section "Figures 2/4/5/6: generated miss-check code";
  print_code "Figure 2 - basic store miss check (state table):"
    (Check.store_check Opts.basic ~fresh:(fresh_gen ()) ~free:[ 1; 2 ] ~base:3
       ~disp:16 ~ssize:Shasta_isa.Insn.Quad)
    ~around:(Some "\tstq r9, 16(r3)");
  print_code
    "Figure 4 - rescheduled store check (shift delay slot filled,\n\
    \           first three instructions hoisted above the store):"
    (Check.store_check Opts.with_schedule ~fresh:(fresh_gen ()) ~free:[ 1; 2 ]
       ~base:3 ~disp:16 ~ssize:Shasta_isa.Insn.Quad)
    ~around:(Some "\tstq r9, 16(r3)");
  print_code "Figure 5(a) - flag-technique integer load check:"
    (Check.load_check Opts.with_flag ~fresh:(fresh_gen ()) ~free:[ 1 ] ~base:2
       ~disp:8
       ~refill:(Shasta_isa.Insn.Rint (4, Shasta_isa.Insn.Quad)))
    ~around:(Some "\tldq r4, 8(r2)");
  print_code
    "Figure 5(b) - flag-technique FP load check (extra integer load):"
    (Check.load_check Opts.with_flag ~fresh:(fresh_gen ()) ~free:[ 1 ] ~base:2
       ~disp:8 ~refill:(Shasta_isa.Insn.Rflt 5))
    ~around:(Some "\tldt f5, 8(r2)");
  print_code "Section 3.3 - exclusive-table store check:"
    (Check.store_check Opts.with_excl ~fresh:(fresh_gen ()) ~free:[ 1; 2; 3 ]
       ~base:4 ~disp:0 ~ssize:Shasta_isa.Insn.Quad)
    ~around:(Some "\tstq r9, 0(r4)");
  print_code "Figure 6 - batched load check (two endpoints, interleaved):"
    (Check.batch_check Opts.with_batch ~fresh:(fresh_gen ())
       ~free:[ 1; 2; 3; 4 ]
       { Shasta_isa.Insn.ranges =
           [ { rbase = 5;
               accesses =
                 [ { disp = 0; asize = Quad; is_store = false };
                   { disp = 40; asize = Quad; is_store = false } ] }
           ] })
    ~around:None

(* ------------------------------------------------------------------ *)
(* table 1: static instruction and measured cycle costs per check       *)
(* ------------------------------------------------------------------ *)

(* A microbenchmark with checked accesses of one kind per iteration; the
   per-check cycle cost is the cycle delta against the uninstrumented
   binary divided by the dynamic check count. *)
let t1_prog body =
  prog
    ~globals:[ ("a", I) ]
    [ proc "appinit" [ gset "a" (Gmalloc (i 8192)) ];
      proc "work"
        ([ let_i "s" (i 0); let_f "x" (f 0.0); let_i "p" (g "a") ]
         @ [ for_ "k" (i 0) (i 500) (body ()) ]
         @ [ print_int (v "s"); print_flt (v "x") ])
    ]

(* one access per distinct base register: not batchable *)
let t1_iload () =
  [ set "s" (v "s" +% ldi (g "a") (v "k" &% i 63));
    set "s" (v "s" +% ldi (g "a") ((v "k" +% i 64) &% i 127)) ]

let t1_fload () =
  [ set "x" (v "x" +. ldf (g "a") (v "k" &% i 63));
    set "x" (v "x" +. ldf (g "a") ((v "k" +% i 64) &% i 127)) ]

let t1_istore () =
  [ sti (g "a") (v "k" &% i 63) (v "k");
    sti (g "a") ((v "k" +% i 64) &% i 127) (v "k") ]

let t1_batch_load () =
  [ set "s"
      (v "s" +% fld_i (v "p") 0 +% fld_i (v "p") 8 +% fld_i (v "p") 16
       +% fld_i (v "p") 24)
  ]

let t1_batch_store () =
  [ set_fld_i (v "p") 0 (v "k");
    set_fld_i (v "p") 8 (v "k");
    set_fld_i (v "p") 16 (v "k");
    set_fld_i (v "p") 24 (v "k")
  ]

let static_count (w : Check.wrapped) =
  List.length
    (List.filter
       (fun i ->
         Shasta_isa.Insn.bytes i > 0
         &&
         match i with
         | Shasta_isa.Insn.Call_load_miss _ | Call_store_miss _
         | Call_batch_miss _ ->
           false
         | _ -> true)
       (w.pre @ w.post))

let section_table1 () =
  Table.section "Table 1: instruction and cycle counts for miss checks";
  let insns_load =
    static_count
      (Check.load_check Opts.full ~fresh:(fresh_gen ()) ~free:[ 1 ] ~base:2
         ~disp:8 ~refill:(Rint (4, Quad)))
  in
  let insns_fload =
    static_count
      (Check.load_check Opts.full ~fresh:(fresh_gen ()) ~free:[ 1 ] ~base:2
         ~disp:8 ~refill:(Rflt 5))
  in
  let insns_store =
    static_count
      (Check.store_check Opts.full ~fresh:(fresh_gen ()) ~free:[ 1; 2; 3 ]
         ~base:2 ~disp:8 ~ssize:Quad)
  in
  let insns_batch_ld =
    static_count
      (Check.batch_check Opts.full ~fresh:(fresh_gen ()) ~free:[ 1; 2; 3; 4 ]
         { ranges =
             [ { rbase = 5;
                 accesses =
                   [ { disp = 0; asize = Quad; is_store = false };
                     { disp = 24; asize = Quad; is_store = false } ] }
             ] })
  in
  let insns_batch_st =
    static_count
      (Check.batch_check Opts.full ~fresh:(fresh_gen ()) ~free:[ 1; 2; 3; 4 ]
         { ranges =
             [ { rbase = 5;
                 accesses =
                   [ { disp = 0; asize = Quad; is_store = true };
                     { disp = 24; asize = Quad; is_store = true } ] }
             ] })
  in
  let measure pipe body checks_per_iter =
    let p = t1_prog body in
    let base, _ = run_cycles ~opts:None ~pipe p in
    let inst, _ = run_cycles ~opts:(Some Opts.with_loop_poll) ~pipe p in
    Stdlib.( /. ) (float_of_int (inst - base)) (Stdlib.( *. ) 500.0 checks_per_iter)
  in
  let t =
    Table.create [ "check"; "insns"; "cycles 21064A"; "cycles 21164" ]
  in
  let row name insns body per_iter =
    Table.add_row t
      [ name; string_of_int insns;
        Table.f1 (measure Shasta_machine.Pipeline.alpha_21064a body per_iter);
        Table.f1 (measure Shasta_machine.Pipeline.alpha_21164 body per_iter) ]
  in
  row "integer load (flag)" insns_load t1_iload 2.0;
  row "FP load (flag)" insns_fload t1_fload 2.0;
  row "store (excl table)" insns_store t1_istore 2.0;
  row "batch of 4 loads" insns_batch_ld t1_batch_load 1.0;
  row "batch of 4 stores" insns_batch_st t1_batch_store 1.0;
  let c64 = Shasta_machine.Pipeline.alpha_21064a
  and c164 = Shasta_machine.Pipeline.alpha_21164 in
  Table.add_row t
    [ "(ref) load latency"; "1"; string_of_int c64.load_latency;
      string_of_int c164.load_latency ];
  Table.add_row t
    [ "(ref) integer op"; "1"; string_of_int c64.int_latency;
      string_of_int c164.int_latency ];
  Table.add_row t
    [ "(ref) FP op"; "1"; string_of_int c64.fp_latency;
      string_of_int c164.fp_latency ];
  Table.print t;
  print_string
    "Cycle figures are measured dynamically (delta vs the original\n\
     binary / dynamic checks); batch rows are per batch check covering 4\n\
     accesses.  Expected shape: store checks several times a flag load\n\
     check; a batch check well under the cost of 4 individual checks;\n\
     21164 cheaper than 21064A.\n"

(* ------------------------------------------------------------------ *)
(* table 2: single-processor checking overhead per application          *)
(* ------------------------------------------------------------------ *)

let section_table2 () =
  Table.section
    "Table 2: run-time overhead factor of miss checks (1 processor)";
  let cols = Opts.table2_columns in
  let t = Table.create ("application" :: List.map fst cols) in
  List.iter
    (fun (e : Shasta_apps.Apps.entry) ->
      let p = e.make (app_size ()) in
      let base, _ = run_cycles ~opts:None p in
      let row =
        List.map
          (fun (_, opts) ->
            let c, _ = run_cycles ~opts:(Some opts) p in
            Table.f2 (Table.ratio c base))
          cols
      in
      Table.add_row t (e.name :: row))
    Shasta_apps.Apps.all;
  Table.print t;
  print_string
    "Columns accumulate the paper's techniques left to right: basic\n\
     checks, +instruction scheduling, +flag loads, +exclusive table,\n\
     +batching (the bold column of the paper), then polling at function\n\
     entries / loop backedges, and finally dropping the range check.\n"

(* ------------------------------------------------------------------ *)
(* table 3: frequency of instrumented accesses                          *)
(* ------------------------------------------------------------------ *)

let section_table3 () =
  Table.section "Table 3: frequency of instrumented accesses";
  let t =
    Table.create
      [ "application"; "static loads"; "static stores"; "dyn shared loads";
        "dyn shared stores"; "batches" ]
  in
  List.iter
    (fun (e : Shasta_apps.Apps.entry) ->
      let p = e.make (app_size ()) in
      let _, r = run_cycles ~opts:(Some Opts.full) p in
      let s = Option.get r.inst_stats in
      let c = r.phase.counters.(0) in
      Table.add_row t
        [ e.name;
          Printf.sprintf "%d/%d (%s)" s.loads_instrumented s.loads_total
            (Table.pct (Table.ratio s.loads_instrumented s.loads_total));
          Printf.sprintf "%d/%d (%s)" s.stores_instrumented s.stores_total
            (Table.pct (Table.ratio s.stores_instrumented s.stores_total));
          Table.pct (Table.ratio c.dyn_loads_shared c.dyn_loads);
          Table.pct (Table.ratio c.dyn_stores_shared c.dyn_stores);
          string_of_int s.batches ])
    Shasta_apps.Apps.all;
  Table.print t;
  print_string
    "Static columns: accesses the rewriter instruments (not provably\n\
     SP/GP-derived).  Dynamic columns: executed loads/stores whose\n\
     target is in the shared range; the gap is pointer-reached private\n\
     data, which the inline range check filters at run time.\n"

(* ------------------------------------------------------------------ *)
(* parallel performance                                                 *)
(* ------------------------------------------------------------------ *)

let section_parallel () =
  Table.section "Section 5.4: parallel speedups (Memory Channel, full opts)";
  (* larger problems: the paper's parallel runs are seconds of real
     computation, so communication must not dominate trivially *)
  let psize () =
    if !quick then Shasta_apps.Apps.Test else Shasta_apps.Apps.Large
  in
  let procs = if !quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let t =
    Table.create
      (("application" :: List.map (fun p -> Printf.sprintf "P=%d" p) procs)
       @ [ "msgs@Pmax"; "misses@Pmax" ])
  in
  List.iter
    (fun (e : Shasta_apps.Apps.entry) ->
      let p = e.make (psize ()) in
      let c1, _ = run_cycles ~opts:(Some Opts.full) ~nprocs:1 p in
      let cells, last =
        List.fold_left
          (fun (acc, _) np ->
            let c, r = run_cycles ~opts:(Some Opts.full) ~nprocs:np p in
            (acc @ [ Table.f2 (Table.ratio c1 c) ], Some r))
          ([], None) procs
      in
      let last = Option.get last in
      (* message and miss totals come from the phase's metrics
         registry: the parallel-phase delta of the typed event stream *)
      let total = Metrics.counter_total last.phase.metrics in
      let misses =
        total Obs.c_miss_read + total Obs.c_miss_write
        + total Obs.c_miss_upgrade
      in
      Table.add_row t
        ((e.name :: cells)
         @ [ string_of_int (total Obs.c_msg_sent); string_of_int misses ]))
    Shasta_apps.Apps.all;
  Table.print t;
  print_string
    "Speedup over the instrumented 1-processor run.  Modest speedups\n\
     are the expected shape for a software DSM on a workstation cluster\n\
     (matching the spirit of the paper's preliminary parallel results):\n\
     compute-dense applications scale best; fine-grain communicators\n\
     are bounded by message latency and handling.\n"

(* ------------------------------------------------------------------ *)
(* granularity ablation                                                 *)
(* ------------------------------------------------------------------ *)

let section_granularity () =
  Table.section
    "Section 4.2: multiple coherence granularities (block-size ablation)";
  let np = if !quick then 2 else 8 in
  let t =
    Table.create
      [ "workload"; "64B blocks"; "512B blocks"; "2048B blocks"; "variable" ]
  in
  let run_fixed prog fb =
    let c, _ =
      run_cycles ~opts:(Some Opts.full) ~nprocs:np ?fixed_block:fb prog
    in
    c
  in
  let row name prog =
    let v = run_fixed prog None in
    Table.add_row t
      [ name;
        Table.f2 (Table.ratio (run_fixed prog (Some 64)) v);
        Table.f2 (Table.ratio (run_fixed prog (Some 512)) v);
        Table.f2 (Table.ratio (run_fixed prog (Some 2048)) v);
        "1.00" ]
  in
  row "false sharing"
    (Shasta_apps.Micro.false_sharing ~iters:(if !quick then 50 else 400) ());
  row "streaming"
    (Shasta_apps.Micro.stream ~nwords:(if !quick then 512 else 4096) ());
  (* the paper's special version of malloc: the programmer requests a
     2 KB block size for the streamed buffer, overriding the heuristic *)
  let tuned =
    run_fixed
      (Shasta_apps.Micro.stream ~nwords:(if !quick then 512 else 4096)
         ~block:2048 ())
      None
  and untuned =
    run_fixed
      (Shasta_apps.Micro.stream ~nwords:(if !quick then 512 else 4096) ())
      None
  in
  Table.add_row t
    [ "streaming (tuned malloc)"; "-"; "-"; "-";
      Table.f2 (Table.ratio tuned untuned) ];
  row "water (records)"
    (Shasta_apps.Water.program ~nmol:(if !quick then 24 else 64) ~steps:1 ());
  row "lu" (Shasta_apps.Lu.program ~n:(if !quick then 16 else 32) ~bs:8 ());
  Table.print t;
  print_string
    "Cells are run time relative to the variable (per-allocation\n\
     heuristic) granularity; above 1.00 means that fixed size is slower.\n\
     No single fixed size wins everywhere: false sharing wants per-line\n\
     blocks (its small hot array is exactly the case where the\n\
     programmer overrides the size heuristic with the special malloc),\n\
     streaming and blocked LU want large ones, record-sharing Water is\n\
     hurt by anything coarser than its records — the paper's argument\n\
     for multiple granularities within one application.\n"

(* ------------------------------------------------------------------ *)
(* polling ablation                                                     *)
(* ------------------------------------------------------------------ *)

let section_polling () =
  Table.section "Section 2.2: polling placement (parallel run time)";
  let np = if !quick then 2 else 4 in
  let t =
    Table.create
      [ "application"; "fn-entry polls"; "loop polls"; "polls/insn" ]
  in
  List.iter
    (fun name ->
      let e = Shasta_apps.Apps.find name in
      let p = e.make (app_size ()) in
      let cf, _ = run_cycles ~opts:(Some Opts.with_fn_poll) ~nprocs:np p in
      let cl, r = run_cycles ~opts:(Some Opts.with_loop_poll) ~nprocs:np p in
      let polls =
        Array.fold_left
          (fun a (c : Node.counters) -> a + c.polls)
          0 r.phase.counters
      in
      let insns =
        Array.fold_left
          (fun a (c : Node.counters) -> a + c.insns)
          0 r.phase.counters
      in
      Table.add_row t
        [ name; Table.f2 (Table.ratio cf cl); "1.00";
          Table.pct (Table.ratio polls insns) ])
    [ "lu"; "ocean"; "water"; "raytrace" ];
  Table.print t;
  print_string
    "Run time with function-entry polling relative to loop-backedge\n\
     polling.  Loop polling services requests sooner at slightly higher\n\
     inline cost (within a few percent on one processor, per Table 2).\n"

(* ------------------------------------------------------------------ *)
(* exclusive-table ablation (Radix, poor locality)                      *)
(* ------------------------------------------------------------------ *)

let section_excltable () =
  Table.section
    "Section 3.3: exclusive table vs state table under poor locality";
  let t =
    Table.create [ "workload"; "check metadata"; "cycles"; "L1D misses" ]
  in
  (* the effect needs the check metadata to outgrow the caches: at full
     size the keys span 4 MB, so the state table (64 KB) thrashes while
     the exclusive table (8 KB) stays resident *)
  let p =
    Shasta_apps.Radix.program
      ~nkeys:(if !quick then 1024 else 1 lsl 18)
      ~max_bits:20 ()
  in
  let with_state = { Opts.with_flag with batching = false } in
  let with_excl = { Opts.with_excl with batching = false } in
  let base, _ = run_cycles ~opts:None p in
  let ph_s, dm_s = run_with_caches ~opts:with_state p in
  let ph_e, dm_e = run_with_caches ~opts:with_excl p in
  Table.addf t "radix\tstate table (byte/line)\t%d (overhead %s)\t%d"
    ph_s.wall_cycles
    (Table.f2 (Table.ratio ph_s.wall_cycles base))
    dm_s;
  Table.addf t "radix\texclusive table (bit/line)\t%d (overhead %s)\t%d"
    ph_e.wall_cycles
    (Table.f2 (Table.ratio ph_e.wall_cycles base))
    dm_e;
  Table.add_row t
    [ "radix"; "excl/state ratio";
      Table.f2 (Table.ratio ph_e.wall_cycles ph_s.wall_cycles);
      Table.f2 (Table.ratio dm_e dm_s) ];
  Table.print t;
  print_string
    "The exclusive table packs 8 lines of store-check metadata per byte,\n\
     cutting the hardware cache misses the checks add on scattered\n\
     writes — the paper singles out Radix for exactly this effect.\n"

(* ------------------------------------------------------------------ *)
(* consistency-model ablation                                           *)
(* ------------------------------------------------------------------ *)

let section_consistency () =
  Table.section
    "Section 4.1/4.3: release vs sequential consistency (parallel)";
  let np = if !quick then 2 else 4 in
  let t = Table.create [ "application"; "RC cycles"; "SC cycles"; "SC/RC" ] in
  List.iter
    (fun name ->
      let e = Shasta_apps.Apps.find name in
      let p = e.make (app_size ()) in
      let run c =
        Api.run
          { (Api.default_spec p) with nprocs = np; consistency = c }
      in
      let rc_r = run State.Release and sc_r = run State.Sequential in
      (* both models must compute the same answer — a divergence is a
         protocol bug, not a data point *)
      check
        ~what:(Printf.sprintf "consistency: %s RC/SC outputs differ" name)
        (rc_r.Api.phase.output = sc_r.Api.phase.output);
      let rc = rc_r.Api.phase.wall_cycles
      and sc = sc_r.Api.phase.wall_cycles in
      Table.add_row t
        [ name; string_of_int rc; string_of_int sc;
          Table.f2 (Table.ratio sc rc) ])
    [ "lu"; "ocean"; "water"; "radix" ];
  Table.print t;
  print_string
    "Under sequential consistency every store miss stalls until
     ownership and all invalidation acknowledgements arrive, and batch
     handlers wait for exclusive requests too (Section 4.3) — the cost
     the paper's non-stalling stores and relaxed model avoid.
"

(* ------------------------------------------------------------------ *)
(* message economy                                                      *)
(* ------------------------------------------------------------------ *)

let section_messages () =
  Table.section
    "Section 4: message counts per miss (no home confirmations,\n\
     piggybacked acks, upgrades without data)";
  let np = 4 in
  let t =
    Table.create
      [ "workload"; "read misses"; "write misses"; "upgrades"; "msgs";
        "msgs/miss"; "hot site" ]
  in
  List.iter
    (fun (name, p) ->
      (* run with a site profiler attached so a regression in any column
         is attributable to the code location that moved *)
      let obs = Obs.create ~nprocs:np () in
      let prof = Obs.Profile.create ~nprocs:np () in
      Obs.attach_profiler obs prof;
      let spec =
        { (Api.default_spec p) with
          opts = Some Opts.full; nprocs = np; obs = Some obs }
      in
      let r = Api.run spec in
      (* read straight from the observability registry (the parallel
         phase delta) rather than the per-node raw counters *)
      let total = Metrics.counter_total r.phase.metrics in
      let rd = total Obs.c_miss_read in
      let wr = total Obs.c_miss_write in
      let up = total Obs.c_miss_upgrade in
      let msgs = total Obs.c_msg_sent in
      let misses = max 1 (rd + wr + up) in
      let hot =
        match Obs.Profile.sites prof with
        | ((proc, pc), s) :: _ ->
          Printf.sprintf "%s (%d)"
            (Image.site_name r.state.State.image ~proc ~pc)
            (Obs.Profile.site_misses s + s.n_false)
        | [] -> "-"
      in
      Table.addf t "%s\t%d\t%d\t%d\t%d\t%s\t%s" name rd wr up msgs
        (Table.f2 (Table.ratio msgs misses))
        hot)
    [ ("stream", Shasta_apps.Micro.stream ~nwords:1024 ());
      ("migratory", Shasta_apps.Micro.migratory ~rounds:64 ());
      ("false sharing", Shasta_apps.Micro.false_sharing ~iters:100 ());
      ("ocean", Shasta_apps.Ocean.program ~n:34 ~iters:2 ()) ];
  Table.print t;
  print_string
    "A remote read miss costs 2 messages (request + data) when the home\n\
     has the data, 3 when forwarded to a dirty owner; upgrades avoid\n\
     the data transfer; invalidation acks go straight to the requester\n\
     with the expected count piggybacked on the reply.  Synchronization\n\
     messages are included in the totals.\n"

(* ------------------------------------------------------------------ *)
(* fault overhead: the reliable sublayer over an unreliable wire        *)
(* ------------------------------------------------------------------ *)

let section_faults () =
  Table.section
    "Unreliable network: overhead of the reliable-delivery sublayer\n\
     (standard fault matrix: drop 1%, dup 1%, reorder 2%)";
  let np = if !quick then 2 else 4 in
  let faults = Shasta_network.Network.standard in
  let t =
    Table.create
      [ "application"; "clean cycles"; "faulty cycles"; "overhead";
        "retx"; "dup"; "reorder"; "backoff cyc" ]
  in
  List.iter
    (fun (e : Shasta_apps.Apps.entry) ->
      let p = e.make (app_size ()) in
      let clean, clean_r = run_cycles ~opts:(Some Opts.full) ~nprocs:np p in
      let faulty, r =
        run_cycles ~opts:(Some Opts.full) ~nprocs:np ~net_faults:faults p
      in
      (* the reliable sublayer must hide the faults completely: the
         faulty run may only differ in time, never in output.  The sht
         output is a KV report whose latency/timestamp fields (and the
         timing-driven shard handoffs) legally move with the wire, so
         compare its timing-invariant projection — same canonicalization
         as the fault-matrix soak in test_faults.ml. *)
      let canon out =
        if e.name <> "sht" then out
        else
          let module Report = Shasta_workload.Report in
          let r = Report.strip_timing (Report.parse out) in
          Report.render
            { r with
              Report.migrations = 0;
              owned = Array.map (fun _ -> 0) r.Report.owned }
      in
      check
        ~what:
          (Printf.sprintf "faults: %s output differs under faulty wire" e.name)
        (canon clean_r.Api.phase.output = canon r.Api.phase.output);
      let fs = Shasta_network.Network.fault_stats r.state.State.net in
      Table.addf t "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d" e.name clean faulty
        (Table.f2 (Table.ratio faulty clean))
        fs.Shasta_network.Network.retxs fs.dups fs.reorders fs.backoff_cycles)
    Shasta_apps.Apps.all;
  Table.print t;
  print_string
    "Both runs compute identical results; the only cost of the faulty\n\
     wire is time: retransmission timeouts (exponential backoff) on\n\
     dropped frames, plus resequencing delay on reordered ones.\n\
     Duplicates are discarded at the receiver and cost nothing.\n"

(* ------------------------------------------------------------------ *)
(* perf trajectory: every seed app at P=1/2/4/8                        *)
(* ------------------------------------------------------------------ *)

let section_throughput () =
  Table.section
    "Perf trajectory: seed apps at P=1/2/4/8 (full opts)\n\
     simulated cycles per run";
  let procs = [ 1; 2; 4; 8 ] in
  let t =
    Table.create
      ("application" :: List.map (fun p -> Printf.sprintf "cyc P=%d" p) procs)
  in
  List.iter
    (fun (e : Shasta_apps.Apps.entry) ->
      let p = e.make (app_size ()) in
      let cells =
        List.map
          (fun np ->
            let spec =
              { (Api.default_spec p) with nprocs = np; progress = !progress }
            in
            let r = Api.run spec in
            emit_bench (Api.bench_record ~workload:e.name spec r);
            string_of_int r.Api.phase.wall_cycles)
          procs
      in
      Table.add_row t (e.name :: cells))
    Shasta_apps.Apps.all;
  Table.print t;
  print_string
    "The cycle columns are deterministic (byte-identical across runs\n\
     and machines) and gate on exact equality.\n"

(* ------------------------------------------------------------------ *)
(* KV service: YCSB-style mixes over the sharded hash table             *)
(* ------------------------------------------------------------------ *)

let section_kv () =
  Table.section
    "KV service: YCSB-style mixes on the sharded hash table\n\
     (Zipfian 0.99 keys; latency percentiles in simulated cycles)";
  let module W = Shasta_workload.Workload in
  let module Report = Shasta_workload.Report in
  let nkeys = if !quick then 256 else 1024 in
  let ops = if !quick then 2_000 else 20_000 in
  let cfg =
    { Shasta_apps.Sht.nbuckets = (if !quick then 128 else 512);
      slots = 8;
      handoff = 8 }
  in
  let procs = if !quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let t =
    Table.create
      [ "mix"; "procs"; "block"; "cycles"; "ops/Mcyc"; "p50"; "p95"; "p99";
        "handoffs" ]
  in
  List.iter
    (fun mix ->
      let wl = W.spec ~nkeys ~ops ~mix ~quanta:(min nkeys 1024) () in
      let prog = Shasta_apps.Sht.program ~cfg ~wl () in
      List.iter
        (fun np ->
          List.iter
            (fun block ->
              let _, r = run_cycles ~nprocs:np ~fixed_block:block prog in
              let rep = Report.parse r.Api.phase.output in
              check
                ~what:
                  (Printf.sprintf
                     "kv: mix %s P=%d block=%d reported %d error(s)"
                     (W.mix_name mix) np block
                     (rep.Report.errors + rep.Report.verify_errors))
                (rep.Report.errors + rep.Report.verify_errors = 0);
              emit_bench
                (Report.to_bench
                   ~workload:("kv-" ^ W.mix_name mix)
                   ~line:block ~messages:r.Api.phase.msgs_sent
                   ~misses:(Api.phase_misses r.Api.phase) rep);
              Table.addf t "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d"
                (W.mix_name mix) np block
                (Report.run_cycles rep)
                (Table.f2 (Report.ops_per_mcycle rep))
                (Report.percentile rep 50.0) (Report.percentile rep 95.0)
                (Report.percentile rep 99.0) rep.Report.migrations)
            [ 64; 128 ])
        procs)
    [ W.A; W.B; W.C ];
  Table.print t;
  print_string
    "Read-heavy mixes (b, c) scale with read-sharing of hot lines; the\n\
     update share of mix a turns popular buckets into migratory lines\n\
     and shows up directly in the p95/p99 tail.  Doubling the line size\n\
     trades fetch count against false sharing on adjacent buckets.\n"

(* ------------------------------------------------------------------ *)
(* Node crashes: the KV service surviving halt and halt+restart         *)
(* ------------------------------------------------------------------ *)

let section_crash () =
  Table.section
    "Node crash tolerance: KV service (b mix) with a node killed mid-run\n\
     (lease-expiry detection, directory rebuild, lock-lease takeover)";
  let module W = Shasta_workload.Workload in
  let module Report = Shasta_workload.Report in
  let module Obs = Shasta_obs.Obs in
  let nkeys = if !quick then 256 else 1024 in
  let ops = if !quick then 2_000 else 20_000 in
  let cfg =
    { Shasta_apps.Sht.nbuckets = (if !quick then 128 else 512);
      slots = 8;
      handoff = 8 }
  in
  let np = 4 in
  let wl = W.spec ~nkeys ~ops ~mix:W.B ~quanta:(min nkeys 1024) () in
  let prog = Shasta_apps.Sht.program ~cfg ~wl () in
  let clean, _ = run_cycles ~nprocs:np prog in
  let t =
    Table.create
      [ "schedule"; "cycles"; "vs clean"; "ops/Mcyc"; "lost keys";
        "takeovers"; "dir rebuilds" ]
  in
  let row name slug spec_str =
    let nf = Option.get (Nodefaults.of_string spec_str) in
    let obs = Obs.create ~nprocs:np () in
    let cycles, r = run_cycles ~nprocs:np ~node_faults:nf ~obs prog in
    let rep = Report.parse r.Api.phase.output in
    (* survivors must stay consistent: lost keys are accounted, errors
       are not tolerated *)
    check
      ~what:
        (Printf.sprintf "crash: %s reported %d consistency error(s)" name
           (rep.Report.errors + rep.Report.verify_errors))
      (rep.Report.errors + rep.Report.verify_errors = 0);
    emit_bench
      (Report.to_bench ~workload:slug ~messages:r.Api.phase.msgs_sent
         ~misses:(Api.phase_misses r.Api.phase) rep);
    let m = Obs.metrics obs in
    let total c = Obs.Metrics.counter_total m c in
    Table.addf t "%s\t%d\t%s\t%s\t%d\t%d\t%d" name cycles
      (Table.f2 (Table.ratio cycles clean))
      (Table.f2 (Report.ops_per_mcycle rep))
      rep.Report.lost
      (total Obs.c_lease_takeover)
      (total Obs.c_dir_rebuild)
  in
  Table.addf t "none\t%d\t%s\t-\t0\t0\t0" clean (Table.f2 1.0);
  let mid = clean / 2 in
  row "crash 1 node" "kv-crash" (Printf.sprintf "crash=2@%d,lease=3000" mid);
  row "crash+recover" "kv-crash-recover"
    (Printf.sprintf "crash=2@%d,recover=2@%d,lease=3000" mid (mid * 3 / 2));
  Table.print t;
  print_string
    "Survivors keep serving their shards: zero consistency errors in\n\
     every run, with the final sweep accounting the dead node's keys as\n\
     lost.  A recovered node rejoins protocol duty (its directory homes\n\
     route normally again) but its program stays dead, so the lost-key\n\
     count is unchanged.\n"

(* ------------------------------------------------------------------ *)
(* scaling past P=8: directory modes, home policies, scalable sync      *)
(* ------------------------------------------------------------------ *)

module Ns = Shasta_protocol.Nodeset

let dir_modes = [ ("full", Ns.Full); ("limited4", Ns.Limited 4) ]

let run_scale ?(sync = false) ?(dmode = Ns.Full)
    ?(policy = State.Round_robin) ?obs ~nprocs prog =
  let spec =
    { (Api.default_spec prog) with
      opts = Some Opts.full; nprocs; obs; progress = !progress;
      dir_mode = dmode; home_policy = policy; scalable_sync = sync }
  in
  (spec, Api.run spec)

(* Count the synchronization messages of a run (lock, barrier and flag
   traffic) straight off the typed event stream.  Besides the total we
   track the per-destination fan-in: centralized sync funnels every
   arrival and release through one home node, and that hot-spot — not
   the edge count, which a combining tree leaves unchanged — is what
   the scalable primitives exist to flatten. *)
let sync_counting_obs ~nprocs =
  let sync_kinds =
    [ "lock_req"; "lock_grant"; "unlock"; "barrier_arrive";
      "barrier_release"; "flag_set"; "flag_wait"; "flag_wake" ]
  in
  let count = ref 0 in
  let per_dst = Array.make nprocs 0 in
  let obs = Obs.create ~nprocs () in
  Obs.attach obs
    { Shasta_obs.Sink.on_record =
        (fun r ->
          match r.Shasta_obs.Event.ev with
          | Shasta_obs.Event.Msg_send { kind; dst; _ }
            when List.mem kind sync_kinds ->
            incr count;
            per_dst.(dst) <- per_dst.(dst) + 1
          | _ -> ());
      flush = (fun () -> ()) };
  let hotspot () = Array.fold_left max 0 per_dst in
  (obs, count, hotspot)

let section_scaling () =
  Table.section
    "Scaling past P=8: directory organizations, home policies and\n\
     scalable synchronization (LU sweep, KV service, sync traffic)";
  (* 1. the P=1..64 sweep per directory organization.  The full map
     stops at its 61-node capacity; limited pointers carry the same
     program to 64.  Both modes must compute the same answer. *)
  let sweep_procs = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let lu =
    if !quick then Shasta_apps.Lu.program ~n:16 ~bs:4 ()
    else Shasta_apps.Lu.program ~n:32 ~bs:8 ()
  in
  let t =
    Table.create
      ("lu / dir mode"
       :: List.map (fun p -> Printf.sprintf "cyc P=%d" p) sweep_procs)
  in
  let reference = Hashtbl.create 8 in (* nprocs -> full-map output *)
  List.iter
    (fun (mname, dmode) ->
      let cells =
        List.map
          (fun np ->
            match Ns.validate dmode ~nprocs:np with
            | Error _ -> "-" (* beyond this mode's capacity *)
            | Ok () ->
              let spec, r = run_scale ~dmode ~nprocs:np lu in
              emit_bench
                (Api.bench_record ~workload:("lu-scale-" ^ mname) spec r);
              (match Hashtbl.find_opt reference np with
               | None -> Hashtbl.add reference np r.Api.phase.output
               | Some out ->
                 check
                   ~what:
                     (Printf.sprintf
                        "scaling: lu P=%d %s output differs from %s" np
                        mname
                        (fst (List.hd dir_modes)))
                   (out = r.Api.phase.output));
              string_of_int r.Api.phase.wall_cycles)
          sweep_procs
      in
      Table.add_row t (mname :: cells))
    dir_modes;
  Table.print t;
  (* 2. the KV service at P=16/32/64, directory mode as a column *)
  let module W = Shasta_workload.Workload in
  let module Report = Shasta_workload.Report in
  let nkeys = if !quick then 256 else 1024 in
  let ops = if !quick then 2_000 else 8_000 in
  let cfg =
    { Shasta_apps.Sht.nbuckets = (if !quick then 128 else 512);
      slots = 8; handoff = 8 }
  in
  let wl = W.spec ~nkeys ~ops ~mix:W.B ~quanta:(min nkeys 1024) () in
  let kv_prog = Shasta_apps.Sht.program ~cfg ~wl () in
  let t =
    Table.create
      [ "kv (b mix)"; "procs"; "cycles"; "ops/Mcyc"; "p50"; "p99"; "msgs" ]
  in
  List.iter
    (fun (mname, dmode) ->
      List.iter
        (fun np ->
          match Ns.validate dmode ~nprocs:np with
          | Error _ -> ()
          | Ok () ->
            let _, r = run_scale ~dmode ~nprocs:np kv_prog in
            let rep = Report.parse r.Api.phase.output in
            check
              ~what:
                (Printf.sprintf "scaling: kv P=%d %s reported errors" np
                   mname)
              (rep.Report.errors + rep.Report.verify_errors = 0);
            emit_bench
              (Report.to_bench
                 ~workload:("kv-scale-" ^ mname)
                 ~messages:r.Api.phase.msgs_sent
                 ~misses:(Api.phase_misses r.Api.phase) rep);
            Table.addf t "%s\t%d\t%d\t%s\t%d\t%d\t%d" mname np
              (Report.run_cycles rep)
              (Table.f2 (Report.ops_per_mcycle rep))
              (Report.percentile rep 50.0) (Report.percentile rep 99.0)
              r.Api.phase.msgs_sent)
        [ 16; 32; 64 ])
    dir_modes;
  Table.print t;
  (* 3. central vs scalable synchronization at P=32: the queue lock
     hands a contended lock straight to its successor (1 hop instead of
     release-to-home + home-to-next) and the combining tree replaces
     the home's P-wide arrival/release fan with log-depth combining.
     The tree moves the same number of edges, so the gated metric is
     the hot-spot: the worst per-node sync fan-in must drop. *)
  let t =
    Table.create
      [ "app @P=32"; "sync"; "cycles"; "sync msgs"; "hot-spot";
        "total msgs" ]
  in
  List.iter
    (fun (aname, prog) ->
      let counts =
        List.map
          (fun sync ->
            let obs, count, hotspot = sync_counting_obs ~nprocs:32 in
            let spec, r = run_scale ~sync ~obs ~nprocs:32 prog in
            let hot = hotspot () in
            emit_bench
              (Api.bench_record
                 ~workload:
                   (Printf.sprintf "%s-sync-%s" aname
                      (if sync then "scalable" else "central"))
                 ~extra:
                   [ ("sync_msgs", Shasta_obs.Benchjson.Int !count);
                     ("sync_hotspot", Shasta_obs.Benchjson.Int hot) ]
                 spec r);
            Table.addf t "%s\t%s\t%d\t%d\t%d\t%d" aname
              (if sync then "scalable" else "central")
              r.Api.phase.wall_cycles !count hot r.Api.phase.msgs_sent;
            hot)
          [ false; true ]
      in
      match counts with
      | [ central; scalable ] ->
        check
          ~what:
            (Printf.sprintf
               "scaling: %s P=32 scalable sync hot-spot %d, central %d — \
                no reduction"
               aname scalable central)
          (scalable < central)
      | _ -> assert false)
    [ ("lu", lu);
      ("ocean",
       if !quick then Shasta_apps.Ocean.program ~n:18 ~iters:2 ()
       else Shasta_apps.Ocean.program ~n:34 ~iters:4 ()) ];
  Table.print t;
  (* 4. home policies at P=16: round-robin vs first-touch vs run-time
     migration *)
  let t =
    Table.create [ "lu @P=16"; "policy"; "cycles"; "msgs" ]
  in
  List.iter
    (fun (pname, policy) ->
      let spec, r = run_scale ~policy ~nprocs:16 lu in
      emit_bench (Api.bench_record ~workload:("lu-homes-" ^ pname) spec r);
      Table.addf t "%s\t%s\t%d\t%d" "lu" pname r.Api.phase.wall_cycles
        r.Api.phase.msgs_sent)
    [ ("rr", State.Round_robin);
      ("first-touch", State.First_touch);
      ("migrate", State.Migrate) ];
  Table.print t;
  print_string
    "The full map stops at 61 nodes (its int-bitmask capacity); limited\n\
     pointers overflow hot entries to broadcast-with-exclusions,\n\
     trading spurious invalidations for directory storage while\n\
     computing identical results.  Scalable sync must flatten the\n\
     per-node sync hot-spot at P=32 (gated above): queue locks hand\n\
     contended locks peer-to-peer and the combining tree spreads the\n\
     home's P-wide barrier fan over log-depth combining nodes.\n\
     Placement policies cut remote-home traffic on allocator-owned\n\
     data.\n"

(* ------------------------------------------------------------------ *)
(* bechamel microbenchmarks of the instrumenter itself                  *)
(* ------------------------------------------------------------------ *)

let section_micro () =
  Table.section "Microbenchmarks: instrumenter throughput (bechamel)";
  let open Bechamel in
  let open Toolkit in
  let lu = Shasta_apps.Lu.program ~n:32 ~bs:8 () in
  let compiled = Shasta_minic.Compile.compile lu in
  let body =
    Array.of_list (Shasta_isa.Program.entry_proc compiled.program).body
  in
  let flow = Shasta_dataflow.Flow.of_body body in
  let tests =
    Test.make_grouped ~name:"shasta"
      [ Test.make ~name:"compile-lu"
          (Staged.stage (fun () -> ignore (Shasta_minic.Compile.compile lu)));
        Test.make ~name:"instrument-lu-full"
          (Staged.stage (fun () ->
             ignore (Instrument.instrument ~opts:Opts.full compiled.program)));
        Test.make ~name:"instrument-lu-basic"
          (Staged.stage (fun () ->
             ignore (Instrument.instrument ~opts:Opts.basic compiled.program)));
        Test.make ~name:"liveness-work-proc"
          (Staged.stage (fun () ->
             ignore (Shasta_dataflow.Liveness.analyze flow)));
        Test.make ~name:"batch-scan-work-proc"
          (Staged.stage (fun () ->
             let derived = Shasta_dataflow.Private_track.analyze flow in
             ignore (Batch.scan flow derived ~line_bytes:64)))
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.2 else 0.7))
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.printf "  %-32s %12.0f ns/run\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        tbl)
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* driver                                                               *)
(* ------------------------------------------------------------------ *)

let sections =
  [ ("figures", section_figures);
    ("table1", section_table1);
    ("table2", section_table2);
    ("table3", section_table3);
    ("parallel", section_parallel);
    ("granularity", section_granularity);
    ("polling", section_polling);
    ("excltable", section_excltable);
    ("consistency", section_consistency);
    ("messages", section_messages);
    ("faults", section_faults);
    ("throughput", section_throughput);
    ("kv", section_kv);
    ("crash", section_crash);
    ("scaling", section_scaling);
    ("micro", section_micro) ]

let usage () =
  Printf.eprintf
    "usage: bench [--quick] [--json-out FILE] [--progress N] [section ...]\n\
     sections: %s\n"
    (String.concat " " (List.map fst sections));
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let named = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json-out" :: file :: rest ->
      json_out := Some file;
      parse rest
    | "--progress" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n > 0 -> progress := Some n
       | _ ->
         Printf.eprintf "--progress expects a positive integer\n";
         exit 1);
      parse rest
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
      named := !named @ [ a ];
      parse rest
    | a :: _ ->
      Printf.eprintf "unknown flag %s\n" a;
      usage ()
  in
  parse args;
  let chosen =
    if !named = [] then sections
    else
      List.map
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown section %s (have: %s)\n" n
              (String.concat " " (List.map fst sections));
            exit 1)
        !named
  in
  Printf.printf "Shasta benchmark harness (%s sizes)\n"
    (if !quick then "quick/test" else "standard");
  List.iter (fun (_, f) -> f ()) chosen;
  (match !json_out with Some path -> write_bench path | None -> ());
  if !failures > 0 then begin
    Printf.eprintf "bench: %d check(s) FAILED\n" !failures;
    exit 1
  end
