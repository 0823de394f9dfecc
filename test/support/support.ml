(* Shared helpers for the test suites. *)

open Shasta_runtime

(* Run a MiniC program and return (printed output, phase result). *)
let run ?(opts = Some Shasta.Opts.full) ?(nprocs = 1)
    ?(net = Shasta_network.Network.memory_channel) ?net_faults ?node_faults
    ?fixed_block ?obs ?(init_proc = "appinit") ?(work_proc = "work") prog =
  let spec =
    { (Api.default_spec prog) with
      opts; nprocs; net; net_faults; node_faults; fixed_block; obs }
  in
  let r = Api.run ~init_proc ~work_proc spec in
  (r.phase.output, r)

(* Output of the original (uninstrumented) binary on one node — the
   ground truth every instrumented/parallel run must reproduce. *)
let ground_truth ?(init_proc = "appinit") ?(work_proc = "work") prog =
  fst (run ~opts:None ~nprocs:1 ~init_proc ~work_proc prog)

(* Assert the instrumented run at [nprocs] produces the ground-truth
   output. *)
let check_matches_sequential ?(opts = Shasta.Opts.full) ~nprocs prog name =
  let expected = ground_truth prog in
  let got, _ = run ~opts:(Some opts) ~nprocs prog in
  Alcotest.(check string) name expected got

(* A tiny program wrapper: statements for node 0 only, printing via
   print_int. *)
let single_proc_prog body =
  Shasta_minic.Builder.prog [ Shasta_minic.Builder.proc "work" body ]

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* --- canonical event traces ------------------------------------------ *)

(* Run with a text sink attached and return the canonical trace: every
   emitted event rendered by [Sink.line], in emission order.  This is
   the byte-exact protocol behaviour of the run; the P=4 throughput
   rows of the seed BENCH baseline pin it by hash. *)
let run_trace ?(opts = Some Shasta.Opts.full) ?(nprocs = 1) ?net ?net_faults
    ?node_faults prog =
  let obs = Shasta_obs.Obs.create ~nprocs () in
  let lines = ref [] in
  Shasta_obs.Obs.attach obs
    { Shasta_obs.Sink.on_record =
        (fun r -> lines := Shasta_obs.Sink.line r :: !lines);
      flush = (fun () -> ()) };
  let out, r = run ~opts ~nprocs ?net ?net_faults ?node_faults ~obs prog in
  (List.rev !lines, out, r)

(* A fault layer that is switched on but can never fire must not move a
   single event: run [make ()] without the layer and with it, and fail
   at the first trace line where the two runs differ. *)
let check_same_trace ?net_faults ?node_faults ~nprocs make =
  let base, out0, _ = run_trace ~nprocs (make ()) in
  let got, out1, _ = run_trace ~nprocs ?net_faults ?node_faults (make ()) in
  Alcotest.(check string) "output identical" out0 out1;
  let rec first_diff k = function
    | a :: base, b :: got when a = b -> first_diff (k + 1) (base, got)
    | a :: _, b :: _ ->
      Alcotest.failf "trace diverges at line %d:\n  -%s\n  +%s" k a b
    | _ -> ()
  in
  first_diff 0 (base, got);
  Alcotest.(check int) "trace length identical" (List.length base)
    (List.length got)

(* The four P=4 workloads the fault suites run: the soak, the counter
   checks and the identity checks, each on the default network. *)
let pinned_runs =
  [ ("lu", 4, fun () -> Shasta_apps.Lu.program ~n:16 ~bs:4 ());
    ("fft", 4, fun () -> Shasta_apps.Fft.program ~n:64 ());
    ("radix", 4, fun () -> Shasta_apps.Radix.program ~nkeys:1024 ~max_bits:16 ());
    ( "sht",
      4,
      fun () ->
        Shasta_apps.Sht.program ~cfg:Shasta_apps.Apps.sht_test_cfg
          ~wl:Shasta_apps.Apps.sht_test_wl () )
  ]
