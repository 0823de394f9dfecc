(* Workload-subsystem tests: the Zipfian sampler and its quantile
   compression, the latency-percentile estimator, the plan mirror's
   operation accounting against a real run, the shadow-table oracle,
   and byte-level determinism of the rendered report. *)

open Shasta_workload
module Metrics = Shasta_obs.Metrics
module Apps = Shasta_apps.Apps
module Sht = Shasta_apps.Sht
module Prng = Shasta_prng.Prng

let qtest = Test_support.Support.qtest

(* --- keygen -------------------------------------------------------- *)

let t_zipf_pmf () =
  let z = Keygen.zipf ~n:100 ~theta:0.99 in
  let total = ref 0.0 in
  for k = 0 to 99 do
    total := !total +. Keygen.pmf z k;
    if k > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "pmf decreasing at rank %d" k)
        true
        (Keygen.pmf z k < Keygen.pmf z (k - 1))
  done;
  Alcotest.(check bool) "pmf sums to 1" true (Float.abs (!total -. 1.0) < 1e-9)

let t_zipf_draw () =
  let n = 64 in
  let z = Keygen.zipf ~n ~theta:0.99 in
  Alcotest.(check int) "draw 0 is the hottest rank" 0 (Keygen.draw z 0.0);
  Alcotest.(check bool) "draw near 1 stays in range" true
    (Keygen.draw z 0.999999 < n);
  let prev = ref 0 in
  for i = 0 to 999 do
    let r = Keygen.draw z (float_of_int i /. 1000.0) in
    Alcotest.(check bool)
      (Printf.sprintf "draw monotone at %d" i)
      true (r >= !prev);
    prev := r
  done

(* Every theta outside [0, 1) is refused, NaN included: a NaN skew
   used to pass the guard and build an all-NaN CDF. *)
let t_zipf_rejects () =
  List.iter
    (fun theta ->
      match Keygen.zipf ~n:16 ~theta with
      | _ -> Alcotest.failf "theta %h accepted" theta
      | exception Invalid_argument _ -> ())
    [ Float.nan; 1.0; 1.5; Float.infinity; -0.5; Float.neg_infinity ]

let quantile_table_ok ~n ~theta ~quanta =
  let t = Keygen.quantile_table ~n ~theta ~quanta in
  Array.length t = quanta + 1
  && t.(0) = 0
  && t.(quanta) = n
  && Array.for_all (fun r -> r >= 0 && r <= n) t
  &&
  let mono = ref true in
  for q = 1 to quanta do
    if t.(q) < t.(q - 1) then mono := false
  done;
  !mono

let t_quantile_table () =
  Alcotest.(check bool) "zipfian table well formed" true
    (quantile_table_ok ~n:256 ~theta:0.99 ~quanta:256);
  (* a hot head rank spans many quanta: the boundary after rank 0
     stays pinned at 1 while its mass accumulates *)
  let t = Keygen.quantile_table ~n:256 ~theta:0.99 ~quanta:256 in
  Alcotest.(check int) "rank 0 covers several quanta" 1 t.(8);
  (* theta = 0 degenerates to (near-)uniform: every quantum advances *)
  let u = Keygen.quantile_table ~n:256 ~theta:0.0 ~quanta:256 in
  Alcotest.(check bool) "uniform table advances every quantum" true
    (Array.for_all (fun q -> u.(q) > u.(q - 1))
       (Array.init 256 (fun i -> i + 1)))

let t_quantile_table_prop =
  qtest "quantile_table well formed" ~count:50
    QCheck2.Gen.(
      triple (int_range 2 512) (float_bound_exclusive 1.0) (int_range 4 512))
    (fun (n, theta, quanta) -> quantile_table_ok ~n ~theta ~quanta)

(* A PRNG draw must never go negative, whatever the seed — this is the
   regression test for the bits63 sign-wrap bug. *)
let t_prng_int_prop =
  qtest "Prng.int stays in [0, bound)" ~count:500
    QCheck2.Gen.(pair int (int_range 1 max_int))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let v = Prng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* --- percentile estimator ------------------------------------------ *)

let hist ~bounds ~counts ~hmax =
  { Metrics.bounds;
    counts;
    n = Array.fold_left ( + ) 0 counts;
    sum = 0;
    hmax }

let t_percentile () =
  (* 100 observations spread across one bucket (0, 100]: linear ranks *)
  let h = hist ~bounds:[| 100 |] ~counts:[| 100; 0 |] ~hmax:100 in
  Alcotest.(check int) "p50 interpolates" 50 (Metrics.percentile h 50.0);
  Alcotest.(check int) "p100 is the max" 100 (Metrics.percentile h 100.0);
  (* overflow bucket interpolates up to hmax, not infinity *)
  let o = hist ~bounds:[| 100 |] ~counts:[| 0; 10 |] ~hmax:500 in
  Alcotest.(check int) "overflow p50" 300 (Metrics.percentile o 50.0);
  Alcotest.(check int) "overflow p100 is the max" 500
    (Metrics.percentile o 100.0);
  (* fractional percentiles resolve inside a bucket: p99.9 lands above
     p99 instead of collapsing onto the same bucket bound *)
  let f = hist ~bounds:[| 1000 |] ~counts:[| 2000; 0 |] ~hmax:1000 in
  Alcotest.(check int) "p99" 990 (Metrics.percentile f 99.0);
  Alcotest.(check int) "p99.9" 1000 (Metrics.percentile f 99.9);
  Alcotest.(check bool) "p99.9 above p99" true
    (Metrics.percentile f 99.9 > Metrics.percentile f 99.0);
  (* empty histogram *)
  let e = hist ~bounds:[| 10 |] ~counts:[| 0; 0 |] ~hmax:0 in
  Alcotest.(check int) "empty" 0 (Metrics.percentile e 50.0)

(* --- plan mirror vs a real run ------------------------------------- *)

let run_sht ~nprocs =
  let prog = (Apps.find "sht").make Apps.Test in
  let out, _ = Test_support.Support.run ~nprocs prog in
  Report.parse out

let t_plan_accounting () =
  let nprocs = 4 in
  let r = run_sht ~nprocs in
  let plans = Workload.plan Apps.sht_test_wl ~nprocs in
  let gets, puts, dels, scans = Workload.plan_counts plans in
  Alcotest.(check int) "gets" gets r.Report.gets;
  Alcotest.(check int) "puts" puts r.Report.puts;
  Alcotest.(check int) "dels" dels r.Report.dels;
  Alcotest.(check int) "scans" scans r.Report.scans;
  Alcotest.(check int) "total ops" (gets + puts + dels + scans) r.Report.ops;
  Alcotest.(check int) "load ops = nkeys" r.Report.nkeys r.Report.load_ops;
  Array.iter
    (fun (o, _, _) ->
      Alcotest.(check int) "per-node share" (r.Report.ops / nprocs) o)
    r.Report.per_node

let t_mix_shares () =
  List.iter
    (fun m ->
      let rd, up, dl, sc = Workload.shares m in
      Alcotest.(check int)
        ("shares of mix " ^ Workload.mix_name m ^ " sum to 10000")
        10000 (rd + up + dl + sc))
    [ Workload.A; B; C; E; M ]

(* --- end-to-end oracle (exercises every operation via mix M) -------- *)

let t_oracle_mix_m () =
  let wl =
    Workload.spec ~nkeys:128 ~ops:1000 ~mix:Workload.M ~quanta:128
      ~disjoint:true ()
  in
  let cfg = { Sht.nbuckets = 64; slots = 8; handoff = 8 } in
  let prog = Sht.program ~cfg ~wl () in
  List.iter
    (fun nprocs ->
      let out, _ = Test_support.Support.run ~nprocs prog in
      let r = Report.parse out in
      let s = Sht.shadow ~wl ~nprocs () in
      Alcotest.(check int)
        (Printf.sprintf "no violations at %d procs" nprocs)
        0
        (r.Report.errors + r.Report.verify_errors);
      Alcotest.(check int) "oracle precondition: no dropped inserts" 0
        r.Report.overflows;
      Alcotest.(check int)
        (Printf.sprintf "population at %d procs" nprocs)
        s.Sht.s_population r.Report.population;
      Alcotest.(check bool)
        (Printf.sprintf "checksum at %d procs" nprocs)
        true
        (r.Report.checksum = s.Sht.s_checksum))
    [ 1; 2; 4 ]

(* --- determinism ---------------------------------------------------- *)

let t_determinism () =
  let render r = Report.render ~label:"det" r in
  let a = render (run_sht ~nprocs:2) in
  let b = render (run_sht ~nprocs:2) in
  Alcotest.(check string) "same seed, byte-identical report" a b;
  let p1 = Workload.plan Apps.sht_test_wl ~nprocs:4 in
  let p2 = Workload.plan Apps.sht_test_wl ~nprocs:4 in
  Alcotest.(check bool) "plan is reproducible" true (p1 = p2)

let () =
  Alcotest.run "workload"
    [ ( "keygen",
        [ Alcotest.test_case "zipf pmf" `Quick t_zipf_pmf;
          Alcotest.test_case "zipf draw" `Quick t_zipf_draw;
          Alcotest.test_case "zipf rejects theta outside [0, 1)" `Quick
            t_zipf_rejects;
          Alcotest.test_case "quantile table" `Quick t_quantile_table;
          t_quantile_table_prop;
          t_prng_int_prop ] );
      ( "metrics",
        [ Alcotest.test_case "percentile" `Quick t_percentile ] );
      ( "driver",
        [ Alcotest.test_case "plan accounting" `Quick t_plan_accounting;
          Alcotest.test_case "mix shares" `Quick t_mix_shares;
          Alcotest.test_case "oracle mix m" `Quick t_oracle_mix_m;
          Alcotest.test_case "determinism" `Quick t_determinism ] )
    ]
