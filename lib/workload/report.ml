module Metrics = Shasta_obs.Metrics

type t = {
  nprocs : int;
  nkeys : int;
  ops : int;
  load_ops : int;
  gets : int;
  puts : int;
  dels : int;
  scans : int;
  errors : int;
  lat_sum : int;
  lat_max : int;
  hist : int array;
  per_node : (int * int * int) array;
  overflows : int;
  migrations : int;
  verify_errors : int;
  population : int;
  checksum : int;
  lost : int;
  owned : int array;
}

let parse output =
  let ints =
    String.split_on_char '\n' output
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
         match int_of_string_opt (String.trim l) with
         | Some n -> n
         | None -> failwith ("Report.parse: not an integer: " ^ l))
  in
  let rest = ref ints in
  let next what =
    match !rest with
    | [] -> failwith ("Report.parse: truncated block at " ^ what)
    | x :: tl ->
      rest := tl;
      x
  in
  let m = next "magic" in
  if m <> Workload.magic then
    failwith
      (Printf.sprintf "Report.parse: bad magic %d (expected %d)" m
         Workload.magic);
  let nprocs = next "nprocs" in
  let nkeys = next "nkeys" in
  let ops = next "ops" in
  let load_ops = next "load_ops" in
  let gets = next "gets" in
  let puts = next "puts" in
  let dels = next "dels" in
  let scans = next "scans" in
  let errors = next "errors" in
  let lat_sum = next "lat_sum" in
  let lat_max = next "lat_max" in
  let hist = Array.init Workload.nb_lat (fun _ -> next "hist") in
  let per_node =
    Array.init nprocs (fun _ ->
      let o = next "node ops" in
      let ts = next "node tstart" in
      let te = next "node tend" in
      (o, ts, te))
  in
  let overflows = next "overflows" in
  let migrations = next "migrations" in
  let verify_errors = next "verify_errors" in
  let population = next "population" in
  let checksum = next "checksum" in
  let lost = next "lost" in
  let owned = Array.init nprocs (fun _ -> next "owned") in
  if !rest <> [] then
    failwith
      (Printf.sprintf "Report.parse: %d trailing values"
         (List.length !rest));
  { nprocs; nkeys; ops; load_ops; gets; puts; dels; scans; errors;
    lat_sum; lat_max; hist; per_node; overflows; migrations;
    verify_errors; population; checksum; lost; owned }

(* Zero every cycle-counter-derived field.  What remains is fixed by
   the workload plan and the table logic alone, so it must be identical
   between an instrumented run and the uninstrumented ground truth at
   the same node count — that projection is what the parallel ==
   sequential suite compares for the KV service. *)
let strip_timing t =
  { t with
    lat_sum = 0;
    lat_max = 0;
    hist = Array.map (fun _ -> 0) t.hist;
    per_node = Array.map (fun (o, _, _) -> (o, 0, 0)) t.per_node }

let run_cycles t =
  let lo = ref max_int and hi = ref 0 in
  Array.iter
    (fun (_, ts, te) ->
      if ts < !lo then lo := ts;
      if te > !hi then hi := te)
    t.per_node;
  max 1 (!hi - !lo)

let ops_per_mcycle t =
  float_of_int t.ops *. 1_000_000.0 /. float_of_int (run_cycles t)

let latency_hist t =
  { Metrics.bounds = Workload.lat_bounds;
    counts = Array.copy t.hist;
    n = Array.fold_left ( + ) 0 t.hist;
    sum = t.lat_sum;
    hmax = t.lat_max }

let percentile t p = Metrics.percentile (latency_hist t) p

let render ?label t =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== kv report%s\n"
    (match label with None -> "" | Some l -> ": " ^ l);
  pf "procs       : %d\n" t.nprocs;
  pf "keys        : %d (%d load ops)\n" t.nkeys t.load_ops;
  pf "run ops     : %d (%d get / %d put / %d del / %d scan)\n" t.ops t.gets
    t.puts t.dels t.scans;
  pf "errors      : %d during run, %d in final sweep\n" t.errors
    t.verify_errors;
  pf "run cycles  : %d simulated\n" (run_cycles t);
  pf "throughput  : %.3f ops/Mcycle\n" (ops_per_mcycle t);
  let n = Array.fold_left ( + ) 0 t.hist in
  pf "latency/op  : mean %.1f  p50 %d  p95 %d  p99 %d  p99.9 %d  max %d cycles\n"
    (if n = 0 then 0.0 else float_of_int t.lat_sum /. float_of_int n)
    (percentile t 50.0) (percentile t 95.0) (percentile t 99.0)
    (percentile t 99.9) t.lat_max;
  pf "table       : %d keys live, checksum %d, %d dropped puts%s\n"
    t.population t.checksum t.overflows
    (if t.lost > 0 then
       Printf.sprintf ", %d lost to crashed shards" t.lost
     else "");
  pf "shards      : %d handoffs, owned per node:" t.migrations;
  Array.iter (fun c -> pf " %d" c) t.owned;
  pf "\n";
  Buffer.contents b

(* The report as a versioned BENCH record.  Everything KV-specific —
   op counts, throughput, latency percentiles, error/loss totals —
   rides in [extra], where the regression gate treats it like any other
   deterministic simulated metric.  [messages]/[misses] belong to the
   cluster, not the report, so callers that have a phase result pass
   them in. *)
module Benchjson = Shasta_obs.Benchjson

let to_bench ~workload ?(line = 64) ?(opts = "full") ?(messages = 0)
    ?(misses = 0) t =
  Benchjson.make ~workload ~nprocs:t.nprocs ~line ~opts
    ~sim_cycles:(run_cycles t) ~messages ~misses
    ~extra:
      [ ("ops", Benchjson.Int t.ops);
        ("ops_per_mcycle", Benchjson.Float (ops_per_mcycle t));
        ("p50", Benchjson.Int (percentile t 50.0));
        ("p95", Benchjson.Int (percentile t 95.0));
        ("p99", Benchjson.Int (percentile t 99.0));
        ("p999", Benchjson.Int (percentile t 99.9));
        ("lat_max", Benchjson.Int t.lat_max);
        ("errors", Benchjson.Int (t.errors + t.verify_errors));
        ("overflows", Benchjson.Int t.overflows);
        ("migrations", Benchjson.Int t.migrations);
        ("population", Benchjson.Int t.population);
        ("lost", Benchjson.Int t.lost) ]
    ()

let to_json ?line ?opts ?messages ?misses ~workload t =
  Benchjson.emit (to_bench ~workload ?line ?opts ?messages ?misses t)
