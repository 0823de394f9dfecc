(* BENCH_*.json schema and regression gate: emit/parse round-trips
   (property-based), the gate's exact-match policy, schema versioning
   and flatness, and the KV report writer staying on the shared
   schema. *)

module B = Shasta_obs.Benchjson
module Report = Shasta_workload.Report

let testable_t =
  Alcotest.testable (fun fmt (r : B.t) -> Format.pp_print_string fmt (B.emit r)) ( = )

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i <= n - m && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- generators ------------------------------------------------------ *)

open QCheck2

(* JSON-safe strings exercising the escaper: printable ASCII plus the
   characters that need escaping. *)
let gen_str =
  let gen_char =
    Gen.frequency
      [ (20, Gen.char_range 'a' 'z');
        (5, Gen.char_range '0' '9');
        (1, Gen.return '"');
        (1, Gen.return '\\');
        (1, Gen.return '\n');
        (1, Gen.return '\x07') ]
  in
  Gen.string_size ~gen:gen_char (Gen.int_range 0 12)

(* Finite floats only: JSON has no nan/infinity. *)
let gen_float =
  Gen.oneof
    [ Gen.map (fun i -> float_of_int i) (Gen.int_range (-1000) 1000);
      Gen.map (fun i -> float_of_int i /. 997.0) (Gen.int_range (-1_000_000) 1_000_000);
      Gen.map (fun i -> float_of_int i *. 1.7e9) (Gen.int_range 0 1_000_000) ]

let gen_num =
  Gen.oneof
    [ Gen.map (fun i -> B.Int i) (Gen.int_range (-1_000_000) 1_000_000);
      Gen.map (fun f -> B.Float f) gen_float ]

(* Extra keys must be distinct and must not collide with the fixed
   field names, so tag them. *)
let gen_extra =
  let open Gen in
  int_range 0 6 >>= fun n ->
  flatten_l
    (List.init n (fun i ->
         map (fun v -> (Printf.sprintf "x%d" i, v)) gen_num))

let gen_record =
  let open Gen in
  gen_str >>= fun workload ->
  int_range 1 16 >>= fun nprocs ->
  oneofl [ 32; 64; 128 ] >>= fun line ->
  gen_str >>= fun opts ->
  int_range 0 1_000_000_000 >>= fun sim_cycles ->
  int_range 0 1_000_000 >>= fun messages ->
  int_range 0 1_000_000 >>= fun misses ->
  gen_extra >>= fun extra ->
  return
    (B.make ~workload ~nprocs ~line ~opts ~sim_cycles ~messages ~misses
       ~extra ())

(* --- round-trip ------------------------------------------------------ *)

let prop_roundtrip r = B.parse (B.emit r) = r

(* Two emissions of the same record are byte-identical — determinism of
   the wire format itself, which the byte-compare rule in test/dune
   leans on. *)
let prop_emit_stable r = B.emit r = B.emit (B.parse (B.emit r))

let prop_load_string rs =
  let s = String.concat "\n" (List.map B.emit rs) ^ "\n" in
  B.load_string s = rs

(* --- gate policy ----------------------------------------------------- *)

let base_record ?(workload = "lu") ?(sim_cycles = 1_000_000) ?(extra = [])
    () =
  B.make ~workload ~nprocs:4 ~line:64 ~opts:"full" ~sim_cycles
    ~messages:500 ~misses:120 ~extra ()

let gate_ok baseline candidate = snd (B.gate ~baseline ~candidate)

let test_gate_identical () =
  let b = [ base_record (); base_record ~workload:"fft" () ] in
  Alcotest.(check bool) "identical files pass" true (gate_ok b b)

let test_gate_sim_regression () =
  let b = [ base_record () ] in
  let c = [ base_record ~sim_cycles:1_000_001 () ] in
  Alcotest.(check bool) "+1 cycle fails" false (gate_ok b c);
  let c' = [ base_record ~sim_cycles:999_999 () ] in
  Alcotest.(check bool) "-1 cycle fails too (exact, not <=)" false
    (gate_ok b c')

let test_gate_extra_exact () =
  let b = [ base_record ~extra:[ ("errors", B.Int 0) ] () ] in
  let c = [ base_record ~extra:[ ("errors", B.Int 1) ] () ] in
  Alcotest.(check bool) "extra metrics gate exactly" false (gate_ok b c)

(* A trace hash has 60 bits, more than a float holds exactly: hashes
   that differ in the last bit still fail the gate. *)
let test_gate_trace_hash_exact () =
  let hash h = [ base_record ~extra:[ ("trace_hash", B.Int h) ] () ] in
  let h = 0x49b3fbe0867b29d in
  Alcotest.(check bool) "a float cannot tell them apart" true
    (float_of_int h = float_of_int (h + 1));
  Alcotest.(check bool) "last-bit difference fails" false
    (gate_ok (hash h) (hash (h + 1)));
  Alcotest.(check bool) "equal hashes pass" true (gate_ok (hash h) (hash h))

let test_gate_missing_and_new () =
  let b = [ base_record (); base_record ~workload:"fft" () ] in
  let only_lu = [ base_record () ] in
  Alcotest.(check bool) "baseline record missing from candidate fails"
    false (gate_ok b only_lu);
  let with_new = b @ [ base_record ~workload:"barnes" () ] in
  Alcotest.(check bool) "candidate-only record is fine" true
    (gate_ok b with_new)

(* --- KV report on the shared schema ---------------------------------- *)

let kv_report : Report.t =
  { nprocs = 2; nkeys = 256; ops = 1000; load_ops = 256; gets = 900;
    puts = 100; dels = 0; scans = 0; errors = 0; lat_sum = 50_000;
    lat_max = 900;
    hist = Array.make Shasta_workload.Workload.nb_lat 0;
    per_node = [| (500, 100, 90_100); (500, 120, 90_500) |];
    overflows = 0; migrations = 3; verify_errors = 0; population = 256;
    checksum = 0xbeef; lost = 0; owned = [| 128; 128 |] }

let test_kv_json_shared_schema () =
  let line = Report.to_json ~workload:"b" ~line:64 ~messages:4200 ~misses:77
      kv_report
  in
  let r = B.parse line in
  Alcotest.(check int) "schema version" B.schema_version r.B.schema;
  Alcotest.(check string) "workload" "b" r.B.workload;
  Alcotest.(check int) "messages" 4200 r.B.messages;
  Alcotest.(check int) "misses" 77 r.B.misses;
  let extra k = List.assoc k r.B.extra in
  Alcotest.(check bool) "ops carried" true (extra "ops" = B.Int 1000);
  (* CI greps '"errors": 0' and '"lost": N' out of BENCH_kv files *)
  Alcotest.(check bool) "errors key grep-able" true
    (contains_sub ~sub:"\"errors\": 0" line);
  Alcotest.(check bool) "lost key grep-able" true
    (contains_sub ~sub:"\"lost\": 0" line);
  (* round-trips like any other record *)
  Alcotest.check testable_t "kv record round-trips" r (B.parse (B.emit r))

let test_kv_gate_self () =
  let r = Report.to_bench ~workload:"b" kv_report in
  Alcotest.(check bool) "kv record gates clean against itself" true
    (gate_ok [ r ] [ r ]);
  let worse = { kv_report with errors = 2 } in
  let r' = Report.to_bench ~workload:"b" worse in
  Alcotest.(check bool) "kv errors regression caught" false
    (gate_ok [ r ] [ r' ])

(* --- schema versioning ----------------------------------------------- *)

let test_schema_future_rejected () =
  let line =
    Printf.sprintf "{\"schema\": %d, \"workload\": \"x\", \"nprocs\": 1}"
      (B.schema_version + 1)
  in
  Alcotest.check_raises "future schema rejected"
    (Failure
       (Printf.sprintf
          "Benchjson.parse: schema %d is not the supported schema %d; \
           regenerate the file with bench --json-out"
          (B.schema_version + 1) B.schema_version))
    (fun () -> ignore (B.parse line))

(* A schema-1 line as the checked-in baselines held it, host fields
   and all: it must not parse, or its "wall_s": 0.0 would be read as an
   exactly gated extra metric. *)
let test_schema_1_rejected () =
  let line =
    "{\"schema\": 1, \"workload\": \"lu\", \"nprocs\": 1, \"line\": 64, \
     \"opts\": \"full\", \"sim_cycles\": 174688, \"messages\": 0, \
     \"misses\": 0, \"wall_s\": 0.0, \"cyc_per_s\": 0.0, \"gc\": \
     {\"minor_words\": 0.0, \"major_words\": 0.0, \"minor_collections\": 0, \
     \"major_collections\": 0}, \"git_rev\": \"08c1c28\"}"
  in
  Alcotest.check_raises "schema 1 rejected"
    (Failure
       (Printf.sprintf
          "Benchjson.parse: schema 1 is not the supported schema %d; \
           regenerate the file with bench --json-out"
          B.schema_version))
    (fun () -> ignore (B.parse line))

(* Records are flat: a nested object or an array is malformed, not
   silently skipped. *)
let test_non_flat_rejected () =
  let rejected what line =
    match B.parse line with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Failure m ->
      Alcotest.(check bool)
        (what ^ " raises a Benchjson.parse failure")
        true
        (String.starts_with ~prefix:"Benchjson.parse: " m)
  in
  let head = Printf.sprintf "{\"schema\": %d, \"workload\": \"x\"" B.schema_version in
  rejected "nested object" (head ^ ", \"gc\": {\"minor_words\": 1.0}}");
  rejected "array" (head ^ ", \"xs\": [1, 2]}")

(* A malformed line of a whole file is reported with its 1-based line
   number, blank lines counted. *)
let test_load_names_line () =
  let good = B.emit (base_record ()) in
  match B.load_string (good ^ "\n\n" ^ String.sub good 0 20) with
  | _ -> Alcotest.fail "truncated file accepted"
  | exception Failure m ->
    Alcotest.(check bool) ("line 3 named: " ^ m) true
      (String.starts_with ~prefix:"line 3: " m)

(* A path that opens but cannot be read (a directory) is reported with
   the path, not as a bare system error. *)
let test_load_names_unreadable () =
  let dir = Filename.current_dir_name in
  match B.load_file dir with
  | _ -> Alcotest.fail "directory loaded as a BENCH file"
  | exception Sys_error m ->
    Alcotest.(check bool) ("path named: " ^ m) true
      (String.starts_with ~prefix:(dir ^ ": ") m)

let () =
  Alcotest.run "bench"
    [ ( "roundtrip",
        [ Test_support.Support.qtest "emit/parse round-trip" ~count:200
            gen_record prop_roundtrip;
          Test_support.Support.qtest "emission is stable" ~count:100
            gen_record prop_emit_stable;
          Test_support.Support.qtest "JSONL load" ~count:50
            (Gen.list_size (Gen.int_range 0 5) gen_record)
            prop_load_string ] );
      ( "gate",
        [ Alcotest.test_case "identical files pass" `Quick test_gate_identical;
          Alcotest.test_case "sim regression (+/-1 cycle)" `Quick
            test_gate_sim_regression;
          Alcotest.test_case "extra metrics exact" `Quick test_gate_extra_exact;
          Alcotest.test_case "trace hash exact to the last bit" `Quick
            test_gate_trace_hash_exact;
          Alcotest.test_case "missing/new records" `Quick
            test_gate_missing_and_new ] );
      ( "kv",
        [ Alcotest.test_case "kv report on shared schema" `Quick
            test_kv_json_shared_schema;
          Alcotest.test_case "kv record gates" `Quick test_kv_gate_self ] );
      ( "schema",
        [ Alcotest.test_case "future version rejected" `Quick
            test_schema_future_rejected;
          Alcotest.test_case "schema 1 rejected" `Quick test_schema_1_rejected;
          Alcotest.test_case "non-flat value rejected" `Quick
            test_non_flat_rejected;
          Alcotest.test_case "malformed line named" `Quick
            test_load_names_line;
          Alcotest.test_case "unreadable file named" `Quick
            test_load_names_unreadable ] ) ]
