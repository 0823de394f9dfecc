(* Golden-trace regression suite.

   Each pinned workload is run fault-free with a text sink attached;
   the canonical event trace ([Sink.line] per record, in emission
   order) is digested in fixed-size chunks and compared against the
   saved digests in test/support/golden.ml.  Any PR that perturbs
   protocol behaviour unintentionally — an extra message, a shifted
   delivery time, a reordered event — fails here with the first
   diverging window and the lines the current code produces in it.

   The same digests must also hold on a faulty wire whose fault
   probabilities are all zero: [Some no_faults] plans every arrival
   through the fault coins where [None] does not, and both must give
   the same messages, delivery cycles and trace bytes.

   Intentional behaviour changes regenerate the goldens:
     dune exec test/gen_golden.exe > test/support/golden.ml *)

module Support = Test_support.Support
module Golden = Test_support.Golden

let find_golden name =
  match List.assoc_opt name Golden.goldens with
  | Some g -> g
  | None ->
    Alcotest.fail
      (Printf.sprintf
         "no golden digests for %s — regenerate test/support/golden.ml" name)

(* Compare chunk digests; on the first mismatch, print the current
   lines of that window (the golden side stores only digests, so the
   diff shows where behaviour diverged and what it looks like now). *)
let check_against name lines =
  let want_total, want = find_golden name in
  let got_total, got = Support.digest_chunks lines in
  let arr = Array.of_list lines in
  let rec first_diff i = function
    | [], [] -> None
    | w :: ws, g :: gs -> if w <> g then Some i else first_diff (i + 1) (ws, gs)
    | _ -> Some i
  in
  (match first_diff 0 (want, got) with
   | None -> ()
   | Some i ->
     let lo = i * Golden.chunk_lines in
     let hi = min (Array.length arr) (lo + Golden.chunk_lines) in
     Printf.eprintf
       "%s: first divergence in trace lines %d..%d (chunk %d/%d)\n" name lo
       (hi - 1) i
       (List.length want);
     Printf.eprintf "current trace in that window:\n";
     for k = lo to hi - 1 do
       Printf.eprintf "  %5d| %s\n" k arr.(k)
     done;
     if hi <= lo then
       Printf.eprintf "  (current trace ends at line %d)\n"
         (Array.length arr);
     Alcotest.fail
       (Printf.sprintf "%s: trace diverges from golden at chunk %d" name i));
  Alcotest.(check int) (name ^ ": trace length") want_total got_total

let t_golden (name, nprocs, make) () =
  let lines, _, _ = Support.run_trace ~nprocs (make ()) in
  check_against name lines

(* [Some no_faults] vs [None]: a faulty wire with zero fault
   probabilities must not move a single event — same messages, same
   delivery cycles, same trace bytes. *)
let t_golden_sublayer_identity (name, nprocs, make) () =
  let lines, _, _ =
    Support.run_trace ~nprocs
      ~net_faults:Shasta_network.Network.no_faults (make ())
  in
  check_against name lines

(* Sanity on the digesting itself: chunking is stable and sensitive. *)
let t_digest_props () =
  let lines = List.init 1000 (fun i -> Printf.sprintf "line %d" i) in
  let n, d = Support.digest_chunks lines in
  Alcotest.(check int) "total" 1000 n;
  let n', d' = Support.digest_chunks lines in
  Alcotest.(check (pair int (list string))) "deterministic" (n, d) (n', d');
  let tweaked =
    List.mapi (fun i l -> if i = 700 then l ^ "x" else l) lines
  in
  let _, dt = Support.digest_chunks tweaked in
  Alcotest.(check bool) "sensitive to a one-line change" false (d = dt);
  (* only the chunk containing the tweak moves *)
  let diffs =
    List.filteri (fun i _ -> List.nth d i <> List.nth dt i)
      (List.init (List.length d) Fun.id)
  in
  Alcotest.(check (list int)) "exactly one chunk differs"
    [ 700 / Support.chunk_lines ] diffs

let () =
  Alcotest.run "golden"
    [ ( "traces",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Quick (t_golden g))
          Support.golden_runs );
      ( "sublayer-identity",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case (name ^ " under no_faults") `Quick
              (t_golden_sublayer_identity g))
          Support.golden_runs );
      ("digests", [ Alcotest.test_case "chunking" `Quick t_digest_props ])
    ]
