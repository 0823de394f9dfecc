(* CI perf regression gate over versioned BENCH_*.json files.

   Usage: bench_gate --baseline bench/baseline/BENCH_seed.json BENCH_new.json

   Loads both files through Benchjson (JSON Lines, one record per
   workload/nprocs/line/opts configuration), runs the gate — every
   simulated metric on exact equality — prints a delta table, and exits
   1 when any metric regressed or a baseline record disappeared.  All policy lives in {!Shasta_obs.Benchjson.gate};
   this binary is argument parsing and rendering. *)

module B = Shasta_obs.Benchjson

(* display-only rendering: floats get trimmed to readable precision
   (the files themselves keep full round-trip precision) *)
let num_opt_str = function
  | None -> "-"
  | Some (B.Int i) -> string_of_int i
  | Some (B.Float f) -> Printf.sprintf "%.5g" f

let delta_str (c : B.check) =
  match (c.c_base, c.c_cand) with
  | Some b, Some cv ->
    let b = match b with B.Int i -> float_of_int i | B.Float f -> f in
    let v = match cv with B.Int i -> float_of_int i | B.Float f -> f in
    if b = v then "="
    else if b = 0.0 then "new"
    else Printf.sprintf "%+.2f%%" (100.0 *. (v -. b) /. b)
  | _ -> "-"

let print_table checks ~verbose =
  (* one row per check; without --verbose, passing rows other than
     sim_cycles are folded away to keep the table readable on big
     files *)
  let interesting (c : B.check) =
    verbose || (not c.c_ok) || c.c_metric = "sim_cycles"
    || c.c_status = B.New
  in
  let rows = List.filter interesting checks in
  let widths = [ 30; 22; 14; 14; 9; 10 ] in
  let pad w s =
    if String.length s >= w then s else s ^ String.make (w - String.length s) ' '
  in
  let line cells =
    print_endline
      (String.concat "  " (List.map2 pad widths cells) |> String.trim
       |> fun s -> "  " ^ s)
  in
  line [ "record"; "metric"; "baseline"; "candidate"; "delta"; "status" ];
  line [ "------"; "------"; "--------"; "---------"; "-----"; "------" ];
  List.iter
    (fun (c : B.check) ->
      line
        [ c.c_key; c.c_metric; num_opt_str c.c_base; num_opt_str c.c_cand;
          delta_str c; B.status_str c.c_status ])
    rows;
  let hidden = List.length checks - List.length rows in
  if hidden > 0 then
    Printf.printf "  (%d passing metric(s) not shown; --verbose prints all)\n"
      hidden

let run baseline candidate verbose =
  let base = B.load_file baseline in
  let cand = B.load_file candidate in
  let checks, ok = B.gate ~baseline:base ~candidate:cand in
  Printf.printf
    "bench_gate: %s (baseline, %d record(s)) vs %s (%d record(s))\n\n"
    baseline (List.length base) candidate (List.length cand);
  print_table checks ~verbose;
  let regressions =
    List.filter (fun (c : B.check) -> not c.B.c_ok) checks
  in
  print_newline ();
  if ok then begin
    Printf.printf "PASS: %d metric(s) checked, no regressions\n"
      (List.length checks);
    0
  end
  else begin
    Printf.printf "FAIL: %d regression(s) out of %d metric(s) checked\n"
      (List.length regressions) (List.length checks);
    List.iter
      (fun (c : B.check) ->
        Printf.printf "  %s %s: %s (baseline %s, candidate %s)\n" c.B.c_key
          c.B.c_metric c.B.c_note (num_opt_str c.B.c_base)
          (num_opt_str c.B.c_cand))
      regressions;
    1
  end

open Cmdliner

let baseline =
  Arg.(
    required
    & opt (some file) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Baseline BENCH_*.json file (JSON Lines, Benchjson schema).")

let candidate =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"CANDIDATE" ~doc:"Candidate BENCH_*.json file to gate.")

let verbose =
  Arg.(
    value & flag
    & info [ "verbose" ] ~doc:"Print every compared metric, not a digest.")

let cmd =
  let doc = "gate a candidate BENCH file against a baseline" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Compares every record of the baseline against the candidate (matched \
         on workload/nprocs/line/opts). Every metric — cycles, messages, \
         misses and per-workload extras — is simulated, deterministic and \
         must match exactly. Exits 1 on any regression or missing record.";
      `S Manpage.s_examples;
      `Pre
        "  dune exec bench/main.exe -- --quick --json-out BENCH_quick.json\n\
        \  dune exec bin/bench_gate.exe -- \\\n\
        \    --baseline bench/baseline/BENCH_seed.json BENCH_quick.json" ]
  in
  Cmd.v
    (Cmd.info "bench_gate" ~doc ~man)
    Term.(const run $ baseline $ candidate $ verbose)

let () = exit (Cmd.eval' cmd)
