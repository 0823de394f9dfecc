(* LU across processor counts: the library as a user would drive it for
   a scaling study.  Prints checksum (verified against the sequential
   run), speedups, and the communication behind them. *)

open Shasta_runtime

let () =
  let prog = Shasta_apps.Lu.program ~n:48 ~bs:8 () in
  let expected =
    (Api.run { (Api.default_spec prog) with opts = None }).phase.output
  in
  Printf.printf "sequential checksum: %s" expected;
  let base = ref 0 in
  List.iter
    (fun nprocs ->
      let r = Api.run { (Api.default_spec prog) with nprocs } in
      if r.phase.output <> expected then failwith "parallel result differs!";
      if nprocs = 1 then base := r.phase.wall_cycles;
      Printf.printf
        "P=%d: %9d cycles  speedup %.2f  %5d msgs  %5d misses  (result ok)\n"
        nprocs r.phase.wall_cycles
        (float_of_int !base /. float_of_int r.phase.wall_cycles)
        r.phase.msgs_sent (Api.phase_misses r.phase))
    [ 1; 2; 4; 8 ]
