(* Quickstart: write a small parallel program, compile it, let the
   Shasta compiler insert the miss checks, and run it on a simulated
   cluster.

   The program sums an array: the initializer (run on node 0, like the
   sequential start of a SPLASH-2 application) fills a shared array;
   each processor then sums its contiguous slice into a per-processor
   cell of a shared result array; processor 0 reduces the cells after a
   barrier.  `dune exec examples/quickstart.exe` prints the result and
   the run statistics. *)

open Shasta_minic.Builder

let n = 4096

let program =
  prog
    ~globals:[ ("data", I); ("partial", I) ]
    [ proc "appinit"
        [ gset "data" (Gmalloc (i (8 * n)));
          gset "partial" (Gmalloc_b (i (8 * 16), i 64));
          for_ "k" (i 0) (i n) [ sti (g "data") (v "k") (v "k" %% i 100) ]
        ];
      proc "work"
        [ let_i "chunk" (i n /% Nprocs);
          let_i "lo" (v "chunk" *% Pid);
          let_i "hi" (v "lo" +% v "chunk");
          let_i "sum" (i 0);
          for_ "k" (v "lo") (v "hi")
            [ set "sum" (v "sum" +% ldi (g "data") (v "k")) ];
          sti (g "partial") Pid (v "sum");
          barrier;
          when_ (Pid ==% i 0)
            [ let_i "total" (i 0);
              for_ "p" (i 0) Nprocs
                [ set "total" (v "total" +% ldi (g "partial") (v "p")) ];
              print_int (v "total")
            ]
        ]
    ]

let expected =
  let s = ref 0 in
  for k = 0 to n - 1 do
    s := !s + (k mod 100)
  done;
  !s

let () =
  let nprocs = 4 in
  let spec =
    { (Shasta_runtime.Api.default_spec program) with
      nprocs;
      opts = Some Shasta.Opts.full }
  in
  let r = Shasta_runtime.Api.run spec in
  Printf.printf "expected total : %d\n" expected;
  Printf.printf "program output : %s" r.phase.output;
  Printf.printf "parallel cycles: %d on %d processors\n" r.phase.wall_cycles
    nprocs;
  (match r.inst_stats with
   | Some s ->
     Printf.printf "instrumented   : %d/%d loads, %d/%d stores, %d batches\n"
       s.loads_instrumented s.loads_total s.stores_instrumented s.stores_total
       s.batches
   | None -> ());
  Array.iteri
    (fun i (c : Shasta_runtime.Node.counters) ->
      (* protocol events are counted in the observability registry *)
      let count name = Shasta_obs.Metrics.counter r.phase.metrics name i in
      Printf.printf
        "  node %d: %d insns, %d read / %d write / %d upgrade misses, %d polls\n"
        i c.insns
        (count Shasta_obs.Obs.c_miss_read)
        (count Shasta_obs.Obs.c_miss_write)
        (count Shasta_obs.Obs.c_miss_upgrade)
        c.polls)
    r.phase.counters;
  if String.trim r.phase.output = string_of_int expected then
    print_endline "OK: parallel result matches sequential expectation"
  else begin
    print_endline "MISMATCH";
    exit 1
  end
