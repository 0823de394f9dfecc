(* Allocation and coherence-granularity behavior at the system level:
   the size heuristic, the explicit block-size malloc, page pooling,
   fixed-block override, and whole-block transfer. *)

open Shasta_minic.Builder
open Shasta_runtime

let prepare ?fixed_block ~nprocs prog =
  let spec = { (Api.default_spec prog) with nprocs; fixed_block } in
  let state, _, _ = Api.prepare spec in
  state

let heap = Shasta_runtime.State.shared_heap_start

let read_misses (ph : Cluster.phase_result) ~node =
  Shasta_obs.Metrics.counter ph.metrics Shasta_obs.Obs.c_miss_read node

let t_heuristic_applied () =
  (* a 256-byte object gets a 256-byte block; a large array gets
     line-sized blocks (Section 4.2) *)
  let p =
    prog ~globals:[ ("small", I); ("big", I) ]
      [ proc "appinit"
          [ gset "small" (Gmalloc (i 256)); gset "big" (Gmalloc (i 65536)) ];
        proc "work" [ print_int (i 0) ]
      ]
  in
  let state = prepare ~nprocs:2 p in
  ignore (Cluster.run_app state);
  Alcotest.(check int) "small object one block" 256
    (Shasta_protocol.Granularity.block_bytes_at state.gran heap);
  (* the big array went to fresh pages after the pool page *)
  let big_addr = heap + 8192 in
  Alcotest.(check int) "big array line blocks" 64
    (Shasta_protocol.Granularity.block_bytes_at state.gran big_addr)

let t_explicit_block_size () =
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit" [ gset "a" (Gmalloc_b (i 4096, i 1024)) ];
        proc "work" [ print_int (i 0) ]
      ]
  in
  let state = prepare ~nprocs:2 p in
  ignore (Cluster.run_app state);
  Alcotest.(check int) "programmer-chosen block size" 1024
    (Shasta_protocol.Granularity.block_bytes_at state.gran heap)

let t_fixed_block_override () =
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit" [ gset "a" (Gmalloc (i 256)) ];
        proc "work" [ print_int (i 0) ]
      ]
  in
  let state = prepare ~fixed_block:512 ~nprocs:2 p in
  ignore (Cluster.run_app state);
  Alcotest.(check int) "ablation override" 512
    (Shasta_protocol.Granularity.block_bytes_at state.gran heap)

let t_pool_separates_block_sizes () =
  (* allocations with different block sizes never share a page *)
  let p =
    prog ~globals:[ ("a", I); ("b", I); ("c", I) ]
      [ proc "appinit"
          [ gset "a" (Gmalloc_b (i 128, i 128));
            gset "b" (Gmalloc_b (i 128, i 512));
            gset "c" (Gmalloc_b (i 128, i 128)) ];
        proc "work"
          [ print_int (g "a" /% i 8192);
            print_int (g "b" /% i 8192);
            print_int (g "c" /% i 8192) ]
      ]
  in
  let state = prepare ~nprocs:1 p in
  let ph = Cluster.run_app state in
  match String.split_on_char '\n' (String.trim ph.output) with
  | [ pa; pb; pc ] ->
    Alcotest.(check bool) "different sizes on different pages" true (pa <> pb);
    Alcotest.(check string) "same size shares its page" pa pc
  | _ -> Alcotest.fail "unexpected output"

let t_whole_block_transfer () =
  (* with a 512-byte block, reading one word moves all 8 lines: the
     other words are then local hits (one read miss total) *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit"
          [ gset "a" (Gmalloc_b (i 512, i 512));
            for_ "k" (i 0) (i 64) [ sti (g "a") (v "k") (v "k") ] ];
        proc "work"
          [ when_ (Pid ==% i 1)
              [ let_i "s" (i 0);
                for_ "k" (i 0) (i 64)
                  [ set "s" (v "s" +% ldi (g "a") (v "k")) ];
                sti (g "a") (i 0) (v "s") ];
            barrier;
            when_ (Pid ==% i 0) [ print_int (ldi (g "a") (i 0)) ] ]
      ]
  in
  let state = prepare ~nprocs:2 p in
  let ph = Cluster.run_app state in
  Alcotest.(check string) "sum correct" "2016\n" ph.output;
  Alcotest.(check int) "single read miss for 8 lines" 1
    (read_misses ph ~node:1)

let t_fine_blocks_more_misses () =
  (* the same scan with 64-byte blocks takes 8 read misses *)
  let p =
    prog ~globals:[ ("a", I) ]
      [ proc "appinit"
          [ gset "a" (Gmalloc_b (i 512, i 64));
            for_ "k" (i 0) (i 64) [ sti (g "a") (v "k") (v "k") ] ];
        proc "work"
          [ when_ (Pid ==% i 1)
              [ let_i "s" (i 0);
                for_ "k" (i 0) (i 64)
                  [ set "s" (v "s" +% ldi (g "a") (v "k")) ];
                sti (g "a") (i 0) (v "s") ];
            barrier;
            when_ (Pid ==% i 0) [ print_int (ldi (g "a") (i 0)) ] ]
      ]
  in
  let state = prepare ~nprocs:2 p in
  let ph = Cluster.run_app state in
  Alcotest.(check string) "sum correct" "2016\n" ph.output;
  Alcotest.(check int) "one miss per line" 8 (read_misses ph ~node:1)

let t_line_128 () =
  (* the other line size the paper configures *)
  let p = Shasta_apps.Ocean.program ~n:18 ~iters:2 () in
  let expected = Test_support.Support.ground_truth p in
  let opts = { Shasta.Opts.full with line_shift = 7 } in
  let got, _ = Test_support.Support.run ~opts:(Some opts) ~nprocs:4 p in
  Alcotest.(check string) "128-byte lines correct in parallel" expected got

let () =
  Alcotest.run "granularity"
    [ ( "allocation",
        [ Alcotest.test_case "size heuristic" `Quick t_heuristic_applied;
          Alcotest.test_case "explicit block size" `Quick
            t_explicit_block_size;
          Alcotest.test_case "fixed-block override" `Quick
            t_fixed_block_override;
          Alcotest.test_case "page pooling" `Quick t_pool_separates_block_sizes
        ] );
      ( "coherence unit",
        [ Alcotest.test_case "whole-block transfer" `Quick
            t_whole_block_transfer;
          Alcotest.test_case "fine blocks miss per line" `Quick
            t_fine_blocks_more_misses;
          Alcotest.test_case "128-byte lines" `Quick t_line_128 ] )
    ]
