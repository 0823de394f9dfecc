(* Interpreter semantics: each instruction class executed directly
   through a one-node cluster built around a hand-written executable. *)

open Shasta_isa
open Shasta_runtime

(* Build a one-node state around a raw procedure, ready to run. *)
let load_raw body =
  let compiled =
    Shasta_minic.Compile.compile
      (Shasta_minic.Builder.prog [ Shasta_minic.Builder.proc "work" [] ])
  in
  let program =
    Program.validate
      { Program.procs =
          [ { pname = "work"; body } ];
        entry = "work" }
  in
  let config = State.default_config ~nprocs:1 () in
  let state = Cluster.create ~config ~compiled:{ compiled with program } () in
  let node = state.nodes.(0) in
  Cluster.reset_node_for state node ~proc:"work";
  (state, node)

let run_raw body =
  let state, node = load_raw body in
  Cluster.run_until_done state;
  node

let reg node r = node.Node.regs.(r)
let freg node f = node.Node.fregs.(f)

let li d n : Insn.t = Lda (d, n, Reg.zero)

let t_alu () =
  let node =
    run_raw
      [ li 1 20; li 2 22;
        Opi (Addq, 3, Reg 2, 1);
        Opi (Subq, 4, Reg 1, 2);
        Opi (Mulq, 5, Reg 1, 2);
        Opi (And_, 6, Imm 0xF, 1);
        Opi (Or_, 7, Imm 0x40, 1);
        Opi (Xor_, 8, Reg 1, 1);
        Opi (Sll, 9, Imm 3, 1);
        Opi (Srl, 10, Imm 2, 1);
        Opi (Sra, 11, Imm 1, 4);
        Ret ]
  in
  Alcotest.(check int) "addq" 42 (reg node 3);
  Alcotest.(check int) "subq" 2 (reg node 4);
  Alcotest.(check int) "mulq" 440 (reg node 5);
  Alcotest.(check int) "and" 4 (reg node 6);
  Alcotest.(check int) "or" 84 (reg node 7);
  Alcotest.(check int) "xor" 0 (reg node 8);
  Alcotest.(check int) "sll" 160 (reg node 9);
  Alcotest.(check int) "srl" 5 (reg node 10);
  Alcotest.(check int) "sra negative" 1 (reg node 11)

let t_addl_wraps () =
  let node =
    run_raw
      [ li 1 0x7FFFFFFF; li 2 1; Opi (Addl, 3, Reg 2, 1); Ret ]
  in
  Alcotest.(check int) "addl wraps to negative" (-0x80000000) (reg node 3)

let t_compares_and_branches () =
  let node =
    run_raw
      [ li 1 5; li 2 9;
        Opi (Cmplt, 3, Reg 2, 1);
        Opi (Cmpeq, 4, Reg 2, 1);
        Bc (Ne, 3, "taken");
        li 5 111; (* skipped *)
        Lab "taken";
        li 6 222;
        Ret ]
  in
  Alcotest.(check int) "cmplt true" 1 (reg node 3);
  Alcotest.(check int) "cmpeq false" 0 (reg node 4);
  Alcotest.(check int) "branch skipped the load" 0 (reg node 5);
  Alcotest.(check int) "fallthrough executed" 222 (reg node 6)

let t_memory_ops () =
  let sp = Reg.sp in
  let node =
    run_raw
      [ li 1 0x12345678;
        Stq (1, -16, sp);
        Ldq (2, -16, sp);
        Ldl (3, -16, sp);
        Stl (1, -8, sp);
        Ldl (4, -8, sp);
        Ldq_u (5, -13, sp); (* unaligned: rounds down to -16 *)
        Ret ]
  in
  Alcotest.(check int) "stq/ldq" 0x12345678 (reg node 2);
  Alcotest.(check int) "ldl low longword" 0x12345678 (reg node 3);
  Alcotest.(check int) "stl/ldl" 0x12345678 (reg node 4);
  Alcotest.(check int) "ldq_u aligns" 0x12345678 (reg node 5)

let t_extbl () =
  let node =
    run_raw
      [ li 1 0x0403_0201;
        Stl (1, -8, Reg.sp);
        Lda (2, -6, Reg.sp); (* byte 2 of the longword *)
        Ldq_u (3, 0, 2);
        Extbl (4, 3, 2);
        Ret ]
  in
  Alcotest.(check int) "extbl picks byte (addr & 7)" 3 (reg node 4)

let t_float_ops () =
  let node =
    run_raw
      [ li 1 7;
        Cvtqt (1, 1);
        Opf (Addt, 2, 1, 1);
        Opf (Mult, 3, 2, 1);
        Opf (Sqrtt, 4, 3, Reg.fzero);
        Opf (Cmptlt, 5, 1, 2);
        Cvttq (2, 6);
        Ret ]
  in
  Alcotest.(check (float 1e-9)) "cvtqt+addt" 14.0 (freg node 2);
  Alcotest.(check (float 1e-9)) "mult" 98.0 (freg node 3);
  Alcotest.(check (float 1e-9)) "sqrtt" (sqrt 98.0) (freg node 4);
  Alcotest.(check (float 0.0)) "cmptlt true is 1.0" 1.0 (freg node 5);
  Alcotest.(check int) "cvttq truncates" 14 (reg node 6)

let t_fp_branches () =
  let node =
    run_raw
      [ Opf (Subt, 1, 1, 1); (* f1 = 0.0 *)
        Fbne (1, "no");
        li 2 1;
        Lab "no";
        Fbeq (1, "yes");
        li 3 999; (* skipped *)
        Lab "yes";
        Ret ]
  in
  Alcotest.(check int) "fbne not taken on zero" 1 (reg node 2);
  Alcotest.(check int) "fbeq taken on zero" 0 (reg node 3)

let t_call_ret () =
  let compiled =
    Shasta_minic.Compile.compile
      (Shasta_minic.Builder.prog [ Shasta_minic.Builder.proc "work" [] ])
  in
  let program =
    Program.validate
      { Program.procs =
          [ { pname = "work"; body = [ li 1 5; Jsr "callee"; li 3 30; Ret ] };
            { pname = "callee";
              body = [ Opi (Addq, 2, Imm 7, 1); Ret ] } ];
        entry = "work" }
  in
  let config = State.default_config ~nprocs:1 () in
  let state = Cluster.create ~config ~compiled:{ compiled with program } () in
  let node = state.nodes.(0) in
  Cluster.reset_node_for state node ~proc:"work";
  Cluster.run_until_done state;
  Alcotest.(check int) "callee ran" 12 (reg node 2);
  Alcotest.(check int) "control returned" 30 (reg node 3)

let t_zero_register () =
  let node = run_raw [ li Reg.zero 42; Opi (Addq, 1, Imm 1, Reg.zero); Ret ] in
  Alcotest.(check int) "writes to r31 discarded" 1 (reg node 1)

let t_div_by_zero_detected () =
  Alcotest.check_raises "division by zero is a simulation error"
    (Exec.Sim_error "integer division by zero")
    (fun () ->
      ignore (run_raw [ li 1 1; li 2 0; Opi (Divq, 3, Reg 2, 1); Ret ]))

(* An ordinary instruction allocates nothing, and neither does entering
   the interpreter: a loop of integer, memory, floating-point and branch
   instructions allocates exactly as many minor words at 10k iterations
   as at 1k.  Guards against boxed floats or per-instruction closures
   coming back. *)
let t_no_allocation_per_insn () =
  let sp = Reg.sp in
  let words iters =
    let state, node =
      load_raw
        [ li 1 0; li 2 iters; li 3 1; Cvtqt (3, 1);
          Lab "top";
          Stq (1, -16, sp);
          Ldq (4, -16, sp);
          Ldl (5, -16, sp);
          Lda (5, 3, 4);
          Cvtqt (4, 2);
          Opf (Addt, 3, 3, 2);
          Opf (Mult, 4, 3, 1);
          Stt (4, -24, sp);
          Ldt (5, -24, sp);
          Fbeq (5, "skip");
          Opi (Sll, 6, Imm 2, 1);
          Lab "skip";
          Opi (Addq, 1, Imm 1, 1);
          Opi (Cmplt, 7, Reg 2, 1);
          Bc (Ne, 7, "top");
          Ret ]
    in
    (* in slices of 100 instructions, as the scheduler enters it *)
    let rec run () =
      match Exec.run state node ~fuel:100 with
      | Exec.Y_running -> run ()
      | y -> y
    in
    let before = Gc.minor_words () in
    let y = run () in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "ran to the end" true (y = Exec.Y_done);
    Alcotest.(check int) "loop ran" iters (reg node 1);
    words
  in
  let w1k = words 1_000 in
  Alcotest.(check (float 0.0)) "minor words at 10k iterations = at 1k" w1k
    (words 10_000)

(* The compiled image stays compact: identical instructions share one
   op, and ops take their text address from the per-procedure [addr]
   array instead of holding it.  Measured on the KV service, the largest
   executable: everything reachable from its compiled procedures (ops,
   addresses, source table).  The image measures 37,010 words for 6,795
   instructions; compiling one op per instruction makes it 73,303, well
   past the bound of 40,000. *)
let t_compiled_image_compact () =
  let prog =
    Shasta_apps.Sht.program ~cfg:Shasta_apps.Apps.sht_test_cfg
      ~wl:Shasta_apps.Apps.sht_test_wl ()
  in
  let state, _, _ = Api.prepare { (Api.default_spec prog) with nprocs = 1 } in
  let fprocs = state.State.image.Image.fprocs in
  let insns =
    Array.fold_left (fun n (fp : _ Image.fproc) -> n + Array.length fp.ops) 0
      fprocs
  in
  let words = Obj.reachable_words (Obj.repr fprocs) in
  Alcotest.(check bool) "a large image" true (insns > 1000);
  if words > 40_000 then
    Alcotest.failf "compiled image: %d words for %d instructions" words insns

let () =
  Alcotest.run "exec"
    [ ( "semantics",
        [ Alcotest.test_case "integer alu" `Quick t_alu;
          Alcotest.test_case "addl wraps" `Quick t_addl_wraps;
          Alcotest.test_case "compares/branches" `Quick
            t_compares_and_branches;
          Alcotest.test_case "memory ops" `Quick t_memory_ops;
          Alcotest.test_case "extbl" `Quick t_extbl;
          Alcotest.test_case "float ops" `Quick t_float_ops;
          Alcotest.test_case "fp branches" `Quick t_fp_branches;
          Alcotest.test_case "call/ret" `Quick t_call_ret;
          Alcotest.test_case "zero register" `Quick t_zero_register;
          Alcotest.test_case "div by zero" `Quick t_div_by_zero_detected ] );
      ( "hot path",
        [ Alcotest.test_case "no allocation per instruction" `Quick
            t_no_allocation_per_insn;
          Alcotest.test_case "compiled image is compact" `Quick
            t_compiled_image_compact ] )
    ]
