(* Refinement suite: the protocol refines the serial-memory spec.

   Four layers, bottom up:

   - QCheck laws of the spec machine ([Refine]): stepping is a pure
     function of (state, step) — replaying a committed run reproduces
     the same canonical state; loads and stores on DISJOINT blocks
     commute (same outcome, same final state, in both orders); a load
     never changes what a later load of the same block may observe.

   - QCheck law of the race detector: no false negatives on directed
     racy programs — two conflicting accesses from different nodes
     with no synchronizing edge between them (each node may
     acquire/release its own private lock, which must NOT order them)
     are always reported.

   - Exhaustive refinement at P=2 over every scenario family — base
     (plus the directed release-order scenario), scaling
     (limited-pointer overflow, the stale-home trap, queue locks,
     combining-tree barrier), crash family under the crash/recover adversary, and
     the base family over lossy channels — must find no divergence:
     every user-visible commit maps onto exactly one atomic spec
     step and everything else stutters.

   - P=3 fuzz smoke of the same families, plus the derived per-run
     fuzz seed stream pinned collision-free (the old derivation
     summed the run index into the splitmix seed before finalizing,
     so neighbouring (seed, index) pairs collided). *)

open QCheck2
module T = Shasta_protocol.Transitions
module Mcheck = Shasta_mcheck.Mcheck
module Refine = Shasta_mcheck.Refine

let qtest name ?(count = 200) gen prop =
  QCheck_alcotest.to_alcotest (Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Spec machine laws                                                   *)
(* ------------------------------------------------------------------ *)

let nprocs = 2
let blocks = [ 0; 1; 2 ]

(* Random user-step programs over a tiny alphabet.  Lock/flag steps
   are included with preconditions that may fail — the laws only
   quantify over steps the spec accepts, so a rejected step simply
   ends the replayed prefix. *)
let gen_sstep =
  Gen.(
    let node = int_bound (nprocs - 1) in
    let block = oneofl blocks in
    oneof
      [ map3
          (fun node block value -> Refine.S_store { node; block; value })
          node block (int_bound 9);
        map2
          (fun node id -> Refine.S_lock { node; id })
          node (int_bound 1);
        map2
          (fun node id -> Refine.S_unlock { node; id })
          node (int_bound 1);
        map2
          (fun node id -> Refine.S_flag_set { node; id })
          node (int_bound 1) ])

let gen_program = Gen.list_size (Gen.int_range 0 12) gen_sstep

(* Fold a program through the spec, dropping rejected steps (their
   preconditions simply did not hold in the generated context). *)
let replay prog =
  List.fold_left
    (fun s st ->
      match Refine.step s st with Ok s' -> s' | Error _ -> s)
    (Refine.init ~nprocs ~blocks)
    prog

let t_spec_deterministic =
  qtest "spec replay is deterministic" gen_program (fun prog ->
      Refine.equal (replay prog) (replay prog)
      && Refine.canon (replay prog) = Refine.canon (replay prog))

(* Accesses to distinct blocks commute: same accept/reject outcome and
   the same final state in either order. *)
let gen_disjoint_pair =
  Gen.(
    let* prog = gen_program in
    let* n1 = int_bound (nprocs - 1) in
    let* n2 = int_bound (nprocs - 1) in
    let* v1 = int_bound 9 in
    let* v2 = int_bound 9 in
    let* b1 = oneofl blocks in
    let* b2 = oneofl (List.filter (fun b -> b <> b1) blocks) in
    let acc node block value =
      oneofl
        [ Refine.S_store { node; block; value };
          Refine.S_load
            { node; block; value (* may be inadmissible: that is fine *) } ]
    in
    let* a1 = acc n1 b1 v1 in
    let* a2 = acc n2 b2 v2 in
    pure (prog, a1, a2))

let t_spec_commute =
  qtest "disjoint-block accesses commute" gen_disjoint_pair
    (fun (prog, a1, a2) ->
      let s = replay prog in
      let seq x y =
        match Refine.step s x with
        | Error e -> Error e
        | Ok s' -> Refine.step s' y
      in
      match (seq a1 a2, seq a2 a1) with
      | Ok s12, Ok s21 -> Refine.equal s12 s21
      | Error _, Error _ -> true
      | _ -> false)

(* A load collapses its block to a singleton: immediately loading the
   block again can observe exactly that value and nothing else. *)
let t_spec_load_stable =
  qtest "a load pins what later loads observe"
    Gen.(
      let* prog = gen_program in
      let* node = int_bound (nprocs - 1) in
      let* block = oneofl blocks in
      pure (prog, node, block))
    (fun (prog, node, block) ->
      let s = replay prog in
      match Refine.mem_values s block with
      | [] -> false (* a block's admissible set is never empty *)
      | v :: _ -> (
        match Refine.step s (Refine.S_load { node; block; value = v }) with
        | Error _ -> false
        | Ok s' -> Refine.mem_values s' block = [ v ]))

(* ------------------------------------------------------------------ *)
(* Race detector: no false negatives on directed racy programs        *)
(* ------------------------------------------------------------------ *)

(* Two conflicting accesses to the same block from different nodes; in
   between, each node may take and release its own PRIVATE lock (node
   0 only ever touches lock 0, node 1 only lock 1), which creates no
   edge between them.  The second access must always be reported. *)
let gen_racy =
  Gen.(
    let* block = oneofl blocks in
    let* w1 = bool in
    (* at least one side writes *)
    let* w2 = if w1 then bool else pure true in
    let noise node =
      small_list
        (oneofl
           [ Refine.S_lock { node; id = node };
             Refine.S_unlock { node; id = node };
             Refine.S_store { node; block = 2 - block; value = 7 } ])
    in
    let* noise0 = noise 0 in
    let* noise1 = noise 1 in
    let acc node w =
      if w then Refine.S_store { node; block; value = 1 + node }
      else Refine.S_load { node; block; value = 0 }
    in
    pure (noise0 @ [ acc 0 w1 ] @ noise1 @ [ acc 1 w2 ]))

let t_racer_no_false_negative =
  qtest "conflicting unsynchronized accesses always reported" gen_racy
    (fun prog ->
      let _, races =
        List.fold_left
          (fun (r, races) st ->
            let r, reports = Refine.observe r st in
            (r, races @ reports))
          (Refine.racer_init ~nprocs, [])
          prog
      in
      races <> [])

(* And the mirror sanity check: a properly flag-ordered handoff is
   race-free. *)
let t_racer_handoff_clean () =
  let prog =
    [ Refine.S_store { node = 0; block = 0; value = 5 };
      Refine.S_flag_set { node = 0; id = 0 };
      Refine.S_flag_wait { node = 1; id = 0 };
      Refine.S_load { node = 1; block = 0; value = 5 } ]
  in
  let _, races =
    List.fold_left
      (fun (r, races) st ->
        let r, reports = Refine.observe r st in
        (r, races @ reports))
      (Refine.racer_init ~nprocs, [])
      prog
  in
  Alcotest.(check (list string)) "flag handoff is race-free" [] races

(* ------------------------------------------------------------------ *)
(* Exhaustive refinement, P=2                                          *)
(* ------------------------------------------------------------------ *)

let assert_clean ?injection ?lossy ?crash ?recover tag scs =
  List.iter
    (fun (sc : Mcheck.scenario) ->
      let r =
        Mcheck.check_exhaustive ?injection ?lossy ?crash ?recover
          ~refine:true sc
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s explored fully" tag sc.Mcheck.sname)
        false r.Mcheck.truncated;
      match r.Mcheck.violation with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (Printf.sprintf "%s %s: divergence" tag sc.Mcheck.sname))
    scs

let t_exhaustive_base () =
  assert_clean "base" (Mcheck.refine_scenarios ~nprocs:2)

let t_exhaustive_scale () =
  assert_clean "scale" (Mcheck.scale_scenarios ~nprocs:2)

let t_exhaustive_lossy () =
  assert_clean ~lossy:2 "lossy" (Mcheck.refine_scenarios ~nprocs:2)

let t_exhaustive_crash () =
  assert_clean ~crash:1 "crash" (Mcheck.crash_scenarios ~nprocs:2);
  assert_clean ~crash:1 ~recover:1 "crash+recover"
    (Mcheck.crash_scenarios ~nprocs:2)

(* Regression for the lost-update bug the crash refinement pass found:
   a salvage adopt at a coordinator with a pending upgrade used to
   clobber its written-in-place longwords with the victim's frozen
   image, silently undoing a committed store (the terminal held the
   PREVIOUS increment).  Pre-refinement invariants all pass on that
   trace; the serial memory does not. *)
let t_crash_lock_increment_refines () =
  let r =
    Mcheck.check_exhaustive ~crash:1 ~recover:1 ~refine:true
      (Mcheck.lock_increment ~nprocs:2)
  in
  (match r.Mcheck.violation with
   | None -> ()
   | Some v ->
     Mcheck.pp_violation stderr v;
     Alcotest.fail "lock-increment diverges under crash/recover");
  Alcotest.(check bool) "explored fully" false r.Mcheck.truncated

(* ------------------------------------------------------------------ *)
(* P=3 fuzz smoke + seed stream                                        *)
(* ------------------------------------------------------------------ *)

let t_fuzz_p3 () =
  List.iter
    (fun (sc : Mcheck.scenario) ->
      let _, v = Mcheck.fuzz ~refine:true ~seed:11 ~runs:60 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": fuzz divergence"))
    (Mcheck.refine_scenarios ~nprocs:3)

let t_fuzz_p3_crash () =
  List.iter
    (fun (sc : Mcheck.scenario) ->
      let _, v =
        Mcheck.fuzz ~crash:1 ~recover:1 ~refine:true ~seed:13 ~runs:60 sc
      in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": crash fuzz divergence"))
    (Mcheck.crash_scenarios ~nprocs:3)

(* The per-run seeds must be pairwise distinct, and distinct base
   seeds must not slide into each other's streams (the old derivation
   added the run index into the seed before finalizing, so
   (seed, k+1) collided with (seed+1, k)). *)
let t_fuzz_seeds_unique () =
  let a = Mcheck.fuzz_seeds ~seed:7 ~runs:5000 in
  let b = Mcheck.fuzz_seeds ~seed:8 ~runs:5000 in
  let module S = Set.Make (Int) in
  let sa = S.of_list a and sb = S.of_list b in
  Alcotest.(check int) "runs from one seed all distinct" 5000 (S.cardinal sa);
  Alcotest.(check int) "neighbouring seeds do not collide" 0
    (S.cardinal (S.inter sa sb))

let () =
  Alcotest.run "refine"
    [ ( "spec",
        [ t_spec_deterministic; t_spec_commute; t_spec_load_stable ] );
      ( "racer",
        [ t_racer_no_false_negative;
          Alcotest.test_case "flag handoff race-free" `Quick
            t_racer_handoff_clean ] );
      ( "exhaustive",
        [ Alcotest.test_case "base scenarios refine at P=2" `Quick
            t_exhaustive_base;
          Alcotest.test_case "scale scenarios refine at P=2" `Quick
            t_exhaustive_scale;
          Alcotest.test_case "base scenarios refine under loss" `Quick
            t_exhaustive_lossy;
          Alcotest.test_case "crash scenarios refine at P=2" `Quick
            t_exhaustive_crash;
          Alcotest.test_case "salvage lost-update regression" `Quick
            t_crash_lock_increment_refines ] );
      ( "fuzz",
        [ Alcotest.test_case "scenarios refine at P=3 (fuzz)" `Quick
            t_fuzz_p3;
          Alcotest.test_case "crash scenarios refine at P=3 (fuzz)" `Quick
            t_fuzz_p3_crash;
          Alcotest.test_case "per-run fuzz seeds are unique" `Quick
            t_fuzz_seeds_unique ] ) ]
