(* Timing-model tests: the pipeline features the paper's overhead
   analysis depends on — dual issue, load-use and shift-use delays,
   static branch prediction, the single memory port. *)

open Shasta_isa
open Shasta_machine

let issue_seq ?(config = Pipeline.alpha_21064a) insns =
  let p = Pipeline.create config in
  List.iter
    (fun i -> Pipeline.issue p (Pipeline.decode config i) ~iaddr:0 ~maddr:0 ~branch:Pipeline.B_none)
    insns;
  Pipeline.cycle p

let dec = Pipeline.decode Pipeline.alpha_21064a
let add d a b : Insn.t = Opi (Addq, d, Reg a, b)
let shift d a : Insn.t = Opi (Srl, d, Imm 6, a)

let t_dual_issue () =
  let two = issue_seq [ add 1 2 3; add 4 5 6 ] in
  let four =
    issue_seq ~config:Pipeline.alpha_21164
      [ add 1 2 3; add 4 5 6; add 7 8 9; add 10 11 12 ]
  in
  Alcotest.(check int) "two adds in one group (21064A)" 0 two;
  Alcotest.(check int) "four adds in one group (21164)" 0 four

let t_dependent_serializes () =
  let c = issue_seq [ add 1 2 3; add 4 1 5 ] in
  Alcotest.(check bool) "dependent add waits" true (c >= 1)

let t_shift_use_delay () =
  (* the 21064A's shift result delay: srl ; use stalls one extra cycle
     compared to srl ; unrelated ; use (Figure 4's motivation) *)
  let stalled = issue_seq [ shift 1 2; add 3 1 4 ] in
  let filled = issue_seq [ shift 1 2; add 9 10 11; add 3 1 4 ] in
  Alcotest.(check bool) "shift-use stalls" true (stalled >= 1);
  Alcotest.(check bool) "delay slot fill is free" true (filled <= stalled + 1);
  let fast =
    issue_seq ~config:Pipeline.alpha_21164 [ shift 1 2; add 3 1 4 ]
  in
  Alcotest.(check bool) "21164 shift cheaper" true (fast <= stalled)

let t_load_use_delay () =
  let quick = issue_seq [ Ldq (1, 0, 2); add 5 6 7 ] in
  let stalled = issue_seq [ Ldq (1, 0, 2); add 5 1 7 ] in
  Alcotest.(check bool) "load-use stalls more than load-other" true
    (stalled > quick)

let t_single_memory_port () =
  let c = issue_seq [ Ldq (1, 0, 30); Ldq (2, 8, 30) ] in
  Alcotest.(check bool) "two loads cannot share a cycle" true (c >= 1)

let t_branch_prediction () =
  let p = Pipeline.create Pipeline.alpha_21064a in
  Pipeline.issue p (dec (Insn.Bc (Eq, 1, "x"))) ~iaddr:0 ~maddr:0
    ~branch:(Pipeline.B_taken { backward = false });
  let mispredicted = Pipeline.cycle p in
  let p2 = Pipeline.create Pipeline.alpha_21064a in
  Pipeline.issue p2 (dec (Insn.Bc (Eq, 1, "x"))) ~iaddr:0 ~maddr:0
    ~branch:(Pipeline.B_taken { backward = true });
  Alcotest.(check bool) "mispredict costs" true
    (mispredicted > Pipeline.cycle p2)

let t_fp_latency () =
  let dep = issue_seq [ Opf (Addt, 1, 2, 3); Opf (Mult, 4, 1, 5) ] in
  let indep = issue_seq [ Opf (Addt, 1, 2, 3); Opf (Mult, 4, 6, 5) ] in
  Alcotest.(check bool) "fp dependence stalls fp latency" true
    (dep >= Pipeline.alpha_21064a.fp_latency);
  Alcotest.(check bool) "independent fp cheaper" true (indep < dep)

let t_caches_charge_misses () =
  let caches = Cache.alpha_hierarchy () in
  let p = Pipeline.create ~caches Pipeline.alpha_21064a in
  Pipeline.issue p (dec (Insn.Ldq (1, 0, 2))) ~iaddr:0 ~maddr:0x10000
    ~branch:Pipeline.B_none;
  Pipeline.issue p (dec (add 3 1 4)) ~iaddr:4 ~maddr:0 ~branch:Pipeline.B_none;
  let cold = Pipeline.cycle p in
  Alcotest.(check bool) "cold miss costs more than the hit latency" true
    (cold > Pipeline.alpha_21064a.load_latency)

let t_stall_resets_group () =
  let p = Pipeline.create Pipeline.alpha_21064a in
  Pipeline.issue p (dec (add 1 2 3)) ~iaddr:0 ~maddr:0 ~branch:Pipeline.B_none;
  Pipeline.stall p 10;
  Alcotest.(check int) "stall advances time" 10 (Pipeline.cycle p);
  Pipeline.advance_to p 5;
  Alcotest.(check int) "advance_to never goes backward" 10 (Pipeline.cycle p)

(* --- reference model ---------------------------------------------------

   A straightforward issue model built on the instruction's register
   lists ([Insn.uses]/[fuses]/[def]/[fdef]), kept here as the oracle for
   [Pipeline.issue], which matches on the instruction directly. *)
module Ref = struct
  type t = {
    c : Pipeline.config;
    caches : Cache.hierarchy option;
    ireg : int array;
    freg : int array;
    mutable cycle : int;
    mutable slots : int;
    mutable mem_used : bool;
  }

  let create ?caches c =
    { c; caches; ireg = Array.make 32 0; freg = Array.make 32 0; cycle = 0;
      slots = 0; mem_used = false }

  let new_group t =
    t.slots <- 0;
    t.mem_used <- false

  let stall t n =
    if n > 0 then begin
      t.cycle <- t.cycle + n;
      new_group t
    end

  let latency (c : Pipeline.config) (i : Insn.t) =
    match i with
    | Ldl _ | Ldq _ | Ldq_u _ | Ldt _ -> c.load_latency
    | Opi ((Sll | Srl | Sra), _, _, _) -> c.shift_latency
    | Opi ((Mulq | Mull), _, _, _) -> c.mul_latency
    | Opi ((Divq | Remq), _, _, _) -> c.div_latency
    | Opf ((Divt | Sqrtt), _, _, _) -> c.fp_div_latency
    | Opf _ | Cvtqt _ | Cvttq _ | Fmov _ -> c.fp_latency
    | _ -> c.int_latency

  let issue t (i : Insn.t) ~iaddr ~maddr ~(branch : Pipeline.branch_info) =
    (match t.caches with Some h -> stall t (Cache.iaccess h iaddr) | None -> ());
    let ready =
      List.fold_left
        (fun a f -> if f < 31 then max a t.freg.(f) else a)
        (List.fold_left
           (fun a r -> if r < 31 then max a t.ireg.(r) else a)
           t.cycle (Insn.uses i))
        (Insn.fuses i)
    in
    if ready > t.cycle then begin
      t.cycle <- ready;
      new_group t
    end;
    if t.slots >= t.c.issue_width then begin
      t.cycle <- t.cycle + 1;
      new_group t
    end;
    if Insn.is_mem i && t.mem_used then begin
      t.cycle <- t.cycle + 1;
      new_group t
    end;
    t.slots <- t.slots + 1;
    if Insn.is_mem i then t.mem_used <- true;
    let dextra =
      match (maddr, t.caches) with
      | Some a, Some h -> Cache.daccess h a
      | _ -> 0
    in
    let at = t.cycle + latency t.c i + dextra in
    Option.iter (fun d -> if d < 31 then t.ireg.(d) <- at) (Insn.def i);
    Option.iter (fun d -> if d < 31 then t.freg.(d) <- at) (Insn.fdef i);
    if Insn.is_store i then stall t dextra;
    (match i with
     | Fbeq _ | Fbne _ -> stall t t.c.fp_branch_cost
     | Jsr _ | Ret -> stall t t.c.call_cycles
     | _ -> ());
    match branch with
    | B_taken { backward = false } | B_not_taken { backward = true } ->
      stall t t.c.mispredict_cycles
    | B_taken _ ->
      t.cycle <- t.cycle + 1;
      new_group t
    | B_none | B_not_taken _ -> ()
end

let gen_insn : Insn.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* few registers, so dependences are frequent; 31 reads as zero *)
  let r = frequency [ (8, int_range 0 7); (1, pure 31) ] in
  let disp = int_range (-64) 64 in
  let size = oneofl [ Insn.Long; Insn.Quad ] in
  let iop =
    oneofl
      Insn.[ Addq; Subq; Mulq; Divq; Remq; Addl; Subl; Mull; And_; Or_; Xor_;
             Sll; Srl; Sra; Cmpeq; Cmplt; Cmple; Cmpult; Cmpule ]
  in
  let fop =
    oneofl Insn.[ Addt; Subt; Mult; Divt; Sqrtt; Cmpteq; Cmptlt; Cmptle ]
  in
  let operand =
    oneof [ map (fun r -> Insn.Reg r) r; map (fun i -> Insn.Imm i) small_nat ]
  in
  let range =
    map2 (fun rbase n ->
        { Insn.rbase;
          accesses =
            List.init n (fun k ->
              { Insn.disp = 8 * k; asize = Quad; is_store = k = 0 }) })
      r (int_range 1 3)
  in
  let rt =
    oneof
      [ map3 (fun size bsize dest -> Insn.Malloc { size; bsize; dest }) r r r;
        map2 (fun size dest -> Insn.Malloc_priv { size; dest }) r r;
        map (fun r -> Insn.Lock r) r; map (fun r -> Insn.Unlock r) r;
        pure Insn.Barrier; map (fun r -> Insn.Flag_set r) r;
        map (fun r -> Insn.Flag_wait r) r; map (fun r -> Insn.Print_int r) r;
        map (fun f -> Insn.Print_float f) r; map (fun r -> Insn.Rdcycle r) r;
        pure Insn.Exit_thread ]
  in
  oneof
    [ pure (Insn.Lab "l");
      map3 (fun d n b -> Insn.Lda (d, n, b)) r disp r;
      map3 (fun (op, d) a b -> Insn.Opi (op, d, a, b)) (pair iop r) operand r;
      map3 (fun (op, d) a b -> Insn.Opf (op, d, a, b)) (pair fop r) r r;
      map3 (fun d n b -> Insn.Ldl (d, n, b)) r disp r;
      map3 (fun d n b -> Insn.Ldq (d, n, b)) r disp r;
      map3 (fun d n b -> Insn.Ldq_u (d, n, b)) r disp r;
      map3 (fun d a b -> Insn.Extbl (d, a, b)) r r r;
      map3 (fun s n b -> Insn.Stl (s, n, b)) r disp r;
      map3 (fun s n b -> Insn.Stq (s, n, b)) r disp r;
      map3 (fun f n b -> Insn.Ldt (f, n, b)) r disp r;
      map3 (fun f n b -> Insn.Stt (f, n, b)) r disp r;
      map2 (fun a f -> Insn.Cvtqt (a, f)) r r;
      map2 (fun f a -> Insn.Cvttq (f, a)) r r;
      map2 (fun a b -> Insn.Fmov (a, b)) r r;
      pure (Insn.Br "l");
      map2 (fun c r -> Insn.Bc (c, r, "l"))
        (oneofl Insn.[ Eq; Ne; Lt; Le; Gt; Ge; Lbs; Lbc ]) r;
      map (fun f -> Insn.Fbeq (f, "l")) r;
      map (fun f -> Insn.Fbne (f, "l")) r;
      pure (Insn.Jsr "p"); pure Insn.Ret; pure Insn.Poll; pure Insn.Batch_end;
      map3
        (fun base disp refill -> Insn.Call_load_miss { base; disp; refill })
        r disp
        (oneof
           [ map2 (fun d s -> Insn.Rint (d, s)) r size;
             map (fun f -> Insn.Rflt f) r ]);
      map3
        (fun base disp (ssize, store_done) ->
          Insn.Call_store_miss { base; disp; ssize; store_done })
        r disp (pair size bool);
      map (fun ranges -> Insn.Call_batch_miss { ranges })
        (list_size (int_range 1 3) range);
      map (fun rt -> Insn.Rt_call rt) rt ]

let gen_branch : Pipeline.branch_info QCheck2.Gen.t =
  QCheck2.Gen.oneofl
    [ Pipeline.B_none; Pipeline.taken ~backward:true;
      Pipeline.taken ~backward:false; Pipeline.not_taken ~backward:true;
      Pipeline.not_taken ~backward:false ]

(* Fetch addresses: runs of fetches inside one 32-byte line, each then
   crossing to another line.  The lines are neighbours, lines 16 KB
   apart (same L1I set, so one evicts the other) and one 4 MB away (same
   L2 set), and runs come back to lines fetched before. *)
let gen_fetches =
  QCheck2.Gen.(
    map List.concat
      (list_size (int_range 1 24)
         (map2
            (fun line k -> List.init k (fun j -> (line * 32) + (4 * ((line + j) mod 8))))
            (oneofl [ 0; 1; 2; 3; 512; 513; 1024; 131072 ])
            (int_range 1 10))))

(* Each step: instruction, branch outcome, data address, fetch address.
   Data addresses cover a few 32-byte lines over a span larger than the
   L1, so both caches hit and miss. *)
let gen_steps =
  QCheck2.Gen.(
    map2
      (fun steps fetches ->
        let fetches = Array.of_list fetches in
        List.mapi
          (fun k (i, b, a) -> (i, b, a, fetches.(k mod Array.length fetches)))
          steps)
      (list_size (int_range 1 60)
         (triple gen_insn gen_branch (map (fun k -> k * 24) (int_bound 2000))))
      gen_fetches)

(* The decoded issue path against the reference, which probes the
   I-cache on every fetch: cycle after every step, and at the end
   every cache's miss count. *)
let prop_issue_matches_reference ~config steps =
  let caches = Cache.alpha_hierarchy () and ref_caches = Cache.alpha_hierarchy () in
  let p = Pipeline.create ~caches config in
  let r = Ref.create ~caches:ref_caches config in
  List.for_all
    (fun (i, branch, a, iaddr) ->
      Pipeline.issue p (Pipeline.decode config i) ~iaddr ~maddr:a ~branch;
      Ref.issue r i ~iaddr
        ~maddr:(if Insn.is_mem i then Some a else None)
        ~branch;
      Pipeline.cycle p = r.cycle)
    steps
  && List.for_all2
       (fun c c' -> Cache.misses c = Cache.misses c')
       [ caches.l1i; caches.l1d; caches.l2 ]
       [ ref_caches.l1i; ref_caches.l1d; ref_caches.l2 ]

let qtest name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:300
       ~print:(fun steps ->
         String.concat "; "
           (List.map
              (fun (i, _, a, iaddr) ->
                Printf.sprintf "%s@%d<-%d" (Asm.to_string i) a iaddr)
              steps))
       gen prop)

(* --- shape entries -------------------------------------------------------

   The entry [Pipeline.shape] picks for an instruction (the one the
   interpreter compiles it to call) leaves the pipeline exactly as
   [Pipeline.issue] does with the decoded word: cycle, issue slots,
   memory port, both scoreboards, I-line and every cache's miss count.
   The pre-state is a random prefix issued identically into both
   pipelines: none (cold caches, idle scoreboards) or up to 60 steps
   (warm caches, results in flight, a part-full group, a taken port,
   a remembered I-line); memory is sometimes ideal (no caches). *)

let branch_info (i : Insn.t) ~taken ~backward =
  if not (Insn.is_branch i) then Pipeline.B_none
  else if taken then Pipeline.taken ~backward
  else Pipeline.not_taken ~backward

let issue_by_shape p w (i : Insn.t) ~iaddr ~maddr ~taken ~backward =
  match Pipeline.shape i with
  | Alu -> Pipeline.alu p w ~iaddr
  | Fop -> Pipeline.fop p w ~iaddr
  | Load -> Pipeline.load p w ~iaddr ~maddr
  | Store -> Pipeline.store p w ~iaddr ~maddr
  | Branch -> Pipeline.branch p w ~iaddr ~taken ~backward
  | General ->
    Pipeline.issue p w ~iaddr ~maddr ~branch:(branch_info i ~taken ~backward)

type shape_case = {
  ideal : bool;
  prefix : (Insn.t * Pipeline.branch_info * int * int) list;
  insn : Insn.t;
  taken : bool;
  backward : bool;
  maddr : int;
  iaddr : int;
}

let gen_shape_case =
  QCheck2.Gen.(
    let* ideal = frequency [ (1, pure true); (4, pure false) ] in
    let* prefix = frequency [ (1, pure []); (4, gen_steps) ] in
    let* insn = gen_insn in
    let* taken = bool and* backward = bool in
    let* maddr = map (fun k -> k * 24) (int_bound 2000) in
    (* the lines of [gen_fetches], so the fetch often reuses the line of
       the prefix's last one *)
    let+ iaddr =
      map2
        (fun line j -> (line * 32) + (4 * j))
        (oneofl [ 0; 1; 2; 3; 512; 513; 1024; 131072 ])
        (int_bound 7)
    in
    { ideal; prefix; insn; taken; backward; maddr; iaddr })

let prop_shape_entry ~config c =
  let make () =
    let caches = if c.ideal then None else Some (Cache.alpha_hierarchy ()) in
    let p = Pipeline.create ?caches config in
    List.iter
      (fun (i, branch, maddr, iaddr) ->
        Pipeline.issue p (Pipeline.decode config i) ~iaddr ~maddr ~branch)
      c.prefix;
    (p, caches)
  in
  let p, caches = make () and q, qcaches = make () in
  let w = Pipeline.decode config c.insn in
  issue_by_shape p w c.insn ~iaddr:c.iaddr ~maddr:c.maddr ~taken:c.taken
    ~backward:c.backward;
  Pipeline.issue q w ~iaddr:c.iaddr ~maddr:c.maddr
    ~branch:(branch_info c.insn ~taken:c.taken ~backward:c.backward);
  let misses = function
    | None -> []
    | Some (h : Cache.hierarchy) -> List.map Cache.misses [ h.l1i; h.l1d; h.l2 ]
  in
  Pipeline.snapshot p = Pipeline.snapshot q && misses caches = misses qcaches

let shape_test name config =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:1000
       ~print:(fun c ->
         Printf.sprintf "%s taken=%b backward=%b maddr=%d iaddr=%d ideal=%b after %d steps"
           (Asm.to_string c.insn) c.taken c.backward c.maddr c.iaddr c.ideal
           (List.length c.prefix))
       gen_shape_case (prop_shape_entry ~config))

(* [reset] forgets the remembered I-cache line: after it, a fetch from
   the line fetched before the reset probes the cache again.  (Dropping
   the line from L1I by hand stands for a cache the pipeline no longer
   knows the contents of.) *)
let t_reset_forgets_line () =
  let caches = Cache.alpha_hierarchy () in
  let p = Pipeline.create ~caches Pipeline.alpha_21064a in
  let nop = dec (add 1 2 3) in
  Pipeline.issue p nop ~iaddr:0 ~maddr:0 ~branch:Pipeline.B_none;
  Pipeline.issue p nop ~iaddr:4 ~maddr:0 ~branch:Pipeline.B_none;
  Alcotest.(check int) "one cold miss for the line" 1 (Cache.misses caches.l1i);
  Cache.invalidate_range caches.l1i ~addr:0 ~len:32;
  Pipeline.reset p;
  Pipeline.issue p nop ~iaddr:8 ~maddr:0 ~branch:Pipeline.B_none;
  Alcotest.(check int) "the fetch after reset probes and misses" 2
    (Cache.misses caches.l1i)

let () =
  Alcotest.run "pipeline"
    [ ( "reference",
        [ qtest "21064A issue matches the list-based reference" gen_steps
            (prop_issue_matches_reference ~config:Pipeline.alpha_21064a);
          qtest "21164 issue matches the list-based reference" gen_steps
            (prop_issue_matches_reference ~config:Pipeline.alpha_21164) ] );
      ( "shapes",
        [ shape_test "21064A shape entries match issue" Pipeline.alpha_21064a;
          shape_test "21164 shape entries match issue" Pipeline.alpha_21164 ] );
      ( "issue",
        [ Alcotest.test_case "dual issue" `Quick t_dual_issue;
          Alcotest.test_case "dependences" `Quick t_dependent_serializes;
          Alcotest.test_case "shift-use delay" `Quick t_shift_use_delay;
          Alcotest.test_case "load-use delay" `Quick t_load_use_delay;
          Alcotest.test_case "memory port" `Quick t_single_memory_port;
          Alcotest.test_case "branch prediction" `Quick t_branch_prediction;
          Alcotest.test_case "fp latency" `Quick t_fp_latency;
          Alcotest.test_case "cache misses" `Quick t_caches_charge_misses;
          Alcotest.test_case "stalls" `Quick t_stall_resets_group;
          Alcotest.test_case "reset forgets the I-line" `Quick
            t_reset_forgets_line ] )
    ]
