(* Static in-order issue timing model.

   Models the features of the Alpha 21064A and 21164 the paper's
   overhead analysis depends on (Sections 3.1, 5.1): multiple issue with
   a single memory port, the one-cycle shift-use delay on the 21064A
   (why Figure 4 beats Figure 2), load-use delay (why the flag compare
   is sunk below the load), long FP compare/branch latency (why FP loads
   are checked through an extra integer load), and static branch
   prediction (backward taken / forward not-taken).  A register
   scoreboard tracks result availability; issue is in order. *)

open Shasta_isa

type config = {
  cpu_name : string;
  issue_width : int;
  load_latency : int;
  shift_latency : int;
  int_latency : int;
  mul_latency : int;
  div_latency : int;
  fp_latency : int;
  fp_div_latency : int;
  fp_branch_cost : int; (* extra cycles to resolve an FP branch *)
  mispredict_cycles : int;
  call_cycles : int; (* jsr/ret overhead beyond issue *)
}

(* 275 MHz 21064A: dual issue, 3-cycle loads, shift results delayed one
   cycle (Section 3.1). *)
let alpha_21064a =
  { cpu_name = "21064A"; issue_width = 2; load_latency = 3;
    shift_latency = 2; int_latency = 1; mul_latency = 12; div_latency = 40;
    fp_latency = 6; fp_div_latency = 34; fp_branch_cost = 4;
    mispredict_cycles = 4; call_cycles = 2 }

(* 21164: quad issue, 2-cycle loads, single-cycle shifts — "fewer
   pipeline stalls and dual-issue of some of the checking code". *)
let alpha_21164 =
  { cpu_name = "21164"; issue_width = 4; load_latency = 2;
    shift_latency = 1; int_latency = 1; mul_latency = 8; div_latency = 30;
    fp_latency = 4; fp_div_latency = 22; fp_branch_cost = 3;
    mispredict_cycles = 5; call_cycles = 2 }

type branch_info =
  | B_none
  | B_taken of { backward : bool }
  | B_not_taken of { backward : bool }

(* The four outcomes with a direction, preallocated so the interpreter's
   branch path allocates nothing. *)
let taken ~backward =
  if backward then B_taken { backward = true } else B_taken { backward = false }

let not_taken ~backward =
  if backward then B_not_taken { backward = true }
  else B_not_taken { backward = false }

type t = {
  config : config;
  caches : Cache.hierarchy option; (* None = ideal memory, used by Table 1 *)
  ireg_ready : int array;
  freg_ready : int array;
  mutable cycle : int;
  mutable slots_used : int;
  mutable mem_used : bool;
  mutable insns : int;
}

let create ?caches config =
  { config; caches;
    ireg_ready = Array.make 32 0;
    freg_ready = Array.make 32 0;
    cycle = 0; slots_used = 0; mem_used = false; insns = 0 }

let cycle t = t.cycle
let insns t = t.insns

let reset t =
  Array.fill t.ireg_ready 0 32 0;
  Array.fill t.freg_ready 0 32 0;
  t.cycle <- 0;
  t.slots_used <- 0;
  t.mem_used <- false;
  t.insns <- 0

(* Advance time by [n] stall cycles (handler entry, polling, ...). *)
let stall t n =
  if n > 0 then begin
    t.cycle <- t.cycle + n;
    t.slots_used <- 0;
    t.mem_used <- false
  end

let advance_to t when_ =
  if when_ > t.cycle then begin
    t.cycle <- when_;
    t.slots_used <- 0;
    t.mem_used <- false
  end

let result_latency config (i : Insn.t) =
  match i with
  | Ldl _ | Ldq _ | Ldq_u _ | Ldt _ -> config.load_latency
  | Opi ((Sll | Srl | Sra), _, _, _) -> config.shift_latency
  | Opi (Mulq, _, _, _) | Opi (Mull, _, _, _) -> config.mul_latency
  | Opi ((Divq | Remq), _, _, _) -> config.div_latency
  | Opf ((Divt | Sqrtt), _, _, _) -> config.fp_div_latency
  | Opf _ | Cvtqt _ | Cvttq _ | Fmov _ -> config.fp_latency
  | _ -> config.int_latency

(* Static prediction: backward branches predicted taken, forward
   branches predicted not-taken. *)
let mispredicted info =
  match info with
  | B_none -> false
  | B_taken { backward } -> not backward
  | B_not_taken { backward } -> backward

(* Operand readiness and result recording match the instruction
   directly: the same registers as [Insn.uses]/[fuses] and
   [Insn.def]/[fdef], without building lists or options on the
   per-instruction path.  Register 31 (integer and FP) reads as zero
   and never waits. *)
let iready t r acc =
  if r < 31 && t.ireg_ready.(r) > acc then t.ireg_ready.(r) else acc

let fready t f acc =
  if f < 31 && t.freg_ready.(f) > acc then t.freg_ready.(f) else acc

let rec ranges_ready t acc = function
  | [] -> acc
  | (r : Insn.range) :: rest -> ranges_ready t (iready t r.rbase acc) rest

(* Cycle at which every source operand of [i] is available. *)
let operands_ready t (i : Insn.t) =
  let now = t.cycle in
  match i with
  | Lab _ | Br _ | Ret | Poll | Batch_end -> now
  | Opf (_, _, fa, fb) -> fready t fa (fready t fb now)
  | Cvttq (f, _) | Fmov (_, f) | Fbeq (f, _) | Fbne (f, _) -> fready t f now
  | Lda (_, _, b) | Ldl (_, _, b) | Ldq (_, _, b) | Ldq_u (_, _, b)
  | Ldt (_, _, b) | Cvtqt (b, _) | Bc (_, b, _)
  | Call_load_miss { base = b; _ } | Call_store_miss { base = b; _ } ->
    iready t b now
  | Opi (_, _, Reg ra, rb) | Extbl (_, ra, rb) | Stl (ra, _, rb)
  | Stq (ra, _, rb) ->
    iready t ra (iready t rb now)
  | Opi (_, _, Imm _, rb) -> iready t rb now
  | Stt (f, _, b) -> fready t f (iready t b now)
  | Jsr _ ->
    (* conservatively: the argument registers *)
    iready t 16 (iready t 17 (iready t 18 (iready t 19 (iready t 20
      (iready t 21 now)))))
  | Call_batch_miss { ranges } -> ranges_ready t now ranges
  | Rt_call rt ->
    (match rt with
     | Malloc { size; bsize; _ } -> iready t size (iready t bsize now)
     | Malloc_priv { size; _ } -> iready t size now
     | Lock r | Unlock r | Flag_set r | Flag_wait r | Print_int r ->
       iready t r now
     | Print_float f -> fready t f now
     | Barrier | Rdcycle _ | Exit_thread -> now)

(* Record when the register [i] writes becomes available. *)
let set_result_ready t (i : Insn.t) at =
  match i with
  | Lda (d, _, _) | Opi (_, d, _, _) | Ldl (d, _, _) | Ldq (d, _, _)
  | Ldq_u (d, _, _) | Extbl (d, _, _) | Cvttq (_, d)
  | Call_load_miss { refill = Rint (d, _); _ }
  | Rt_call (Malloc { dest = d; _ } | Malloc_priv { dest = d; _ } | Rdcycle d)
    ->
    if d < 31 then t.ireg_ready.(d) <- at
  | Jsr _ -> t.ireg_ready.(Reg.rv) <- at
  | Opf (_, d, _, _) | Ldt (d, _, _) | Cvtqt (_, d) | Fmov (d, _)
  | Call_load_miss { refill = Rflt d; _ } ->
    if d < 31 then t.freg_ready.(d) <- at
  | _ -> ()

(* Issue one instruction.  [iaddr] is its text address (for the I-cache),
   [maddr] the data address of a memory access (for the D-cache; ignored
   for every other instruction). *)
let issue t (i : Insn.t) ~iaddr ~maddr ~branch =
  let c = t.config in
  t.insns <- t.insns + 1;
  (* instruction fetch *)
  (match t.caches with
   | Some h ->
     let extra = Cache.iaccess h iaddr in
     if extra > 0 then stall t extra
   | None -> ());
  (* wait for source operands *)
  advance_to t (operands_ready t i);
  (* structural constraints: issue width, single memory port *)
  if t.slots_used >= c.issue_width then begin
    t.cycle <- t.cycle + 1;
    t.slots_used <- 0;
    t.mem_used <- false
  end;
  let mem = Insn.is_mem i in
  if mem && t.mem_used then begin
    t.cycle <- t.cycle + 1;
    t.slots_used <- 0;
    t.mem_used <- false
  end;
  t.slots_used <- t.slots_used + 1;
  if mem then t.mem_used <- true;
  (* data cache *)
  let dextra =
    match t.caches with
    | Some h when mem -> Cache.daccess h maddr
    | _ -> 0
  in
  (* record result availability *)
  set_result_ready t i (t.cycle + result_latency c i + dextra);
  (* stores that miss stall the single memory port *)
  if Insn.is_store i && dextra > 0 then stall t dextra;
  (* control flow *)
  (match i with
   | Fbeq _ | Fbne _ -> stall t c.fp_branch_cost
   | Jsr _ | Ret -> stall t c.call_cycles
   | _ -> ());
  if mispredicted branch then stall t c.mispredict_cycles
  else
    match branch with
    | B_taken _ ->
      (* a taken branch ends the issue group *)
      t.cycle <- t.cycle + 1;
      t.slots_used <- 0;
      t.mem_used <- false
    | _ -> ()
