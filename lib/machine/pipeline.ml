(* Static in-order issue timing model.

   Models the features of the Alpha 21064A and 21164 the paper's
   overhead analysis depends on (Sections 3.1, 5.1): multiple issue with
   a single memory port, the one-cycle shift-use delay on the 21064A
   (why Figure 4 beats Figure 2), load-use delay (why the flag compare
   is sunk below the load), long FP compare/branch latency (why FP loads
   are checked through an extra integer load), and static branch
   prediction (backward taken / forward not-taken).  A register
   scoreboard tracks result availability; issue is in order.

   [decode] packs everything the model needs to know about an
   instruction into one int, once, when an executable is loaded; it is
   the one source of latencies and registers.  The interpreter compiles
   each instruction into a closure that calls the entry for the
   instruction's [shape]: integer op, FP op, load, store or branch.
   Each entry skips the steps its shape cannot need (the FP sources of
   an integer op, the memory port and D-cache of a non-memory op,
   branch prediction of a non-branch).  [issue] is the general entry,
   for calls, returns, FP branches and conversions.  All of them are
   built from the same inline steps (fetch, operand wait, issue group,
   D-cache, retire, branch resolution), so each timing rule is written
   once. *)

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

(* The four outcomes with a direction, preallocated so an FP branch
   allocates nothing. *)
let taken ~backward =
  if backward then B_taken { backward = true } else B_taken { backward = false }

let not_taken ~backward =
  if backward then B_not_taken { backward = true }
  else B_not_taken { backward = false }

(* --- decoded timing ----------------------------------------------------

   Everything the issue entries need to know about an instruction under
   one config is packed into one immediate int, computed once per
   instruction when an executable is loaded:

     bits  0-7   result latency (cycles)
     bit   8     memory access (uses the single memory port)
     bit   9     store (a D-cache miss stalls the port)
     bits 10-17  control stall: FP-branch resolution or call overhead
     bits 18-22  integer destination (31 = none)
     bits 23-27  FP destination (31 = none)
     bit  28     wide: the integer sources are a register mask
     bits 29-33  integer source 1 (31 = none)   \
     bits 34-38  integer source 2 (31 = none)    | narrow form
     bits 39-43  FP source 1 (31 = none)         |
     bits 44-48  FP source 2 (31 = none)        /
     bits 29-59  integer source mask, bit r = register r (wide form)

   Register 31 (integer and FP) reads as zero and is never written, so
   it never waits and records nothing: it doubles as "none".  The wide
   form carries any number of integer sources and no FP source; [jsr]'s
   argument registers and a batch call's base registers take it. *)

let lat_bits = 0xFF
let mem_bit = 1 lsl 8
let store_bit = 1 lsl 9
let ctrl_shift = 10
let idst_shift = 18
let fdst_shift = 23
let wide_bit = 1 lsl 28
let isrc1_shift = 29
let isrc2_shift = 34
let fsrc1_shift = 39
let fsrc2_shift = 44
let imask_shift = 29
let none = 31

let result_latency config (i : Insn.t) =
  match i with
  | Ldl _ | Ldq _ | Ldq_u _ | Ldt _ -> config.load_latency
  | Opi ((Sll | Srl | Sra), _, _, _) -> config.shift_latency
  | Opi (Mulq, _, _, _) | Opi (Mull, _, _, _) -> config.mul_latency
  | Opi ((Divq | Remq), _, _, _) -> config.div_latency
  | Opf ((Divt | Sqrtt), _, _, _) -> config.fp_div_latency
  | Opf _ | Cvtqt _ | Cvttq _ | Fmov _ -> config.fp_latency
  | _ -> config.int_latency

let byte_field what v =
  if v < 0 || v > 0xFF then
    invalid_arg (Printf.sprintf "Pipeline.decode: %s %d outside [0, 255]" what v);
  v

(* Source and destination registers come from [Insn.uses]/[fuses] and
   [Insn.def]/[fdef], the lists the instrumenter and dataflow read. *)
let decode config (i : Insn.t) =
  let ctrl =
    match i with
    | Fbeq _ | Fbne _ -> config.fp_branch_cost
    | Jsr _ | Ret -> config.call_cycles
    | _ -> 0
  in
  let reg = function Some r -> r | None -> none in
  (* register 31 in a narrow field already means "none" *)
  let pair shift1 shift2 = function
    | [] -> Some ((none lsl shift1) lor (none lsl shift2))
    | [ a ] -> Some ((a lsl shift1) lor (none lsl shift2))
    | [ a; b ] -> Some ((a lsl shift1) lor (b lsl shift2))
    | _ -> None
  in
  let is = Insn.uses i and fs = Insn.fuses i in
  let srcs =
    match (pair isrc1_shift isrc2_shift is, pair fsrc1_shift fsrc2_shift fs) with
    | Some a, Some b -> a lor b
    | None, _ when fs = [] ->
      List.fold_left
        (fun m r -> if r < none then m lor (1 lsl (imask_shift + r)) else m)
        wide_bit is
    | _ ->
      invalid_arg
        "Pipeline.decode: more than two integer sources beside an FP source"
  in
  byte_field "latency" (result_latency config i)
  lor (if Insn.is_mem i then mem_bit else 0)
  lor (if Insn.is_store i then store_bit else 0)
  lor (byte_field "control stall" ctrl lsl ctrl_shift)
  lor (reg (Insn.def i) lsl idst_shift)
  lor (reg (Insn.fdef i) lsl fdst_shift)
  lor srcs

type t = {
  config : config;
  caches : Cache.hierarchy option; (* None = ideal memory, used by Table 1 *)
  iline_shift : int; (* log2 of the L1I line size *)
  ireg_ready : int array;
  freg_ready : int array;
  mutable cycle : int;
  mutable slots_used : int;
  mutable mem_used : bool;
  mutable iline : int; (* L1I line of the last fetch, -1 = none *)
}

let create ?caches config =
  { config; caches;
    iline_shift =
      (match caches with
       | Some (h : Cache.hierarchy) -> Cache.line_shift h.l1i
       | None -> 0);
    ireg_ready = Array.make 32 0;
    freg_ready = Array.make 32 0;
    cycle = 0; slots_used = 0; mem_used = false; iline = -1 }

let cycle t = t.cycle

type snapshot = {
  s_cycle : int;
  s_slots_used : int;
  s_mem_used : bool;
  s_iline : int;
  s_ireg_ready : int array;
  s_freg_ready : int array;
}

let snapshot t =
  { s_cycle = t.cycle; s_slots_used = t.slots_used; s_mem_used = t.mem_used;
    s_iline = t.iline;
    s_ireg_ready = Array.copy t.ireg_ready;
    s_freg_ready = Array.copy t.freg_ready }

let reset t =
  Array.fill t.ireg_ready 0 32 0;
  Array.fill t.freg_ready 0 32 0;
  t.cycle <- 0;
  t.slots_used <- 0;
  t.mem_used <- false;
  t.iline <- -1

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

(* The later of [acc] and the ready cycle of register [r] (a 5-bit
   field, so in bounds of the 32-entry scoreboards); 31 never waits. *)
let[@inline] iready t r acc =
  if r < none && Array.unsafe_get t.ireg_ready r > acc then
    Array.unsafe_get t.ireg_ready r
  else acc

let[@inline] fready t f acc =
  if f < none && Array.unsafe_get t.freg_ready f > acc then
    Array.unsafe_get t.freg_ready f
  else acc

let rec mask_ready t m r acc =
  if m = 0 then acc
  else
    mask_ready t (m lsr 1) (r + 1)
      (if m land 1 <> 0 then iready t r acc else acc)

(* --- the issue steps ----------------------------------------------------

   Every entry below is these steps in this order, each one skipped
   where the instruction's shape makes it a no-op, so no timing rule is
   written twice.

   Fetch.  A fetch from the L1I line of the previous fetch skips the
   cache: that fetch left the line in L1I, only fetches write L1I
   (data-side invalidations never touch it) and a hit changes no cache
   state, so the skipped probe would have been a hit costing nothing. *)
let[@inline] fetch t iaddr =
  match t.caches with
  | Some h ->
    let line = iaddr asr t.iline_shift in
    if line <> t.iline then begin
      t.iline <- line;
      stall t (Cache.iaccess h iaddr)
    end
  | None -> ()

(* Operand wait: issue no earlier than the narrow integer sources, then
   the FP sources, are ready.  Waiting for the two kinds one after the
   other lands where waiting for all four at once does. *)
let[@inline] wait_int t w =
  advance_to t
    (iready t ((w lsr isrc2_shift) land 31)
       (iready t ((w lsr isrc1_shift) land 31) t.cycle))

let[@inline] wait_fp t w =
  advance_to t
    (fready t ((w lsr fsrc2_shift) land 31)
       (fready t ((w lsr fsrc1_shift) land 31) t.cycle))

(* Issue group: a full group starts the next cycle; so does a memory
   access when the group's single memory port is taken. *)
let[@inline] next_cycle t =
  t.cycle <- t.cycle + 1;
  t.slots_used <- 0;
  t.mem_used <- false

let[@inline] group t =
  if t.slots_used >= t.config.issue_width then next_cycle t;
  t.slots_used <- t.slots_used + 1

let[@inline] group_mem t =
  if t.slots_used >= t.config.issue_width then next_cycle t;
  if t.mem_used then next_cycle t;
  t.slots_used <- t.slots_used + 1;
  t.mem_used <- true

(* D-cache: the extra cycles of a data access. *)
let[@inline] dcache t maddr =
  match t.caches with Some h -> Cache.daccess h maddr | None -> 0

(* Retire: record when the destinations are ready, [extra] cycles of
   D-cache miss past the result latency. *)
let[@inline] retire_int t w extra =
  let d = (w lsr idst_shift) land 31 in
  if d < none then t.ireg_ready.(d) <- t.cycle + (w land lat_bits) + extra

let[@inline] retire_fp t w extra =
  let d = (w lsr fdst_shift) land 31 in
  if d < none then t.freg_ready.(d) <- t.cycle + (w land lat_bits) + extra

(* Static prediction: backward branches predicted taken, forward
   branches predicted not-taken.  A taken branch that was predicted
   ends the issue group. *)
let[@inline] resolve t ~taken ~backward =
  if taken <> backward then stall t t.config.mispredict_cycles
  else if taken then next_cycle t

(* --- shape entries ------------------------------------------------------

   Each takes a word [decode] made of an instruction of its shape (see
   [shape]) and leaves the pipeline exactly as [issue] would. *)

let alu t w ~iaddr =
  fetch t iaddr;
  wait_int t w;
  group t;
  retire_int t w 0

let fop t w ~iaddr =
  fetch t iaddr;
  wait_fp t w;
  group t;
  retire_fp t w 0

let load t w ~iaddr ~maddr =
  fetch t iaddr;
  wait_int t w;
  group_mem t;
  let extra = dcache t maddr in
  retire_int t w extra;
  retire_fp t w extra

(* a store that misses stalls the single memory port *)
let store t w ~iaddr ~maddr =
  fetch t iaddr;
  wait_int t w;
  wait_fp t w;
  group_mem t;
  stall t (dcache t maddr)

let branch t w ~iaddr ~taken ~backward =
  fetch t iaddr;
  wait_int t w;
  group t;
  resolve t ~taken ~backward

(* The general entry: any decoded word.  [maddr] is the data address of
   a memory access (ignored for every other instruction). *)
let issue t w ~iaddr ~maddr ~branch =
  fetch t iaddr;
  if w land wide_bit = 0 then begin
    wait_int t w;
    wait_fp t w
  end
  else advance_to t (mask_ready t (w lsr imask_shift) 0 t.cycle);
  let mem = w land mem_bit <> 0 in
  if mem then group_mem t else group t;
  let extra = if mem then dcache t maddr else 0 in
  retire_int t w extra;
  retire_fp t w extra;
  if w land store_bit <> 0 then stall t extra;
  (* control flow: FP-branch resolution, call overhead *)
  stall t ((w lsr ctrl_shift) land 0xFF);
  match branch with
  | B_none -> ()
  | B_taken { backward } -> resolve t ~taken:true ~backward
  | B_not_taken { backward } -> resolve t ~taken:false ~backward

type shape = Alu | Fop | Load | Store | Branch | General

let shape (i : Insn.t) =
  match i with
  | Lda _ | Opi _ | Extbl _ -> Alu
  | Opf _ | Fmov _ -> Fop
  | Ldl _ | Ldq _ | Ldq_u _ | Ldt _ -> Load
  | Stl _ | Stq _ | Stt _ -> Store
  | Br _ | Bc _ -> Branch
  | _ -> General
