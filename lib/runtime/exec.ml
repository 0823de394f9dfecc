(* Instruction interpreter with cycle accounting.

   Executes the (instrumented) executable: real instructions go through
   the pipeline/cache timing model and ordinary memory semantics — the
   inline checks are just code — while the pseudo-instructions enter the
   Shasta runtime (Engine).  The interpreter yields control back to the
   scheduler whenever the node interacts with the outside world, blocks,
   finishes, or exhausts its fuel, keeping cross-node timing causal. *)

open Shasta_isa
open Shasta_machine

exception Sim_error of string

type yield = Y_running | Y_blocked | Y_done

let sext32 v = if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let eval_iop (op : Insn.iop) src1 src2 =
  match op with
  | Addq -> src1 + src2
  | Subq -> src1 - src2
  | Mulq -> src1 * src2
  | Divq ->
    if src2 = 0 then raise (Sim_error "integer division by zero");
    (* truncating division, as on hardware *)
    let q = abs src1 / abs src2 in
    if src1 >= 0 = (src2 >= 0) then q else -q
  | Remq ->
    if src2 = 0 then raise (Sim_error "integer remainder by zero");
    src1 - (src2 * (let q = abs src1 / abs src2 in
                    if src1 >= 0 = (src2 >= 0) then q else -q))
  | Addl -> sext32 ((src1 + src2) land 0xFFFFFFFF)
  | Subl -> sext32 ((src1 - src2) land 0xFFFFFFFF)
  | Mull -> sext32 (src1 * src2 land 0xFFFFFFFF)
  | And_ -> src1 land src2
  | Or_ -> src1 lor src2
  | Xor_ -> src1 lxor src2
  | Sll -> src1 lsl (src2 land 63)
  | Srl -> src1 lsr (src2 land 63)
  | Sra -> src1 asr (src2 land 63)
  | Cmpeq -> if src1 = src2 then 1 else 0
  | Cmplt -> if src1 < src2 then 1 else 0
  | Cmple -> if src1 <= src2 then 1 else 0
  | Cmpult ->
    if Int64.unsigned_compare (Int64.of_int src1) (Int64.of_int src2) < 0
    then 1 else 0
  | Cmpule ->
    if Int64.unsigned_compare (Int64.of_int src1) (Int64.of_int src2) <= 0
    then 1 else 0

let eval_fop (op : Insn.fop) a b =
  match op with
  | Addt -> a +. b
  | Subt -> a -. b
  | Mult -> a *. b
  | Divt -> a /. b
  | Sqrtt -> sqrt a
  | Cmpteq -> if a = b then 1.0 else 0.0
  | Cmptlt -> if a < b then 1.0 else 0.0
  | Cmptle -> if a <= b then 1.0 else 0.0

let eval_cond (c : Insn.cond) v =
  match c with
  | Eq -> v = 0
  | Ne -> v <> 0
  | Lt -> v < 0
  | Le -> v <= 0
  | Gt -> v > 0
  | Ge -> v >= 0
  | Lbs -> v land 1 = 1
  | Lbc -> v land 1 = 0

(* Values for the paper's longword/quadword flag comparison. *)
let operand_value (node : Node.t) = function
  | Insn.Reg r -> node.regs.(r)
  | Insn.Imm i -> i

(* The work procedure returned or called exit: mark the thread done and
   report it, giving traces an end-of-track marker per node. *)
let finish state (node : Node.t) =
  node.status <- Finished;
  Engine.emit_at state.State.config.obs node ~time:(Node.time node)
    Shasta_obs.Event.Node_finished

let set_ireg (node : Node.t) r v = if r <> Reg.zero then node.regs.(r) <- v
let set_freg (node : Node.t) f v = if f <> Reg.fzero then node.fregs.(f) <- v

let refill_of state (node : Node.t) ~addr (r : Insn.refill) =
  ignore state;
  match r with
  | Insn.Rint (d, Insn.Long) ->
    fun () -> set_ireg node d (Memory.read_long node.mem addr)
  | Insn.Rint (d, Insn.Quad) ->
    fun () -> set_ireg node d (Memory.read_quad node.mem addr)
  | Insn.Rflt f -> fun () -> set_freg node f (Memory.read_float node.mem addr)

(* Return to the caller of the current procedure, or finish the thread
   when the call stack is empty. *)
let return state (node : Node.t) =
  match node.call_stack with
  | [] -> finish state node
  | (p, i) :: rest ->
    node.call_stack <- rest;
    node.pc_proc <- p;
    node.pc_idx <- i

(* The per-instruction helpers below are top-level functions, not
   closures built per instruction: an ordinary instruction allocates
   nothing.  [w] is the instruction's decoded timing word. *)
let issue (node : Node.t) w ~iaddr =
  Pipeline.issue node.pipe w ~iaddr ~maddr:0 ~branch:Pipeline.B_none

let issue_mem (node : Node.t) w ~iaddr addr =
  Pipeline.issue node.pipe w ~iaddr ~maddr:addr ~branch:Pipeline.B_none

let branch (node : Node.t) w ~iaddr ~idx ~taken tgt =
  let backward = tgt <= idx in
  Pipeline.issue node.pipe w ~iaddr ~maddr:0
    ~branch:
      (if taken then Pipeline.taken ~backward
       else Pipeline.not_taken ~backward);
  if taken then node.pc_idx <- tgt

let count_load (node : Node.t) addr =
  let c = node.counters in
  c.dyn_loads <- c.dyn_loads + 1;
  if addr >= Shasta.Layout.shared_base then
    c.dyn_loads_shared <- c.dyn_loads_shared + 1

let count_store (node : Node.t) addr =
  let c = node.counters in
  c.dyn_stores <- c.dyn_stores + 1;
  if addr >= Shasta.Layout.shared_base then
    c.dyn_stores_shared <- c.dyn_stores_shared + 1

(* Execute one genuine instruction (not a runtime pseudo-instruction)
   at index [idx] of [fp]; [pc_idx] already points past it. *)
let exec_insn state (node : Node.t) (fp : Image.fproc) idx (ins : Insn.t)
    ~iaddr =
  let w = fp.timing.(idx) in
  match ins with
  | Lda (d, disp, b) ->
    issue node w ~iaddr;
    set_ireg node d (node.regs.(b) + disp)
  | Opi (op, d, operand, rb) ->
    issue node w ~iaddr;
    set_ireg node d (eval_iop op node.regs.(rb) (operand_value node operand))
  | Opf (op, fd, fa, fb) ->
    issue node w ~iaddr;
    set_freg node fd (eval_fop op node.fregs.(fa) node.fregs.(fb))
  | Ldl (d, disp, b) ->
    let addr = node.regs.(b) + disp in
    issue_mem node w ~iaddr addr;
    set_ireg node d (Memory.read_long node.mem addr)
  | Ldq (d, disp, b) ->
    let addr = node.regs.(b) + disp in
    issue_mem node w ~iaddr addr;
    count_load node addr;
    set_ireg node d (Memory.read_quad node.mem addr)
  | Ldq_u (d, disp, b) ->
    let addr = (node.regs.(b) + disp) land lnot 7 in
    issue_mem node w ~iaddr addr;
    set_ireg node d (Memory.read_quad node.mem addr)
  | Extbl (d, ra, rb) ->
    issue node w ~iaddr;
    set_ireg node d
      ((node.regs.(ra) asr (8 * (node.regs.(rb) land 7))) land 0xFF)
  | Stl (r, disp, b) ->
    let addr = node.regs.(b) + disp in
    issue_mem node w ~iaddr addr;
    Memory.write_long_u node.mem addr (node.regs.(r) land 0xFFFFFFFF)
  | Stq (r, disp, b) ->
    let addr = node.regs.(b) + disp in
    issue_mem node w ~iaddr addr;
    count_store node addr;
    Memory.write_quad node.mem addr node.regs.(r)
  | Ldt (f, disp, b) ->
    let addr = node.regs.(b) + disp in
    issue_mem node w ~iaddr addr;
    count_load node addr;
    set_freg node f (Memory.read_float node.mem addr)
  | Stt (f, disp, b) ->
    let addr = node.regs.(b) + disp in
    issue_mem node w ~iaddr addr;
    count_store node addr;
    Memory.write_float node.mem addr node.fregs.(f)
  | Cvtqt (r, fd) ->
    issue node w ~iaddr;
    set_freg node fd (float_of_int node.regs.(r))
  | Cvttq (f, rd) ->
    issue node w ~iaddr;
    set_ireg node rd (int_of_float node.fregs.(f))
  | Fmov (fd, fs) ->
    issue node w ~iaddr;
    set_freg node fd node.fregs.(fs)
  | Br _ -> branch node w ~iaddr ~idx ~taken:true fp.target.(idx)
  | Bc (c, r, _) ->
    branch node w ~iaddr ~idx ~taken:(eval_cond c node.regs.(r))
      fp.target.(idx)
  | Fbeq (f, _) ->
    branch node w ~iaddr ~idx ~taken:(node.fregs.(f) = 0.0) fp.target.(idx)
  | Fbne (f, _) ->
    branch node w ~iaddr ~idx ~taken:(node.fregs.(f) <> 0.0)
      fp.target.(idx)
  | Jsr _ ->
    issue node w ~iaddr;
    node.call_stack <- (node.pc_proc, idx + 1) :: node.call_stack;
    node.pc_proc <- fp.callee.(idx);
    node.pc_idx <- 0
  | Ret ->
    issue node w ~iaddr;
    return state node
  | Lab _ | Poll | Call_load_miss _ | Call_store_miss _ | Call_batch_miss _
  | Batch_end | Rt_call _ ->
    assert false

(* Execute a runtime pseudo-instruction.  Returns [true] when the node
   entered the runtime and must yield to the scheduler. *)
let enter_runtime state (node : Node.t) (fp : Image.fproc) (ins : Insn.t) =
  match ins with
  | Poll ->
    Engine.poll state node;
    true
  | Call_load_miss { base; disp; refill } ->
    let addr = node.regs.(base) + disp in
    Engine.load_miss state node ~addr ~refill:(refill_of state node ~addr refill);
    true
  | Call_store_miss { base; disp; ssize; store_done } ->
    let addr = node.regs.(base) + disp in
    let bytes = match ssize with Insn.Long -> 4 | Insn.Quad -> 8 in
    (* A non-scheduled store executes only after the handler
       returns; capture its effect so the engine can make it
       visible at wake time, before serving queued requests (on
       a real processor the handler's return and the store are
       back-to-back instructions nothing can interleave). *)
    (if not store_done then
       let k = fp.target.(node.pc_idx - 1) in
       node.commit_store <-
         (if k < 0 then fun () -> ()
          else
            match fp.code.(k) with
            | Stl (r, d, b) ->
              fun () ->
                Memory.write_long_u node.mem
                  (node.regs.(b) + d)
                  (node.regs.(r) land 0xFFFFFFFF)
            | Stq (r, d, b) ->
              fun () ->
                Memory.write_quad node.mem (node.regs.(b) + d) node.regs.(r)
            | Stt (f, d, b) ->
              fun () ->
                Memory.write_float node.mem (node.regs.(b) + d) node.fregs.(f)
            | _ -> fun () -> ()));
    Engine.store_miss state node ~addr ~bytes ~store_done;
    true
  | Call_batch_miss { ranges } ->
    let accesses =
      List.concat_map
        (fun (r : Insn.range) ->
          let base_val = node.regs.(r.rbase) in
          List.map
            (fun (a : Insn.access) ->
              ( base_val + a.disp,
                (match a.asize with Insn.Long -> 4 | Insn.Quad -> 8),
                a.is_store ))
            r.accesses)
        ranges
    in
    Engine.batch_miss state node ~nranges:(List.length ranges) ~accesses;
    true
  | Batch_end ->
    if node.in_batch then begin
      Engine.batch_end state node;
      true
    end
    else false
  | Rt_call rt ->
    (match rt with
     | Malloc { size; bsize; dest } ->
       let ptr =
         Alloc.g_malloc state node ~size:node.regs.(size)
           ~bsize_req:node.regs.(bsize)
       in
       set_ireg node dest ptr
     | Malloc_priv { size; dest } ->
       let ptr = Alloc.p_malloc state node ~size:node.regs.(size) in
       set_ireg node dest ptr
     | Lock r -> Engine.rt_lock state node node.regs.(r)
     | Unlock r -> Engine.rt_unlock state node node.regs.(r)
     | Barrier -> Engine.rt_barrier state node
     | Flag_set r -> Engine.rt_flag_set state node node.regs.(r)
     | Flag_wait r -> Engine.rt_flag_wait state node node.regs.(r)
     | Print_int r ->
       Buffer.add_string state.State.output
         (string_of_int node.regs.(r) ^ "\n")
     | Print_float f ->
       Buffer.add_string state.State.output
         (Printf.sprintf "%.6g\n" node.fregs.(f))
     | Rdcycle d -> set_ireg node d (Node.time node)
     | Exit_thread -> finish state node);
    true
  | _ -> assert false

(* Advance a running node by one instruction.  Returns [true] when it
   must yield to the scheduler. *)
let step state (node : Node.t) =
  let fp = state.State.image.Image.fprocs.(node.pc_proc) in
  let idx = node.pc_idx in
  if idx >= Array.length fp.code then begin
    (* fell off the end of a procedure: implicit return *)
    return state node;
    false
  end
  else begin
    let ins = fp.code.(idx) in
    node.pc_idx <- idx + 1;
    (* labels and batch ends occupy no text and are not counted *)
    match ins with
    | Lab _ -> false
    | Batch_end -> enter_runtime state node fp ins
    | Poll | Call_load_miss _ | Call_store_miss _ | Call_batch_miss _
    | Rt_call _ ->
      node.counters.insns <- node.counters.insns + 1;
      enter_runtime state node fp ins
    | _ ->
      node.counters.insns <- node.counters.insns + 1;
      exec_insn state node fp idx ins ~iaddr:(fp.base + fp.offset.(idx));
      false
  end

(* Execute [node] until it yields.  [fuel] bounds the instructions run
   before control returns to the scheduler even without interaction. *)
let run state (node : Node.t) ~fuel =
  let fuel = ref fuel and yielded = ref false in
  (try
     while not !yielded do
       match node.status with
       | Node.Finished | Node.Crashed | Node.Waiting _ -> yielded := true
       | Node.Running ->
         yielded := step state node;
         decr fuel;
         if !fuel <= 0 then yielded := true
     done
   with
   | Invalid_argument m | Failure m ->
     raise
       (Sim_error
          (Printf.sprintf "node %d at %s+%d: %s" node.id
             state.State.image.Image.fprocs.(node.pc_proc).fname node.pc_idx
             m)));
  match node.status with
  | Node.Finished | Node.Crashed -> Y_done
  | Node.Waiting _ -> Y_blocked
  | Node.Running -> Y_running
