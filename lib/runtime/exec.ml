(* Instruction interpreter with cycle accounting.

   Executes the (instrumented) executable as threaded code.
   [Image.freeze] calls [compile] once per distinct instruction; the op
   it returns is a closure holding the instruction's decoded operands,
   branch target and [Pipeline.decode]d timing word.  A genuine
   instruction's op issues through the pipeline entry of its
   [Pipeline.shape] and then applies ordinary memory semantics (the
   inline checks are just code); a pseudo-instruction's op enters the
   Shasta runtime (Engine).  A step bumps the pc and calls the op at it.
   The interpreter yields control back to the scheduler whenever the
   node interacts with the outside world, blocks, finishes, or exhausts
   its fuel, keeping cross-node timing causal. *)

open Shasta_isa
open Shasta_machine

exception Sim_error of string

type yield = Y_running | Y_blocked | Y_done

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
  | Addl -> Memory.sext32 ((src1 + src2) land 0xFFFFFFFF)
  | Subl -> Memory.sext32 ((src1 - src2) land 0xFFFFFFFF)
  | Mull -> Memory.sext32 (src1 * src2 land 0xFFFFFFFF)
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

(* Inline, so a compiled FP op keeps its operands and result unboxed. *)
let[@inline] eval_fop (op : Insn.fop) a b =
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

(* The work procedure returned or called exit: mark the thread done and
   report it, giving traces an end-of-track marker per node. *)
let finish state (node : Node.t) =
  node.status <- Finished;
  Engine.emit_at state.State.config.obs node ~time:(Node.time node)
    Shasta_obs.Event.Node_finished

let[@inline] set_ireg (node : Node.t) r v =
  if r <> Reg.zero then node.regs.(r) <- v

let[@inline] set_freg (node : Node.t) f v =
  if f <> Reg.fzero then node.fregs.(f) <- v

(* FP register [f] <- the float at [addr]; register 31 discards it,
   after the access. *)
let load_freg (node : Node.t) f addr =
  if f <> Reg.fzero then Memory.read_float_into node.mem addr node.fregs f
  else ignore (Memory.read_quad_bits node.mem addr)

let refill_of (node : Node.t) ~addr (r : Insn.refill) =
  match r with
  | Insn.Rint (d, Insn.Long) ->
    fun () -> set_ireg node d (Memory.read_long node.mem addr)
  | Insn.Rint (d, Insn.Quad) ->
    fun () -> set_ireg node d (Memory.read_quad node.mem addr)
  | Insn.Rflt f -> fun () -> load_freg node f addr

(* The memory effect of the store a non-scheduled store check guards,
   as of when it runs. *)
let commit_of (link : Image.link) (node : Node.t) =
  match link with
  | Guards (Stl (r, d, b)) ->
    fun () ->
      Memory.write_long_u node.mem (node.regs.(b) + d)
        (node.regs.(r) land 0xFFFFFFFF)
  | Guards (Stq (r, d, b)) ->
    fun () -> Memory.write_quad node.mem (node.regs.(b) + d) node.regs.(r)
  | Guards (Stt (f, d, b)) ->
    fun () -> Memory.write_float_from node.mem (node.regs.(b) + d) node.fregs f
  | _ -> ignore

(* Return to the caller of the current procedure, or finish the thread
   when the call stack is empty. *)
let return state (node : Node.t) =
  match node.call_stack with
  | [] -> finish state node
  | (p, i) :: rest ->
    node.call_stack <- rest;
    node.pc_proc <- p;
    node.pc_idx <- i

let[@inline] count (node : Node.t) =
  node.counters.insns <- node.counters.insns + 1

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

(* --- the compiler ------------------------------------------------------

   One function per [Pipeline.shape], each returning the op of an
   instruction of that shape.  An op holds the instruction's operands
   and its decoded timing word [w], counts itself, issues through its
   shape's pipeline entry and then applies its semantics.  An ordinary
   instruction allocates nothing: FP values stay in unboxed arrays. *)

let not_compiled what (i : Insn.t) =
  invalid_arg (Printf.sprintf "Exec.compile: %s is not %s" (Asm.to_string i) what)

let alu (i : Insn.t) w : State.op =
  match i with
  | Lda (d, disp, b) ->
    fun _ node iaddr ->
      count node;
      Pipeline.alu node.pipe w ~iaddr;
      set_ireg node d (node.regs.(b) + disp);
      false
  | Opi (op, d, Reg a, b) ->
    fun _ node iaddr ->
      count node;
      Pipeline.alu node.pipe w ~iaddr;
      set_ireg node d (eval_iop op node.regs.(b) node.regs.(a));
      false
  | Opi (op, d, Imm n, b) ->
    fun _ node iaddr ->
      count node;
      Pipeline.alu node.pipe w ~iaddr;
      set_ireg node d (eval_iop op node.regs.(b) n);
      false
  | Extbl (d, ra, rb) ->
    fun _ node iaddr ->
      count node;
      Pipeline.alu node.pipe w ~iaddr;
      set_ireg node d
        ((node.regs.(ra) asr (8 * (node.regs.(rb) land 7))) land 0xFF);
      false
  | _ -> not_compiled "an integer op" i

let fop (i : Insn.t) w : State.op =
  match i with
  | Opf (op, fd, fa, fb) ->
    fun _ node iaddr ->
      count node;
      Pipeline.fop node.pipe w ~iaddr;
      set_freg node fd (eval_fop op node.fregs.(fa) node.fregs.(fb));
      false
  | Fmov (fd, fs) ->
    fun _ node iaddr ->
      count node;
      Pipeline.fop node.pipe w ~iaddr;
      set_freg node fd node.fregs.(fs);
      false
  | _ -> not_compiled "an FP op" i

let load (i : Insn.t) w : State.op =
  match i with
  | Ldl (d, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = node.regs.(b) + disp in
      Pipeline.load node.pipe w ~iaddr ~maddr:addr;
      set_ireg node d (Memory.read_long node.mem addr);
      false
  | Ldq (d, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = node.regs.(b) + disp in
      Pipeline.load node.pipe w ~iaddr ~maddr:addr;
      count_load node addr;
      set_ireg node d (Memory.read_quad node.mem addr);
      false
  | Ldq_u (d, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = (node.regs.(b) + disp) land lnot 7 in
      Pipeline.load node.pipe w ~iaddr ~maddr:addr;
      set_ireg node d (Memory.read_quad node.mem addr);
      false
  | Ldt (f, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = node.regs.(b) + disp in
      Pipeline.load node.pipe w ~iaddr ~maddr:addr;
      count_load node addr;
      load_freg node f addr;
      false
  | _ -> not_compiled "a load" i

let store (i : Insn.t) w : State.op =
  match i with
  | Stl (r, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = node.regs.(b) + disp in
      Pipeline.store node.pipe w ~iaddr ~maddr:addr;
      Memory.write_long_u node.mem addr (node.regs.(r) land 0xFFFFFFFF);
      false
  | Stq (r, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = node.regs.(b) + disp in
      Pipeline.store node.pipe w ~iaddr ~maddr:addr;
      count_store node addr;
      Memory.write_quad node.mem addr node.regs.(r);
      false
  | Stt (f, disp, b) ->
    fun _ node iaddr ->
      count node;
      let addr = node.regs.(b) + disp in
      Pipeline.store node.pipe w ~iaddr ~maddr:addr;
      count_store node addr;
      Memory.write_float_from node.mem addr node.fregs f;
      false
  | _ -> not_compiled "a store" i

let branch (i : Insn.t) w (link : Image.link) : State.op =
  match (i, link) with
  | Br _, Target { target; backward } ->
    fun _ node iaddr ->
      count node;
      Pipeline.branch node.pipe w ~iaddr ~taken:true ~backward;
      node.pc_idx <- target;
      false
  | Bc (c, r, _), Target { target; backward } ->
    fun _ node iaddr ->
      count node;
      let taken = eval_cond c node.regs.(r) in
      Pipeline.branch node.pipe w ~iaddr ~taken ~backward;
      if taken then node.pc_idx <- target;
      false
  | _ -> not_compiled "a linked branch" i

(* Through the general [Pipeline.issue]. *)
let general (i : Insn.t) w (link : Image.link) : State.op =
  (* fbeq ([if_zero]) or fbne *)
  let fp_branch ~if_zero f target backward : State.op =
    let taken = Pipeline.taken ~backward
    and not_taken = Pipeline.not_taken ~backward in
    fun _ node iaddr ->
      count node;
      let t = (node.fregs.(f) = 0.0) = if_zero in
      Pipeline.issue node.pipe w ~iaddr ~maddr:0
        ~branch:(if t then taken else not_taken);
      if t then node.pc_idx <- target;
      false
  in
  match (i, link) with
  | Cvtqt (r, fd), _ ->
    fun _ node iaddr ->
      count node;
      Pipeline.issue node.pipe w ~iaddr ~maddr:0 ~branch:B_none;
      set_freg node fd (float_of_int node.regs.(r));
      false
  | Cvttq (f, rd), _ ->
    fun _ node iaddr ->
      count node;
      Pipeline.issue node.pipe w ~iaddr ~maddr:0 ~branch:B_none;
      set_ireg node rd (int_of_float node.fregs.(f));
      false
  | Fbeq (f, _), Target { target; backward } ->
    fp_branch ~if_zero:true f target backward
  | Fbne (f, _), Target { target; backward } ->
    fp_branch ~if_zero:false f target backward
  | Jsr _, Callee callee ->
    fun _ node iaddr ->
      count node;
      Pipeline.issue node.pipe w ~iaddr ~maddr:0 ~branch:B_none;
      node.call_stack <- (node.pc_proc, node.pc_idx) :: node.call_stack;
      node.pc_proc <- callee;
      node.pc_idx <- 0;
      false
  | Ret, _ ->
    fun state node iaddr ->
      count node;
      Pipeline.issue node.pipe w ~iaddr ~maddr:0 ~branch:B_none;
      return state node;
      false
  | _ -> not_compiled "an instruction with a general op" i

(* A runtime pseudo-instruction enters the Shasta runtime and yields to
   the scheduler.  A batch end occupies no text and is not counted. *)
let runtime (i : Insn.t) (link : Image.link) : State.op =
  let call f : State.op =
   fun state node _ ->
    count node;
    f state node;
    true
  in
  match i with
  | Batch_end ->
    fun state node _ ->
      if node.in_batch then begin
        Engine.batch_end state node;
        true
      end
      else false
  | Poll -> call Engine.poll
  | Call_load_miss { base; disp; refill } ->
    call (fun state node ->
      let addr = node.regs.(base) + disp in
      Engine.load_miss state node ~addr ~refill:(refill_of node ~addr refill))
  | Call_store_miss { base; disp; ssize; store_done } ->
    let bytes = match ssize with Insn.Long -> 4 | Insn.Quad -> 8 in
    call (fun state node ->
      let addr = node.regs.(base) + disp in
      (* A non-scheduled store executes only after the handler returns;
         capture its effect so the engine can make it visible at wake
         time, before serving queued requests (on a real processor the
         handler's return and the store are back-to-back instructions
         nothing can interleave). *)
      if not store_done then node.commit_store <- commit_of link node;
      Engine.store_miss state node ~addr ~bytes ~store_done)
  | Call_batch_miss { ranges } ->
    let nranges = List.length ranges in
    call (fun state node ->
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
      Engine.batch_miss state node ~nranges ~accesses)
  | Rt_call (Malloc { size; bsize; dest }) ->
    call (fun state node ->
      set_ireg node dest
        (Alloc.g_malloc state node ~size:node.regs.(size)
           ~bsize_req:node.regs.(bsize)))
  | Rt_call (Malloc_priv { size; dest }) ->
    call (fun state node ->
      set_ireg node dest (Alloc.p_malloc state node ~size:node.regs.(size)))
  | Rt_call (Lock r) ->
    call (fun state node -> Engine.rt_lock state node node.regs.(r))
  | Rt_call (Unlock r) ->
    call (fun state node -> Engine.rt_unlock state node node.regs.(r))
  | Rt_call Barrier -> call Engine.rt_barrier
  | Rt_call (Flag_set r) ->
    call (fun state node -> Engine.rt_flag_set state node node.regs.(r))
  | Rt_call (Flag_wait r) ->
    call (fun state node -> Engine.rt_flag_wait state node node.regs.(r))
  | Rt_call (Print_int r) ->
    call (fun state node ->
      Buffer.add_string state.State.output
        (string_of_int node.regs.(r) ^ "\n"))
  | Rt_call (Print_float f) ->
    call (fun state node ->
      Buffer.add_string state.State.output
        (Printf.sprintf "%.6g\n" node.fregs.(f)))
  | Rt_call (Rdcycle d) ->
    call (fun _ node -> set_ireg node d (Node.time node))
  | Rt_call Exit_thread -> call finish
  | _ -> not_compiled "a runtime call" i

let nop : State.op = fun _ _ _ -> false

let compile (i : Insn.t) w (link : Image.link) : State.op =
  match i with
  | Lab _ -> nop
  | Batch_end | Poll | Call_load_miss _ | Call_store_miss _
  | Call_batch_miss _ | Rt_call _ ->
    runtime i link
  | _ ->
    (match Pipeline.shape i with
     | Alu -> alu i w
     | Fop -> fop i w
     | Load -> load i w
     | Store -> store i w
     | Branch -> branch i w link
     | General -> general i w link)

(* Advance a running node by one instruction: bump the pc, run the op.
   Returns [true] when the node must yield to the scheduler. *)
let[@inline] step state fprocs (node : Node.t) =
  let fp = fprocs.(node.pc_proc) in
  let idx = node.pc_idx in
  if idx >= Array.length fp.Image.ops then begin
    (* fell off the end of a procedure: implicit return *)
    return state node;
    false
  end
  else begin
    node.pc_idx <- idx + 1;
    (* [addr] is as long as [ops] *)
    (Array.unsafe_get fp.ops idx) state node (Array.unsafe_get fp.addr idx)
  end

(* Top level, not a closure in [run]: entering the interpreter allocates
   nothing either. *)
let rec steps state fprocs (node : Node.t) fuel =
  match node.status with
  | Node.Running ->
    if (not (step state fprocs node)) && fuel > 1 then
      steps state fprocs node (fuel - 1)
  | Node.Finished | Node.Crashed | Node.Waiting _ -> ()

(* Execute [node] until it yields.  [fuel] bounds the instructions run
   before control returns to the scheduler even without interaction. *)
let run state (node : Node.t) ~fuel =
  let fprocs = state.State.image.Image.fprocs in
  (try steps state fprocs node fuel with
   | Invalid_argument m | Failure m ->
     raise
       (Sim_error
          (Printf.sprintf "node %d at %s+%d: %s" node.id
             fprocs.(node.pc_proc).fname node.pc_idx m)));
  match node.status with
  | Node.Finished | Node.Crashed -> Y_done
  | Node.Waiting _ -> Y_blocked
  | Node.Running -> Y_running
