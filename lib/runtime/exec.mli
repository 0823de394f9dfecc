(* Instruction interpreter with cycle accounting.

   Executes the (instrumented) executable as compiled ops: real
   instructions go through the pipeline/cache timing model and ordinary
   memory semantics — the inline checks are just code — while the
   pseudo-instructions enter the Shasta runtime (Engine). *)

exception Sim_error of string

type yield = Y_running | Y_blocked | Y_done

(* ALU/FPU/branch-condition evaluation, exposed for the instruction-set
   property tests. *)
val eval_iop : Shasta_isa.Insn.iop -> int -> int -> int
val eval_fop : Shasta_isa.Insn.fop -> float -> float -> float
val eval_cond : Shasta_isa.Insn.cond -> int -> bool

(* [compile i (Pipeline.decode config i) link] is the op of [i]: the
   closure that issues it through the pipeline entry of its
   [Pipeline.shape] and applies its semantics, or enters the runtime.
   [Image.freeze] calls it once per distinct instruction. *)
val compile : Shasta_isa.Insn.t -> int -> Image.link -> State.op

(* Run [node] until it blocks, finishes, or [fuel] instructions have
   executed; yields control back to the scheduler so cross-node timing
   stays causal. *)
val run : State.t -> Node.t -> fuel:int -> yield
