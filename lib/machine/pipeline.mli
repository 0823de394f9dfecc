(** Static in-order issue timing model.

    Models the features the paper's overhead analysis depends on
    (Sections 3.1, 5.1): multiple issue with a single memory port, the
    21064A's shift-use delay (why Figure 4 beats Figure 2), load-use
    delay (why the flag compare is sunk below the load), long FP
    compare/branch latency (why FP loads are checked through an extra
    integer load), and static branch prediction.

    An instruction is decoded once ({!decode}) and then issued through
    the entry its {!shape} names; {!issue} is the general entry, which
    takes any decoded word.  Every entry allocates nothing. *)

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
  fp_branch_cost : int;
  mispredict_cycles : int;
  call_cycles : int;
}

val alpha_21064a : config
(** The 275 MHz dual-issue 21064A of the paper's measurements. *)

val alpha_21164 : config
(** The quad-issue 21164 of the paper's second cycle-count column. *)

type branch_info =
  | B_none
  | B_taken of { backward : bool }
  | B_not_taken of { backward : bool }

val taken : backward:bool -> branch_info
val not_taken : backward:bool -> branch_info
(** Preallocated branch outcomes: no allocation per branch. *)

val decode : config -> Shasta_isa.Insn.t -> int
(** The instruction's timing under [config], packed into one immediate
    int: result latency, memory and store bits, control stall (FP
    branch or call), source and destination registers.  An executable
    is decoded once when it is loaded; [issue] reads only the word.
    Raises [Invalid_argument] if a latency or stall exceeds 255
    cycles. *)

type t

val create : ?caches:Cache.hierarchy -> config -> t
(** Without [caches], memory is ideal (used for static cost studies). *)

val cycle : t -> int
val insns : t -> int

type snapshot = {
  s_cycle : int;
  s_slots_used : int;  (** issue slots taken in the current group *)
  s_mem_used : bool;  (** the group's memory port is taken *)
  s_insns : int;
  s_iline : int;  (** L1I line of the last fetch, -1 = none *)
  s_ireg_ready : int array;  (** integer scoreboard: ready cycle per register *)
  s_freg_ready : int array;  (** FP scoreboard *)
}

val snapshot : t -> snapshot
(** A copy of everything issuing reads or writes besides the caches, for
    checking that two ways of issuing agree. *)

val reset : t -> unit
(** Back to cycle 0 with an empty scoreboard; also forgets the last
    fetched I-cache line, so the next fetch probes the cache. *)

val stall : t -> int -> unit
(** Advance time by stall cycles (handler entry, polls, waiting). *)

val advance_to : t -> int -> unit
(** Advance to an absolute cycle (message arrival); never goes back. *)

val issue : t -> int -> iaddr:int -> maddr:int -> branch:branch_info -> unit
(** [issue t (decode config i) ~iaddr ~maddr ~branch] issues one
    instruction: waits for source operands (scoreboard), respects issue
    width and the single memory port, charges I/D cache misses, records
    result latency, and applies branch costs.  [maddr] is the data
    address of a load or store; other instructions ignore it.  A fetch
    from the same I-cache line as the previous fetch skips the probe,
    which would hit.  The word must come from [decode] with the config
    [t] was created with. *)

(** {2 Shape entries}

    Each leaves [t] exactly as {!issue} does on a word that [decode]
    made of an instruction of its shape, and skips the steps that shape
    cannot need. *)

type shape =
  | Alu  (** [lda], [opi], [extbl]: {!alu} *)
  | Fop  (** [opf], [fmov]: {!fop} *)
  | Load  (** [ldl], [ldq], [ldq_u], [ldt]: {!load} *)
  | Store  (** [stl], [stq], [stt]: {!store} *)
  | Branch  (** [br], [bc]: {!branch} *)
  | General  (** everything else: {!issue} *)

val shape : Shasta_isa.Insn.t -> shape
(** The entry an instruction issues through. *)

val alu : t -> int -> iaddr:int -> unit
val fop : t -> int -> iaddr:int -> unit
val load : t -> int -> iaddr:int -> maddr:int -> unit
val store : t -> int -> iaddr:int -> maddr:int -> unit

val branch : t -> int -> iaddr:int -> taken:bool -> backward:bool -> unit
(** [backward]: the target is at or before the branch. *)
