(* The protocol engine: a thin interpreter over the pure transition core
   ([Shasta_protocol.Transitions]).

   Every entry point builds a [Transitions.input] from what the machine
   observed (miss addresses, drained messages, stored longwords; the
   core reads line states from its own view), runs the pure step to
   completion through the node's [Transitions.stepper], and applies
   each action in order, as the stepper streams it, against
   Pipeline/Network/Memory and the observability subsystem.
   When [state.record_inputs] is set, every input is also logged for
   deterministic replay ([Replay]). *)

val emit_at :
  Shasta_obs.Obs.t -> Node.t -> time:int -> Shasta_obs.Event.t -> unit
(** Report an event at [time], attributed to the node's current code
    site.  The site record is built only when a sink or profiler is
    attached. *)

val sink : State.t -> Node.t -> Shasta_protocol.Transitions.action -> unit
(** Apply one action the node's step streamed.  A run of invalidation
    sends is charged once, at the next other action or at the step's
    end. *)

val attach : State.t -> unit
(** Build each node's [Node.stepper] over its [sink].  Run once, when
    the cluster is created, before the first protocol step. *)

(* -- inline miss handlers (called from the interpreter pseudo-ops) -- *)

val load_miss : State.t -> Node.t -> addr:int -> refill:(unit -> unit) -> unit
val store_miss :
  State.t -> Node.t -> addr:int -> bytes:int -> store_done:bool -> unit

val batch_miss :
  State.t -> Node.t -> nranges:int -> accesses:(int * int * bool) list -> unit
(** [accesses] are (address, bytes, is_store) for every access of the
    batch (Section 4.3). *)

val batch_end : State.t -> Node.t -> unit

val poll : State.t -> Node.t -> unit
(** The inline poll (Section 2.2): drain and handle arrived messages. *)

(* -- synchronization entry points (Rt_call) -- *)

val rt_lock : State.t -> Node.t -> int -> unit
val rt_unlock : State.t -> Node.t -> int -> unit
val rt_barrier : State.t -> Node.t -> unit
val rt_flag_set : State.t -> Node.t -> int -> unit
val rt_flag_wait : State.t -> Node.t -> int -> unit

(* -- scheduler and allocator hooks -- *)

val deliver_next : State.t -> Node.t -> bool
(** Advance a blocked/finished node to its next message arrival and
    handle it; [false] if nothing is in flight for it. *)

val alloc_blocks : State.t -> owner:int -> int list -> unit
(** Register freshly allocated blocks with the directory inside the
    pure view, owned exclusively by [owner]. *)

val set_home : State.t -> page:int -> home:int -> unit
(** Install a home-placement override for [page] in the pure view
    (first-touch allocation).  Recorded like every other input, so
    --replay reproduces placement. *)

(* -- node fault injection (called by the cluster scheduler) -- *)

val node_crash :
  State.t -> Node.t -> victim:int ->
  lost:(int * Shasta_protocol.Message.t) list -> unit
(** Feed the pure core a detected crash of [victim], run at the
    surviving coordinator node.  [lost] are the victim's purged
    in-flight frames as [(dst, msg)] in global send order. *)

val node_recover : State.t -> Node.t -> victim:int -> unit
(** Rejoin [victim] to protocol duties (clears its crashed bit in the
    pure view). *)
