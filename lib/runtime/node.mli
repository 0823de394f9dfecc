(* Per-node runtime state: architectural state (memory, caches,
   pipeline, registers), scheduling status, and counters.

   Protocol bookkeeping (pending lines, ack counts, waiter queues, sync
   signals) lives in the pure transition core
   ([Shasta_protocol.Transitions]); the node carries only what the
   machine layers and the scheduler need. *)

open Shasta_machine

(* Re-exported from the transition core so the scheduler can match on a
   node's wait without depending on protocol internals. *)
type wait = Shasta_protocol.Transitions.wait =
  | W_blocks of int list (* until none of these blocks is pending *)
  | W_release (* until no pending blocks and no outstanding acks *)
  | W_sync (* until a synchronization signal (grant/release/wake) *)

type status =
  | Running
  | Waiting of wait
  | Finished
  | Crashed
    (* halted by the fault injector: the program never resumes and no
       message is ever delivered again; the memory image stays frozen
       so recovery can salvage block bytes out of it *)

(* Machine-side counts only: protocol events (misses, locks, barriers,
   store reissues) are counted once, in the observability registry. *)
type counters = {
  mutable insns : int;
  mutable polls : int;
  mutable stall_cycles : int;
  (* dynamic access mix, for the instrumented-frequency table *)
  mutable dyn_loads : int;
  mutable dyn_loads_shared : int;
  mutable dyn_stores : int;
  mutable dyn_stores_shared : int;
}

val fresh_counters : unit -> counters

type t = {
  id : int;
  mem : Memory.t;
  caches : Cache.hierarchy;
  pipe : Pipeline.t;
  regs : int array;
  fregs : float array;
  mutable pc_proc : int;
  mutable pc_idx : int;
  mutable call_stack : (int * int) list;
  mutable status : status;
  mutable refill : unit -> unit;
      (* the stalled load's continuation, run by the A_refill action *)
  mutable commit_store : unit -> unit;
      (* a stalled non-scheduled store's memory effect, made visible by
         the engine at wake time before any queued request is served *)
  mutable wait_started : int; (* cycle when the current wait began *)
  mutable reply_data : int array option;
      (* longwords of the Data_reply currently being applied (consumed
         by the first M_merge action of the step) *)
  mutable stepper : Shasta_protocol.Transitions.stepper;
      (* this node's protocol step context, streaming into the engine's
         action sink; built once per cluster ([Engine.attach]) *)
  mutable fan_n : int;
  mutable fan_done : int;
      (* the engine's open run of invalidation sends: how many went
         out, and the cycle the last one left the sender *)
  (* mirrors of transition-core state the interpreter layers read *)
  mutable in_batch : bool;
  mutable batch_stores : (int * int) list; (* absolute addr, byte size *)
  mutable priv_brk : int; (* private heap bump pointer *)
  counters : counters;
}

val create : id:int -> pipe_config:Pipeline.config -> t

val time : t -> int
(** The node's current cycle (its pipeline clock). *)
