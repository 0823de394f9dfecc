(* The serial-memory specification machine and the vector-clock race
   detector behind [Mcheck]'s refinement mode.

   The spec is the atomic-step serial memory of the SC-for-DRF
   theorem: a flat word array plus lock/flag/barrier state, advanced
   by one indivisible step per user-visible operation.  The checker
   maps every explored protocol interleaving onto a spec run — each
   load/store/sync *commit* refines to exactly one [sstep], every
   other protocol move (transfers, invalidations, acks, migration,
   retransmission) refines to a stuttering no-op — and any
   interleaving whose commits the spec rejects is a refinement
   counterexample.

   Memory is kept as a per-block set of ADMISSIBLE values, not a
   single word, so crash boundaries have a semantics: when a node
   dies as the unobserved last writer of a block, its in-flight store
   either committed before the cut or never happened, and the spec
   widens that block to the set of values physically surviving in the
   cluster.  Loads collapse the set back to the observed value.
   Fault-free runs only ever see singletons.

   The race detector discharges the theorem's precondition: it runs
   vector clocks over the same commit stream and reports every pair of
   conflicting accesses unordered by locks, flags, barriers or crash
   cuts.  A scenario declared DRF must come out race-free on every
   explored trace; a racy scenario's divergences after a detected race
   are excused (SC is only promised to race-free programs). *)

open Shasta_protocol
module Imap = Transitions.Imap

type sstep =
  | S_load of { node : int; block : int; value : int }
  | S_store of { node : int; block : int; value : int }
  | S_lock of { node : int; id : int }
  | S_unlock of { node : int; id : int }
  | S_flag_set of { node : int; id : int }
  | S_flag_wait of { node : int; id : int }
  | S_barrier_arrive of { node : int }
  | S_barrier_pass of { node : int; excused : int (* halted-node mask *) }
  | S_crash of {
      victim : int;
      held : int list; (* locks the spec force-releases *)
      admissible : (int * int list) list;
          (* blocks last written by the victim, each widened to the
             value set still physically present in the cluster *)
    }

val string_of_sstep : sstep -> string

type spec

val init : nprocs:int -> blocks:int list -> spec
(** Every block starts as the singleton {0}, matching the allocator's
    zeroed exclusive copy at node 0. *)

val step : spec -> sstep -> (spec, string) result
(** Advance the serial memory by one atomic step; [Error] carries the
    human-readable divergence (the refinement counterexample's
    "violated" line). *)

val force : spec -> sstep -> spec
(** Apply the step's state change ignoring its precondition — used to
    resynchronize the spec after an excused divergence in a racy
    scenario (a load adopts the value it observed, etc.). *)

val canon_into : Buffer.t -> spec -> unit
(** Append the canonical string, folded into the model checker's
    visited-set key (the spec state is path-dependent, so two protocol
    states with different spec shadows must not be merged).  No
    [Printf]: it runs once per explored transition. *)

val canon : spec -> string
(** [canon_into] into a fresh string. *)

val equal : spec -> spec -> bool

(* Accessors for the abstraction glue and terminal checks. *)
val mem_values : spec -> int -> int list
(** The block's admissible value set (sorted; [0] if never touched). *)

val writer_of : spec -> int -> int option
(** The block's last committed writer, if any survives a crash cut. *)

val held_locks : spec -> int -> int list
(** Lock ids the node holds in the spec, ascending. *)

(* --- the vector-clock race detector -------------------------------- *)

type racer

val racer_init : nprocs:int -> racer

val observe : racer -> sstep -> racer * string list
(** Feed one committed step; returns the advanced clocks and the
    conflicting-access reports this step completes (empty = no race).
    Lock release/acquire, flag set/wait, barrier episodes and crash
    cuts are the synchronizing edges; a crash joins the victim's clock
    into every node (the runtime's crash detector is a consistent cut
    every survivor observes before touching salvaged state). *)
