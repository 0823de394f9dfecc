(* Pure protocol transition core.

   [step] is the entire Shasta coherence/synchronization protocol as a
   pure function over an immutable [view]; the runtime engine interprets
   the returned [action] list against Pipeline/Network/Memory, and the
   model checker ([lib/mcheck]) and the deterministic-replay driver
   (shasta_run --replay) drive [step] directly.  Types are transparent
   so checkers can build and inspect views. *)

module Imap : Map.S with type key = int

type line = L_invalid | L_shared | L_exclusive | L_pending_invalid
          | L_pending_shared

type pending_kind = P_read | P_readex | P_upgrade

type pend = {
  pkind : pending_kind;
  written : int Imap.t;
  invalidated : bool;
}

type ackst = { got : int; expected : int option }

type wait = W_blocks of int list | W_release | W_sync

type resume =
  | R_none
  | R_refill
  | R_store_retry of { addr : int; block : int }
  | R_store_commit of { then_release : bool }
  | R_then_release
  | R_done
  | R_lock_acquired of int
  | R_unlock of int
  | R_barrier_enter
  | R_barrier_passed
  | R_flag_set of int
  | R_flag_woken of int

type nstatus = N_running | N_waiting of wait

type deferred = D_inv of int | D_downgrade of int

type nview = {
  lines : line Imap.t;
  pending : pend Imap.t;
  acks : ackst Imap.t;
  unacked : int;
  waiters : Message.t list Imap.t;
  deferred : deferred list;
  in_batch : bool;
  nstat : nstatus;
  resume : resume;
  sync_signal : bool;
}

type dirent = { owner : int; sharers : Nodeset.t }
type lockst = { holder : int option; lq : int list }
type flagst = { fset : bool; fwaiters : int list }

type view = {
  dir : dirent Imap.t;
  nodes : nview Imap.t;
  locks : lockst Imap.t;
  flags : flagst Imap.t;
  barrier_arrived : Nodeset.t; (* nodes waiting at the barrier (exact) *)
  crashed : Nodeset.t; (* currently-down nodes *)
  halted : Nodeset.t; (* ever-crashed nodes (monotone): a recovered
                         node serves the protocol again but its program
                         is gone, so barriers excuse it permanently *)
  homes : int Imap.t; (* page -> home override (placement/migration) *)
  heat : (int * int) Imap.t; (* page -> (last remote requester, streak) *)
  brelease : Nodeset.t; (* tree barrier: nodes the release wave owes *)
}

type cfg = {
  nprocs : int;  (* homes: (block / Granularity.page_bytes) mod nprocs *)
  sc : bool;
  dmode : Nodeset.mode; (* directory organization for sharer sets *)
  scalable_sync : bool; (* queue locks + combining-tree barrier *)
  migrate : bool; (* hot-page directory-home migration *)
}

val default_cfg : cfg
(** One node, release consistency, full-map directory, centralized
    sync, no migration: the base every configuration overrides. *)

type cost =
  | Request_issue
  | Message_handle
  | Sync_local
  | False_miss
  | Batch_record of int

type miss_kind = MK_read | MK_write | MK_upgrade

type ev =
  | E_miss of miss_kind * int
  | E_false_miss of int
  | E_invalidated of { block : int; requester : int }
  | E_downgraded of { block : int; requester : int }
  | E_store_reissue of int
  | E_batch_run of { nranges : int; waited : int }
  | E_lock_acquired of int
  | E_barrier_passed
  | E_flag_raised of int
  | E_flag_woken of int
  | E_lease_takeover of { id : int; from : int }
  | E_dir_rebuild of { block : int; from : int }
  | E_home_migrated of { page : int; to_ : int }

type memop =
  | M_make_exclusive of int
  | M_make_shared of int
  | M_make_invalid of int
  | M_make_pending of { block : int; shared : bool }
  | M_flag of { block : int; keep : int list }
  | M_merge of { block : int; written : (int * int) list }
  | M_adopt of { block : int; from : int }
    (* crash salvage: copy the block's bytes out of dead node [from]'s
       frozen memory image into the acting node's memory (no line-state
       change) *)

type action =
  | A_charge of cost
  | A_emit of ev
  | A_send of { dst : int; msg : Message.t }
  | A_local of Message.t
  | A_mem of memop
  | A_block of wait
  | A_stall of wait
  | A_refill
  | A_commit_store

type input =
  | I_msg of Message.t
  | I_load_miss of { addr : int; block : int }
  | I_store_miss of
      { addr : int; block : int; store_done : bool; stored : (int * int) list }
  | I_batch_miss of { nranges : int; blocks : (int * bool) list }
  | I_batch_end of
      { values : (int * int * int) list; order : deferred list }
  | I_lock of int
  | I_unlock of int
  | I_barrier
  | I_flag_set of int
  | I_flag_wait of int
  | I_alloc of { owner : int; blocks : int list }
  | I_set_home of { page : int; home : int }
    (* install a home-placement override for [page] (first-touch
       policy) *)
  | I_node_crash of { victim : int; lost : (int * Message.t) list }
    (* stepped at a surviving coordinator: marks [victim] dead,
       reconstructs directory entries it owned, reclaims its locks by
       lease takeover, and re-dispatches/answers the purged [lost]
       frames ([(dst, msg)] in send order) on its behalf *)
  | I_node_recover of int

val empty_nview : nview
val init : cfg -> view

(* The transition function.  Applying the returned actions in order
   against the machine reproduces the historical engine's effect order
   exactly.  Every step runs to completion, a stalled store's retry
   included: miss inputs name only the address and block, and the core
   reads the node's line state from its own view. *)
val step : cfg -> view -> node:int -> input -> action list * view

val home_of : cfg -> int -> int
(* Natural (round-robin) home of a block, ignoring overrides. *)

val home_for : cfg -> view -> int -> int
(* Effective home of a block under placement policies: the homes
   override when installed, else the natural round-robin home. *)

val route : cfg -> view -> int -> int
(* Crash routing: the given home, or its ring successor among live
   nodes while it is crashed.  Identity when nothing is crashed. *)

val tree_fanout : int
(* Combining-tree barrier arity (scalable_sync). *)

(* Accessors *)
val node_view : view -> node:int -> nview
val deferred_of : view -> node:int -> deferred list
val line_state : view -> node:int -> block:int -> line
val in_batch : view -> node:int -> bool
val dir_entry : view -> block:int -> dirent option
val dir_fold : (int -> dirent -> 'a -> 'a) -> view -> 'a -> 'a
val crashed_mask : view -> int
val halted_mask : view -> int
val is_live : view -> node:int -> bool

val locks_held_by : view -> node:int -> int list
(** Lock ids whose holder is [node], ascending. *)

val is_sharer : dirent -> int -> bool
val sharer_list : dirent -> int list
val sharer_count : dirent -> int

(* Invariant checking: [] means consistent.  [invariants] holds in every
   reachable view; [quiescent_invariants] additionally requires all
   activity drained. *)
val invariants : cfg -> view -> string list
val quiescent_invariants : cfg -> view -> string list

(* Canonical string: equal strings <=> equal views (map-shape
   independent).  Visited-set keys and replay comparison.  [canon_into]
   appends the same bytes to a caller's buffer without [Printf]. *)
val canon_into : Buffer.t -> view -> unit
val canon : view -> string

(* The three parts of [canon_into], which writes [canon_dir_into], then
   [canon_node_into] for each node in id order, then [canon_rest_into].
   The model checker interns each part on its own. *)
val canon_dir_into : Buffer.t -> view -> unit
val canon_node_into : Buffer.t -> int -> nview -> unit
val canon_rest_into : Buffer.t -> view -> unit

val rest_shared : view -> view -> bool
(** Every field [canon_rest_into] reads is physically shared between
    the two views, so both render the same rest. *)

val string_of_wait : wait -> string
