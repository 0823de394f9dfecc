(* Explicit-state model checker and random-interleaving fuzzer for the
   pure protocol core ([Shasta_protocol.Transitions]).

   A scenario closes the system: a few nodes running short scripted
   operation sequences over one or two blocks, message channels with
   per-(src,dst) FIFO order, and a one-longword-per-block shadow
   memory.  [check_exhaustive] enumerates every interleaving and
   checks, at each state, the core's structural invariants,
   invalidation-ack conservation against in-flight messages, and
   flag/value coherence; terminal states must be quiescent and satisfy
   the scenario's data oracle.  [fuzz] random-walks larger instances.
   [Drop_first_inv_ack] injects a protocol bug at the routing layer to
   demonstrate the checker catches it.

   [~lossy:budget] swaps the perfect channels for the unreliable wire
   under the reliable-delivery sublayer: every message becomes a
   sequence-numbered frame, the adversary spends a bounded per-channel
   budget on drop/duplicate/reorder moves, lost frames are
   retransmitted, and the receiver dedups and resequences.  Terminal
   states must additionally have every channel drained — the "eventual
   delivery implies quiescence" liveness check.  [Retransmit_no_dedup]
   removes the receiver-side dedup so stale frames reach the protocol
   twice, a transport bug the checker must catch.

   [~crash:budget] adds a node-crash adversary: at any state it may
   halt any node (while at least two are live), purge the victim's
   in-flight frames and feed them to the surviving coordinator's
   [I_node_crash] step, exactly as the runtime's crash detector does;
   [~recover:budget] adds restart moves.  Invariants must hold through
   crash and recovery, survivors must never be stuck at terminal
   states, and terminal states must be quiescent; scenario data
   oracles are skipped once a crash fires.  Requires the reliable
   wire. *)

open Shasta_protocol
module T = Transitions

type op =
  | Read of int (* block *)
  | Write of int * int (* block, value *)
  | Write_reg_plus of int * int (* block, increment over last read *)
  | Lock of int
  | Unlock of int
  | Flag_set of int
  | Flag_wait of int
  | Barrier

val string_of_op : op -> string

type injection =
  | No_injection
  | Drop_first_inv_ack
  | Retransmit_no_dedup
  | Store_past_release
      (* the refinement-teeth mutation: the first store issued under a
         held lock is withheld and fires only after the node has
         released its locks.  Preserves every structural invariant,
         quiescence and the (weak) data oracles; only [~refine]
         catches the reordered commit. *)

type sys

type scenario = {
  sname : string;
  nprocs : int;
  blocks : int list;
  scripts : op list array;
  oracle : sys -> string list; (* extra checks at terminal states *)
  drf : bool;
      (* scripts are data-race-free: the race detector must stay
         silent in refinement mode and spec divergences are hard
         violations; on a racy scenario divergences after a detected
         race are excused *)
  cfg_mod : T.cfg -> T.cfg;
      (* configuration override over the default (full-map, centralized
         sync): scale scenarios pick the limited-pointer directory and
         the queue-lock/tree-barrier path here *)
}

(* Oracle helpers: inspect a terminal system. *)
val value : sys -> node:int -> block:int -> int option
(** The node's copy of the block's longword; [None] when flagged. *)

val reg : sys -> node:int -> int
(** The value of the node's last completed [Read]. *)

val view : sys -> T.view

val init_sys :
  ?lossy:int ->
  ?crash:int ->
  ?recover:int ->
  ?refine:bool ->
  ?base:T.cfg ->
  scenario ->
  sys
(** [lossy] is the per-channel fault budget; omitted = reliable wire.
    [crash]/[recover] are the node-crash adversary's halt and restart
    move budgets (default 0 = no crash moves); [crash] requires the
    reliable wire.  [refine] attaches the serial-memory spec machine
    and race detector (see {!Refine}); [base] seeds the configuration
    the scenario's [cfg_mod] is applied over (the CLI's
    --dir-mode/--sync choice).  [base]'s processor count is overridden
    by the scenario's. *)

val cfg_of : ?base:T.cfg -> scenario -> T.cfg

val moves :
  T.cfg -> inj:injection -> sys -> (string * (unit -> sys)) list
(** All enabled moves with display labels: issue next scripted op,
    deliver a channel head, and — on a lossy system — the adversary's
    budgeted drop/dup/reorder moves plus free retransmission of lost
    frames.  (The search itself renders a label only when it prints a
    counterexample.) *)

val key : sys -> string
(** The visited-set key: equal keys <=> the search treats the systems
    as one state.  It covers the view ([T.canon]), every in-flight
    message including a data reply's payload longwords, scripts
    remaining, shadow memory, registers, the lossy sublayer, the
    adversary budgets and the refinement spec state.  The search keeps
    the full key, never a digest, so no collision can prune a state. *)

type violation = {
  verr : string list;
  vtrace : string list;
  vcommits : string list;
      (* refinement mode: the spec steps committed along the trace,
         oldest first — the abstract run the counterexample diverged
         from *)
}

type result = {
  states : int; (* distinct states visited *)
  transitions : int;
  terminals : int;
  max_depth : int;
  truncated : bool; (* hit the state bound before finishing *)
  violation : violation option;
}

val check_exhaustive :
  ?injection:injection ->
  ?lossy:int ->
  ?crash:int ->
  ?recover:int ->
  ?refine:bool ->
  ?base:T.cfg ->
  ?max_states:int ->
  scenario ->
  result
(** With [~refine:true], every explored interleaving is additionally
    checked to refine the serial-memory spec: each load/store/sync
    commit maps to exactly one atomic spec step (transfers,
    invalidations, acks, migration and retransmissions are stuttering
    no-ops), crash boundaries widen a dead writer's blocks to the
    physically surviving values, and a vector-clock race detector
    verifies the scenario's [drf] claim along each explored trace.
    The spec state is folded into the visited-set key, so refinement
    multiplies the state count. *)

val fuzz_seeds : seed:int -> runs:int -> int list
(** The per-run seeds [fuzz] derives from [seed] via one shared
    splitmix64 stream — exposed so tests can pin their uniqueness. *)

val fuzz :
  ?injection:injection ->
  ?lossy:int ->
  ?crash:int ->
  ?recover:int ->
  ?refine:bool ->
  ?base:T.cfg ->
  seed:int ->
  runs:int ->
  scenario ->
  int * violation option
(** Seeded random walks; returns total steps taken and the first
    violation, if any. *)

(* Built-in scenarios (blocks with distinct homes when nprocs > 1). *)
val read_sharing : nprocs:int -> scenario
val write_race : nprocs:int -> scenario
val lock_increment : nprocs:int -> scenario
val flag_handoff : scenario
val barrier_exchange : scenario
val upgrade_race : nprocs:int -> scenario

val release_order : scenario
(** The directed refinement scenario: a flag-published block updated
    again inside a critical section, read twice under the same lock by
    the consumer.  DRF, and its data oracle tolerates every final
    outcome — the [Store_past_release] injection is invisible to all
    pre-refinement checks here, and exactly the stale lock-section
    read diverges from the spec. *)

val scenarios : nprocs:int -> scenario list

val refine_scenarios : nprocs:int -> scenario list
(** [scenarios] plus [release_order] (kept separate so existing
    state-space baselines stay comparable). *)

val crash_scenarios : nprocs:int -> scenario list
(** The scenarios safe under the crash adversary: all but
    [flag_handoff] (a flag the dead producer never set legitimately
    strands its waiter — tolerating that is an application
    obligation). *)

(* Scaling scenarios: the limited-pointer directory and the scalable
   synchronization path. *)
val lp_overflow : nprocs:int -> scenario
(** One limited pointer + [nprocs] sharers: the entry overflows to
    broadcast; the oracle proves the superset never misses a sharer. *)

val queue_lock : nprocs:int -> scenario
val tree_barrier : scenario
val scalable_mix : nprocs:int -> scenario
val scale_scenarios : nprocs:int -> scenario list

val pp_violation : out_channel -> violation -> unit

val run_scenario :
  ?injection:injection ->
  ?lossy:int ->
  ?crash:int ->
  ?recover:int ->
  ?refine:bool ->
  ?base:T.cfg ->
  ?max_states:int ->
  out_channel ->
  scenario ->
  result
(** Run one scenario exhaustively and print its state-space summary
    line (plus any counterexample) to the channel. *)
