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
(** The flat visited-set key: equal keys <=> the search treats the
    systems as one state.  It covers the view ([T.canon]), every
    in-flight message including a data reply's payload longwords,
    scripts remaining, shadow memory, registers, the lossy sublayer,
    the adversary budgets and the refinement spec state.  The search
    stores a compact form of it: each component (the directory, each
    node's view, the rest of the view, each channel, each node's shadow
    memory, the spec) is interned once per search, and a state is the
    row of its components' ids plus its scalars packed in full.  Ids
    stand for whole renderings, never digests, so two compact keys are
    equal exactly when the flat keys are and no collision can prune a
    state. *)

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

val compact_keys :
  ?lossy:int ->
  ?crash:int ->
  ?recover:int ->
  ?refine:bool ->
  seed:int ->
  runs:int ->
  scenario ->
  (string * string) list
(** Every state [fuzz]'s walks reach, in order, as its flat [key] and
    the compact key [check_exhaustive] would store for it, built the
    way the search builds it: from the parent's component ids, with
    only the components the move replaced rendered again.  For tests
    of the compression. *)

(* Built-in scenarios (blocks with distinct homes when nprocs > 1).
   Each doc names the nodes whose scripts act and gives the states
   [check_exhaustive] visits with no options (reliable wire, no
   refinement, no crash) at P=2, 3 and 4; a scenario with a fixed node
   count gives its one count. *)

val read_sharing : nprocs:int -> scenario
(** n0 writes the block, then every node passes a barrier and reads
    it.  18 / 76 / 330 states. *)

val write_race : nprocs:int -> scenario
(** n0 and n1 each write the block once, unsynchronized; the other
    nodes run no script and add no state.  12 states at every P. *)

val lock_increment : nprocs:int -> scenario
(** Every node increments the block under lock 0.  64 / 568 / 4,780
    states. *)

val flag_handoff : scenario
(** Two nodes: n0 writes the block and sets flag 0; n1 waits on the
    flag and reads.  13 states. *)

val barrier_exchange : scenario
(** Two nodes: n0 and n1 each write a block (distinct homes), pass a
    barrier and read the other's.  43 states. *)

val upgrade_race : nprocs:int -> scenario
(** n0 writes the block, passes a barrier and writes it again under
    lock 0; the other nodes pass the barrier and read it, racing that
    upgrade.  36 / 226 / 1,554 states. *)

val release_order : scenario
(** The directed refinement scenario, on two nodes: n0 publishes the
    block under flag 0 and updates it again inside a critical section;
    n1 waits on the flag and reads the block twice under the same lock.
    DRF, and its data oracle tolerates every final outcome — the
    [Store_past_release] injection is invisible to all pre-refinement
    checks here, and exactly the stale lock-section read diverges from
    the spec.  100 states. *)

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
   synchronization path.  State counts as above. *)
val lp_overflow : nprocs:int -> scenario
(** One limited pointer + [nprocs] sharers: n0 writes the block, every
    node passes a barrier and reads it, and n0 writes it again; the
    entry overflows to broadcast, and the oracle proves the superset
    never misses a sharer.  27 / 217 / 3,069 states. *)

val queue_lock : nprocs:int -> scenario
(** [lock_increment]'s scripts (every node) under the queue lock.
    62 / 546 / 4,612 states. *)

val tree_barrier : scenario
(** [barrier_exchange]'s two nodes under the combining-tree barrier.
    52 states. *)

val scalable_mix : nprocs:int -> scenario
(** Every node increments the block under the queue lock, then passes
    the tree barrier.  116 / 1,806 / 28,908 states. *)

val scale_scenarios : nprocs:int -> scenario list
(** [lp_overflow], then lp-home-stale — four nodes whatever [nprocs]:
    n3 writes the block and n0 only passes the barrier, after which n1
    and n2 read it (197 states) — then [queue_lock], [tree_barrier]
    and [scalable_mix]. *)

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
