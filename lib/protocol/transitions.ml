(* The pure protocol transition core.

   Everything the Shasta engine decides — directory updates, pending and
   invalidation-ack bookkeeping, waiter deferral, sync objects — lives
   here as a pure function

       step : cfg -> view -> node:int -> input -> action list * view

   over an immutable [view].  Inputs are miss-check outcomes, protocol
   messages and sync ops; effects (network sends, pipeline charges,
   state-table writes, observability events, blocking/waking) come back
   as an ordered [action] list; an event is already the
   [Shasta_obs.Event.t] the engine hands to [Obs.emit].  A [stepper],
   one per node, runs the same step and passes each action, in the same
   order, to a caller's sink instead: that is how the runtime
   interpreter ([Engine]) applies them against Pipeline/Network/Memory,
   and how the model checker and replay step the core.  [step]'s list
   remains for the tests, perfbench's traced replay and the checker's
   initial state.
   The ordering contract is strict: applying the actions in order
   reproduces the exact effect order of the historical monolithic
   engine, so event streams and cycle counts are byte-for-byte
   identical.

   Because the core is pure it can also be driven without a machine
   underneath: [lib/mcheck] explores all interleavings of small
   configurations against the invariants below, and the recorded input
   trace of a real run can be re-fed through the steppers to reproduce
   the final view deterministically (shasta_run --replay).

   Two host artifacts are passed IN as inputs rather than recomputed,
   to keep bit-exact fidelity with the old engine: the per-block
   iteration order of a batch miss and the dedup order of deferred
   invalidations (both historically OCaml-Hashtbl orders), and the
   memory values of batched stores (the core holds no data memory). *)

module Imap = Map.Make (Int)
module Ns = Nodeset
module Ev = Shasta_obs.Event

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

(* Per-block line state as the state table sees it (one byte per line in
   the real tables; the core tracks it per block, which is exact because
   every table write the engine performs covers whole blocks). *)
type line = L_invalid | L_shared | L_exclusive | L_pending_invalid
          | L_pending_shared

type pending_kind = P_read | P_readex | P_upgrade

type pend = {
  pkind : pending_kind;
  written : int Imap.t; (* longword addr -> value stored while pending *)
  invalidated : bool; (* an Inv overtook the reply *)
}

type ackst = { got : int; expected : int option }

type wait =
  | W_blocks of int list (* until none of these blocks is pending *)
  | W_release (* until no pending blocks and no outstanding acks *)
  | W_sync (* until a synchronization signal (grant/release/wake) *)

(* What to run when the current wait is satisfied — the pure analogue of
   the engine's [on_wake] continuation closures. *)
type resume =
  | R_none
  | R_refill (* re-run the stalled load (interpreter-side closure) *)
  | R_store_retry of { addr : int; block : int }
    (* stalled non-scheduled store: re-run the store miss against the
       line state the wake left *)
  | R_store_commit of { then_release : bool }
    (* stalled non-scheduled store: commit its memory effect first, so
       the value is visible before any queued request is served *)
  | R_then_release (* SC store/batch: now wait for the release point *)
  | R_done
  | R_lock_acquired of int
  | R_unlock of int
  | R_barrier_enter
  | R_barrier_passed
  | R_flag_set of int
  | R_flag_woken of int

type nstatus = N_running | N_waiting of wait

(* Invalidations/downgrades deferred while inside batched code
   (Section 4.3): applied at the Batch_end marker. *)
type deferred = D_inv of int | D_downgrade of int

type nview = {
  lines : line Imap.t;
    (* block base -> settled state (absent = invalid).  Never a pending
       state: a block with a [pending] entry reads pending-shared (an
       upgrade) or pending-invalid off that entry, whatever [lines]
       still holds for it *)
  pending : pend Imap.t; (* block base -> pending request *)
  acks : ackst Imap.t;
    (* block base -> outstanding invalidation acks; its size is the
       node's count of unacknowledged blocks *)
  waiters : Message.t list Imap.t; (* deferred fwd requests, head oldest *)
  deferred : deferred list; (* head newest, as in the engine *)
  in_batch : bool;
  nstat : nstatus;
  resume : resume;
  sync_signal : bool;
}

type dirent = { owner : int; sharers : Ns.t (* node set, incl. owner *) }
type lockst = { holder : int option; lq : int list (* head next *) }
type flagst = { fset : bool; fwaiters : int list (* head oldest *) }

(* The view is split by how often a step changes a field: [dir] and
   [nodes] change on most steps and sit at top level, so copying the
   view costs 4 words; the eight fields that change only on sync,
   crash and placement steps share one [rest] record, which a step
   that leaves them alone passes on untouched. *)
type rest = {
  locks : lockst Imap.t;
  flags : flagst Imap.t;
  barrier_arrived : Ns.t; (* nodes waiting at the barrier (exact) *)
  crashed : Ns.t; (* currently-down nodes (home duties routed around
                     them; sends to them are suppressed) *)
  halted : Ns.t; (* ever-crashed nodes.  Monotone — a recovered node
                    resumes protocol duties (crashed bit cleared) but
                    its program died with it, so barriers treat it as
                    permanently arrived. *)
  homes : int Imap.t; (* page -> home override (policy-driven placement
                         and hot-page migration); absent = round-robin *)
  heat : (int * int) Imap.t; (* page -> (last remote requester, streak)
                                — only populated under [Migrate] *)
  brelease : Ns.t; (* combining-tree barrier: nodes the current release
                      wave still has to reach (empty under centralized
                      sync) *)
}

type view = {
  dir : dirent Imap.t; (* block base -> directory entry *)
  nodes : nview Imap.t;
  rest : rest;
}

(* Release: the paper's RC protocol (non-stalling stores, releases wait
   for acks).  Sequential: stores and batch misses stall until
   ownership and every invalidation ack arrive (Section 4.3). *)
type consistency = Release | Sequential

(* Round_robin is the paper's default (Section 2.1); the runtime
   installs First_touch homes through [I_set_home]; Migrate moves a
   page's directory home to a persistently remote requester. *)
type home_policy = Round_robin | First_touch | Migrate

type cfg = {
  nprocs : int; (* homes: (block / Granularity.page_bytes) mod nprocs *)
  consistency : consistency;
  dmode : Ns.mode; (* directory organization for sharer sets *)
  scalable_sync : bool; (* MCS-style queue locks + combining-tree
                           barrier instead of centralized home sync *)
  home_policy : home_policy;
}

let default_cfg =
  { nprocs = 1; consistency = Release; dmode = Ns.Full;
    scalable_sync = false; home_policy = Round_robin }

let empty_nview =
  { lines = Imap.empty; pending = Imap.empty; acks = Imap.empty;
    waiters = Imap.empty; deferred = []; in_batch = false; nstat = N_running;
    resume = R_none; sync_signal = false }

let init (cfg : cfg) : view =
  let nodes = ref Imap.empty in
  for n = 0 to cfg.nprocs - 1 do
    nodes := Imap.add n empty_nview !nodes
  done;
  let e = Ns.exact_empty ~nprocs:cfg.nprocs in
  { dir = Imap.empty; nodes = !nodes;
    rest =
      { locks = Imap.empty; flags = Imap.empty; barrier_arrived = e;
        crashed = e; halted = e; homes = Imap.empty; heat = Imap.empty;
        brelease = e } }

(* ------------------------------------------------------------------ *)
(* Actions and inputs                                                   *)
(* ------------------------------------------------------------------ *)

(* Symbolic pipeline charges — the interpreter owns the cycle values. *)
type cost =
  | Request_issue
  | Message_handle
  | Sync_local
  | False_miss
  | Batch_record of int (* nranges *)

(* State-table / memory effects, applied by the interpreter via Tables
   (block length resolution lives there). *)
type memop =
  | M_make_exclusive of int
  | M_make_shared of int
  | M_make_invalid of int
  | M_make_pending of { block : int; shared : bool }
  | M_flag of { block : int; keep : int list }
    (* flag-fill the block's longwords, except [keep] — longwords the
       node stored while the request was pending must survive the
       stamping (Section 4.1), or its own loads of them (which the
       inline checks let through) would read the flag as data *)
  | M_merge of { block : int; written : (int * int) list }
    (* merge the triggering Data_reply's longwords into memory,
       overlaying the node's own pending stores *)
  | M_adopt of { block : int; from : int }
    (* crash recovery: copy the block's bytes out of dead node [from]'s
       (frozen) memory image into the acting node's memory.  A pure byte
       salvage — no line-state change; pair with M_make_* to claim. *)

type action =
  | A_charge of cost
  | A_emit of Ev.t
    (* one of the protocol's own events (misses, invalidations, sync,
       recovery, migration); the engine reports messages and stalls *)
  | A_send of { dst : int; msg : Message.t }
    (* Data_reply is sent with [data = [||]]: the interpreter reads the
       block out of node memory at apply time (no memory effect can
       intervene between the pure send point and the apply point). *)
  | A_local of Message.t (* same-node delivery (handled inside the core) *)
  | A_mem of memop
  | A_block of wait (* node blocks; record wait start *)
  | A_stall of wait (* wait satisfied; emit the stall, resume running *)
  | A_refill (* run the interpreter's stalled-load continuation *)
  | A_commit_store
    (* run the stalled store's memory write (non-scheduled checks: the
       store instruction itself only executes after the thread resumes) *)

type input =
  | I_msg of Message.t
  | I_load_miss of { addr : int; block : int }
  | I_store_miss of
      { addr : int; block : int; store_done : bool;
        stored : (int * int) list (* longword cover of the store's value *) }
  | I_batch_miss of
      { nranges : int; blocks : (int * bool) list (* block, need_excl *) }
  | I_batch_end of
      { values : (int * int * int) list; (* longword addr, block, value *)
        order : deferred list (* deduped, in application order *) }
  | I_lock of int
  | I_unlock of int
  | I_barrier
  | I_flag_set of int
  | I_flag_wait of int
  | I_alloc of { owner : int; blocks : int list }
  | I_set_home of { page : int; home : int }
    (* home-placement policy (first-touch): subsequent requests for
       the page's blocks are issued to [home] *)
  | I_node_crash of { victim : int; lost : (int * Message.t) list }
    (* [victim] was declared dead; [lost] are the frames purged off the
       wire (still queued to or from it) as [(dst, msg)] in send order.
       Stepped at a surviving coordinator node, which reconstructs the
       directory, reclaims the victim's locks, and re-dispatches or
       answers the lost frames on the victim's behalf. *)
  | I_node_recover of int
    (* the victim rejoins protocol duties (its program stays dead) *)

(* ------------------------------------------------------------------ *)
(* Step context                                                         *)
(* ------------------------------------------------------------------ *)

(* The stepping node's nine fields are loaded into the context once
   per step, and each update is one field write: no record copy, no
   closure, no map insert.  [v.nodes] keeps the entry they were loaded
   from ([loaded]) until [store_me] writes the node back, once, at the
   end of the step.  It builds one [nview] then, and only if some field
   is no longer physically the one it loaded: a step that leaves the
   node alone returns its entry, and the node map, unchanged.
   Only crash recovery reads or rewrites other nodes' entries, through
   [node_view_at] and [map_nodes], which see the current fields.

   Each action goes to [sink] the moment the core decides it; [step]'s
   sink is the [collect] marker, for which [act] conses onto [racc]
   instead of calling it, so neither entry allocates a closure.  The
   context is a node's [stepper]: built once, loaded at the start of
   each step, and given the idle view back at its end.  It keeps the
   node's fields, which the next load compares instead of rewriting:
   they are the node's own state as of its last step, never another
   node's or a whole past view. *)
type ctx = {
  cfg : cfg;
  node : int; (* the stepping node: all actions target it *)
  mutable v : view;
  mutable loaded : nview; (* the stepping node's entry in [v.nodes] *)
  mutable me_lines : line Imap.t;
  mutable me_pending : pend Imap.t;
  mutable me_acks : ackst Imap.t;
  mutable me_waiters : Message.t list Imap.t;
  mutable me_deferred : deferred list;
  mutable me_in_batch : bool;
  mutable me_nstat : nstatus;
  mutable me_resume : resume;
  mutable me_sync_signal : bool;
  sink : action -> unit;
  mutable racc : action list; (* [collect]'s actions, newest first *)
}

let collect (_ : action) = ()

let act c a = if c.sink == collect then c.racc <- a :: c.racc else c.sink a

(* Load [n] as the stepping node's entry and current fields.  A field
   that already holds [n]'s value is not written again: a pointer write
   into the long-lived context pays a write barrier, and a node's
   fields are usually still the ones its last step left. *)
let load_me c (n : nview) =
  c.loaded <- n;
  if c.me_lines != n.lines then c.me_lines <- n.lines;
  if c.me_pending != n.pending then c.me_pending <- n.pending;
  if c.me_acks != n.acks then c.me_acks <- n.acks;
  if c.me_waiters != n.waiters then c.me_waiters <- n.waiters;
  if c.me_deferred != n.deferred then c.me_deferred <- n.deferred;
  c.me_in_batch <- n.in_batch;
  if c.me_nstat != n.nstat then c.me_nstat <- n.nstat;
  if c.me_resume != n.resume then c.me_resume <- n.resume;
  c.me_sync_signal <- n.sync_signal

(* The stepping node's view as of now: its loaded entry itself while
   every field is physically the one loaded. *)
let me c =
  let n = c.loaded in
  if
    c.me_lines == n.lines && c.me_pending == n.pending && c.me_acks == n.acks
    && c.me_waiters == n.waiters && c.me_deferred == n.deferred
    && c.me_in_batch == n.in_batch && c.me_nstat == n.nstat
    && c.me_resume == n.resume && c.me_sync_signal == n.sync_signal
  then n
  else
    { lines = c.me_lines; pending = c.me_pending; acks = c.me_acks;
      waiters = c.me_waiters; deferred = c.me_deferred;
      in_batch = c.me_in_batch; nstat = c.me_nstat; resume = c.me_resume;
      sync_signal = c.me_sync_signal }

let store_me c =
  let n = me c in
  if n != c.loaded then begin
    c.v <- { c.v with nodes = Imap.add c.node n c.v.nodes };
    c.loaded <- n
  end

(* Any node's view as of now: the current fields for the stepping
   node. *)
let node_view_at c n = if n = c.node then me c else Imap.find n c.v.nodes

(* Rewrite every node's entry with [f], the stepping node's included. *)
let map_nodes c f =
  store_me c;
  c.v <- { c.v with nodes = Imap.mapi f c.v.nodes };
  load_me c (Imap.find c.node c.v.nodes)

let set_rest c r = c.v <- { c.v with rest = r }

(* A settled state only: a pending block's state is its [pending]
   entry's. *)
let set_line c block l = c.me_lines <- Imap.add block l c.me_lines

let home_of (cfg : cfg) block = block / Granularity.page_bytes mod cfg.nprocs

(* Effective home under placement policies: the homes override when one
   was installed (first-touch, migration), else the natural round-robin
   home.  Default runs carry an empty override map, so routing — and
   traces — are unchanged. *)
let eff_home (cfg : cfg) (v : view) block =
  if Imap.is_empty v.rest.homes then home_of cfg block
  else
    match Imap.find (block / Granularity.page_bytes) v.rest.homes with
    | h -> h
    | exception Not_found -> home_of cfg block

let dir_entry_exn c block =
  match Imap.find block c.v.dir with
  | e -> e
  | exception Not_found ->
    invalid_arg
      (Printf.sprintf "Directory.entry: unallocated block 0x%x" block)

let set_dir c block e = c.v <- { c.v with dir = Imap.add block e c.v.dir }

let is_sharer (e : dirent) node = Ns.mem e.sharers node

(* The state a pending block reads: an upgrade keeps its copy. *)
let pending_line (p : pend) =
  if p.pkind = P_upgrade then L_pending_shared else L_pending_invalid

(* The state of [block] at a node with these [pending] and [lines]
   maps.  The step and the invariants share it, and it allocates
   nothing. *)
let line_of pending lines block =
  match Imap.find block pending with
  | p -> pending_line p
  | exception Not_found -> (
    match Imap.find block lines with l -> l | exception Not_found -> L_invalid)

(* Emit a table/memory effect and mirror the resulting settled line
   state ([M_make_pending]'s state is the pending entry the caller
   adds). *)
let mem_op c (op : memop) =
  act c (A_mem op);
  match op with
  | M_make_exclusive b -> set_line c b L_exclusive
  | M_make_shared b -> set_line c b L_shared
  | M_make_invalid b -> set_line c b L_invalid
  | M_make_pending _ | M_flag _ | M_merge _ | M_adopt _ -> ()

let is_crashed (v : view) node = Ns.mem v.rest.crashed node

(* Effective home: the natural home, or — while it is down — its ring
   successor among the live nodes.  Identity whenever no node is
   crashed, so fault-free runs route (and trace) exactly as before. *)
let route (cfg : cfg) (v : view) h =
  if Ns.is_empty v.rest.crashed then h
  else begin
    let rec go k =
      let n = (h + k) mod cfg.nprocs in
      if is_crashed v n then go (k + 1) else n
    in
    go 0
  end

let rec none_pending pending = function
  | [] -> true
  | b :: bs -> (not (Imap.mem b pending)) && none_pending pending bs

(* A wait is satisfied at a node with these [pending], [acks] and
   [sync_signal]: the step and the invariants share it, and it
   allocates nothing. *)
let wait_sat pending acks sync_signal = function
  | W_blocks bs -> none_pending pending bs
  | W_release -> Imap.is_empty pending && Imap.is_empty acks
  | W_sync -> sync_signal

(* An owner defers a forwarded request while [block] has acks
   outstanding or a request pending, unless that request is an upgrade
   no invalidation has overtaken (the owner still holds the data). *)
let owner_busy acks pending block =
  Imap.mem block acks
  ||
  match Imap.find block pending with
  | p -> not (p.pkind = P_upgrade && not p.invalidated)
  | exception Not_found -> false

(* [ds] without its [D_inv block] entries; [ds] itself when it has
   none. *)
let rec without_inv block = function
  | [] -> []
  | D_inv b :: ds when b = block -> without_inv block ds
  | d :: ds as all ->
    let ds' = without_inv block ds in
    if ds' == ds then all else d :: ds'

(* A sharer set holding exactly one node, in the configured directory
   organization (the full-map default yields the historical [1 lsl n]). *)
let ns_singleton (cfg : cfg) node =
  Ns.singleton cfg.dmode ~nprocs:cfg.nprocs node

(* --- combining-tree barrier topology -------------------------------- *)

(* Static d-ary tree over node ids, rooted at 0: arrivals combine up the
   tree (each interior node forwards one trigger once its subtree is
   in), the root releases down it.  At P=32 the root handles [fanout]
   messages per episode instead of 31. *)
let tree_fanout = 4
let tree_parent n = (n - 1) / tree_fanout

let tree_children (cfg : cfg) n =
  let base = (tree_fanout * n) + 1 in
  let rec go i acc =
    if i < 0 then acc
    else
      let k = base + i in
      go (i - 1) (if k < cfg.nprocs then k :: acc else acc)
  in
  go (tree_fanout - 1) []

let arrived (r : rest) n = Ns.mem r.barrier_arrived n || Ns.mem r.halted n

(* Every node in [n]'s subtree has arrived or is excused as halted.
   [children_complete] walks the children [base + i], [i] below
   [tree_fanout], in [tree_children]'s order. *)
let rec subtree_complete nprocs (r : rest) n =
  arrived r n && children_complete nprocs r ((tree_fanout * n) + 1) 0

and children_complete nprocs r base i =
  i >= tree_fanout || base + i >= nprocs
  || subtree_complete nprocs r (base + i)
     && children_complete nprocs r base (i + 1)

(* [n]'s subtree still contains nodes the current release wave owes. *)
let rec subtree_has_release nprocs (r : rest) n =
  Ns.mem r.brelease n
  || children_have_release nprocs r ((tree_fanout * n) + 1) 0

and children_have_release nprocs r base i =
  i < tree_fanout && base + i < nprocs
  && (subtree_has_release nprocs r (base + i)
      || children_have_release nprocs r base (i + 1))

let rec all_arrived nprocs r n =
  n >= nprocs || (arrived r n && all_arrived nprocs r (n + 1))

(* The barrier completes when every node has arrived or halted.  The
   step and the invariants share it, and it allocates nothing. *)
let barrier_complete nprocs (r : rest) =
  (not (Ns.is_empty r.barrier_arrived)) && all_arrived nprocs r 0

(* Hot-page home migration (under [Migrate]): count consecutive
   remote requests for a page from the same node at its current home; a
   run of [migrate_threshold] moves the page's directory home to that
   requester.  In-flight requests to the old home still resolve there —
   every node can serve any page's directory, the home only names where
   requests are SENT — so migration is race-free. *)
let migrate_threshold = 8

let heat_bump c ~block ~requester =
  if c.cfg.home_policy = Migrate && requester <> c.node then begin
    let page = block / Granularity.page_bytes in
    let streak =
      match Imap.find_opt page c.v.rest.heat with
      | Some (last, k) when last = requester -> k + 1
      | _ -> 1
    in
    if streak >= migrate_threshold then begin
      act c (A_emit (Ev.Home_migrated { page; to_ = requester }));
      set_rest c
        { c.v.rest with
          homes = Imap.add page requester c.v.rest.homes;
          heat = Imap.remove page c.v.rest.heat }
    end
    else
      set_rest c
        { c.v.rest with heat = Imap.add page (requester, streak) c.v.rest.heat }
  end

(* ------------------------------------------------------------------ *)
(* Messaging, blocking, waking                                          *)
(* ------------------------------------------------------------------ *)

(* The mutually recursive protocol logic.  Function-for-function this is
   the old engine with every side effect replaced by an [act] and every
   continuation by a [resume].  Every step runs to completion: nothing
   is handed back to the interpreter mid-step. *)

let false_miss c addr =
  act c (A_emit (Ev.False_miss { addr }));
  act c (A_charge False_miss)

(* The line a miss finds.  Memory outside the directory is never shared:
   its state-table bytes read exclusive (the tables start out zeroed, and
   private regions are marked exclusive), so a miss there is a false
   one. *)
let miss_line c block =
  match Imap.find block c.me_pending with
  | p -> pending_line p
  | exception Not_found -> (
    match Imap.find block c.me_lines with
    | l -> l
    | exception Not_found ->
      if Imap.mem block c.v.dir then L_invalid else L_exclusive)

let add_written c block stored =
  match Imap.find block c.me_pending with
  | exception Not_found -> ()
  | p ->
    let written =
      List.fold_left (fun w (a, v) -> Imap.add a v w) p.written stored
    in
    c.me_pending <- Imap.add block { p with written } c.me_pending

let rec send c ~dst ~addr kind =
  let msg = { Message.src = c.node; addr; kind } in
  if is_crashed c.v dst then
    (* crash-stop: the frame would be purged at the dead node's door
       anyway; suppressing it here keeps replay exact *)
    ()
  else if dst = c.node then begin
    (* local delivery: handled immediately at local handler cost *)
    act c (A_charge Sync_local);
    act c (A_local msg);
    handle c msg
  end
  else act c (A_send { dst; msg })

and block_on c w r =
  if wait_sat c.me_pending c.me_acks c.me_sync_signal w then begin
    (match w with
     | W_sync -> c.me_sync_signal <- false
     | _ -> ());
    (* satisfied on entry: run the continuation with no stall event *)
    dispatch c r
  end
  else begin
    c.me_nstat <- N_waiting w;
    c.me_resume <- r;
    act c (A_block w)
  end

and check_wake c =
  match c.me_nstat with
  | N_running -> ()
  | N_waiting w ->
    if wait_sat c.me_pending c.me_acks c.me_sync_signal w then begin
      (match w with
       | W_sync -> c.me_sync_signal <- false
       | _ -> ());
      act c (A_stall w);
      let r = c.me_resume in
      c.me_nstat <- N_running;
      c.me_resume <- R_none;
      dispatch c r
    end

(* Run a resume: the satisfied wait's continuation. *)
and dispatch c = function
  | R_none | R_done -> ()
  | R_refill -> act c A_refill
  | R_store_retry { addr; block } ->
    (* a basic (non-scheduled) store check called the handler before the
       store ran: re-check the line, and once the handler returns with
       the node running, the store commits — before the rest of this
       step serves any queued request *)
    store_miss c ~addr ~block ~store_done:false ~stored:[];
    if c.me_nstat = N_running then act c A_commit_store
  | R_store_commit { then_release } ->
    act c A_commit_store;
    if then_release then block_on c W_release R_done
  | R_then_release -> block_on c W_release R_done
  | R_lock_acquired id -> act c (A_emit (Ev.Lock_acquired { id }))
  | R_unlock id ->
    if c.cfg.scalable_sync then begin
      (* MCS-style queue lock: the releaser reads the queue itself and
         hands the lock DIRECTLY to its successor — no round trip
         through the lock's home.  Contended handoff costs one message
         (vs unlock+grant), an uncontended release costs none. *)
      act c (A_charge Sync_local);
      home_unlock c ~id
    end
    else
      let h = route c.cfg c.v (id mod c.cfg.nprocs) in
      if h = c.node then begin
        act c (A_charge Sync_local);
        home_unlock c ~id
      end
      else send c ~dst:h ~addr:id (Message.Sync Unlock_msg)
  | R_barrier_enter ->
    if c.cfg.scalable_sync then begin
      (* combining-tree barrier: record the arrival in place, then
         combine triggers up the tree *)
      act c (A_charge Sync_local);
      block_on c W_sync R_barrier_passed;
      set_rest c
        { c.v.rest with
          barrier_arrived = Ns.add c.v.rest.barrier_arrived c.node };
      tree_barrier_check c
    end
    else
      let bh = route c.cfg c.v 0 in
      if c.node = bh then begin
        act c (A_charge Sync_local);
        block_on c W_sync R_barrier_passed;
        home_barrier_arrive c ~who:c.node
      end
      else begin
        send c ~dst:bh ~addr:0 (Message.Sync Barrier_arrive);
        block_on c W_sync R_barrier_passed
      end
  | R_barrier_passed -> act c (A_emit Ev.Barrier_passed)
  | R_flag_set id ->
    act c (A_emit (Ev.Flag_raised { id }));
    let h = route c.cfg c.v (id mod c.cfg.nprocs) in
    if h = c.node then begin
      act c (A_charge Sync_local);
      home_flag_set c ~id
    end
    else send c ~dst:h ~addr:id (Message.Sync Flag_set_msg)
  | R_flag_woken id -> act c (A_emit (Ev.Flag_woken { id }))

(* ------------------------------------------------------------------ *)
(* Invalidation-ack bookkeeping                                         *)
(* ------------------------------------------------------------------ *)

and finish_acks c block =
  c.me_acks <- Imap.remove block c.me_acks;
  flush_waiters c block

and register_acks c block expected =
  match Imap.find block c.me_acks with
  | exception Not_found ->
    if expected > 0 then
      c.me_acks <-
        Imap.add block { got = 0; expected = Some expected } c.me_acks
    else flush_waiters c block
  | a ->
    c.me_acks <- Imap.add block { a with expected = Some expected } c.me_acks;
    if a.got >= expected then finish_acks c block

and recv_inv_ack c block =
  if
    Ns.mem c.v.rest.halted c.node
    && (not (Imap.mem block c.me_acks))
    && not (Imap.mem block c.me_pending)
  then
    (* a late ack for a request that died with this node's crash (an
       Inv between two live nodes still names the dead requester; see
       [complete_data_reply]).  A LIVE node may legitimately see acks
       before its reply registers the expected count, but then its
       request is still pending — a recovered node's is not, and a
       provisional entry here would stay unacked forever. *)
    ()
  else begin
  let a =
    match Imap.find block c.me_acks with
    | a -> { a with got = a.got + 1 }
    | exception Not_found -> { got = 1; expected = None }
  in
  c.me_acks <- Imap.add block a c.me_acks;
  match a.expected with
  | Some e when a.got >= e -> finish_acks c block
  | _ -> ()
  end

(* Service requests that were deferred while the block was pending or
   had outstanding acks. *)
and flush_waiters c block =
  if (not (Imap.mem block c.me_pending)) && not (Imap.mem block c.me_acks)
  then begin
    match Imap.find block c.me_waiters with
    | exception Not_found -> ()
    | msgs ->
      c.me_waiters <- Imap.remove block c.me_waiters;
      handle_all c msgs
  end

and handle_all c = function
  | [] -> ()
  | msg :: msgs -> handle c msg; handle_all c msgs

(* ------------------------------------------------------------------ *)
(* Request issue (requester side)                                       *)
(* ------------------------------------------------------------------ *)

(* [emit] runs after the issue charge, so a miss event reported through
   it is stamped after the request's cost. *)
and issue_request ?(emit = ignore) c block kind =
  act c (A_charge Request_issue);
  emit ();
  send c ~dst:(route c.cfg c.v (eff_home c.cfg c.v block)) ~addr:block kind

and start_pending c block pkind =
  c.me_pending <-
    Imap.add block
      { pkind; written = Imap.empty; invalidated = false }
      c.me_pending;
  mem_op c (M_make_pending { block; shared = pkind = P_upgrade })

(* ------------------------------------------------------------------ *)
(* Home-side handlers                                                   *)
(* ------------------------------------------------------------------ *)

and home_read c ~requester ~block =
  heat_bump c ~block ~requester;
  let e = dir_entry_exn c block in
  let h = c.node in
  (* membership in an inexact sharer superset does not prove the home's
     copy is valid: a broadcast overflow covers every node, the home
     included even after its copy was invalidated.  So only trust it
     when the set is exact; otherwise the owner path serves the
     authoritative copy *)
  let home_valid =
    requester <> h && (e.owner = h || (Ns.is_exact e.sharers && is_sharer e h))
  in
  set_dir c block { e with sharers = Ns.add e.sharers requester };
  if home_valid then
    (* home has a valid copy: serve it directly, going through the owner
       path so the home's own copy is downgraded — and deferred while it
       is pending or awaiting invalidation acks *)
    owner_fwd_read c ~requester ~block
  else
    send c ~dst:e.owner ~addr:block
      (Message.Coh (Fwd_read { requester }))

and home_readex c ~requester ~block =
  heat_bump c ~block ~requester;
  let e = dir_entry_exn c block in
  let h = c.node in
  let o = e.owner in
  if o = requester then begin
    (* requester already owns the block (held shared after a downgrade):
       grant exclusivity like an upgrade.  An inexact sharer superset
       can re-cover a crashed node (a broadcast overflow covers every
       node), so the fan-out filters the dead: a suppressed Inv must
       not be counted either, or the requester waits on a ghost ack *)
    set_dir c block { e with sharers = ns_singleton c.cfg requester };
    let acks = send_invs c ~block ~requester ~skip:requester e.sharers 0 0 in
    send c ~dst:requester ~addr:block (Message.Coh (Upgrade_ack { acks }))
  end
  else begin
    set_dir c block { owner = requester; sharers = ns_singleton c.cfg requester };
    let nacks = send_invs c ~block ~requester ~skip:o e.sharers 0 0 in
    if o = h then
      owner_fwd_readex c ~requester ~block ~acks:nacks
    else
      send c ~dst:o ~addr:block
        (Message.Coh (Fwd_readex { requester; acks = nacks }))
  end

and home_upgrade c ~requester ~block =
  let e = dir_entry_exn c block in
  (* an inexact superset cannot prove the requester's copy survived: a
     broadcast overflow covers every node, the requester included even
     after another node's read-exclusive invalidated its copy, and
     granting the upgrade would bless stale data (and leave two
     exclusive copies).  Supersets are only sound for Inv fan-out, so
     demand exact membership and otherwise convert to a read-exclusive,
     which refetches the data *)
  if Ns.is_exact e.sharers && is_sharer e requester then begin
    heat_bump c ~block ~requester;
    set_dir c block { owner = requester; sharers = ns_singleton c.cfg requester };
    let acks = send_invs c ~block ~requester ~skip:requester e.sharers 0 0 in
    send c ~dst:requester ~addr:block (Message.Coh (Upgrade_ack { acks }))
  end
  else
    (* an invalidation raced ahead of the upgrade: the requester's copy
       is gone, so convert to a read-exclusive (Section 2.1) *)
    home_readex c ~requester ~block

(* The invalidation fan-out: an [Inv] for [block] to each member of
   [sharers] from [s] on, in ascending order, but [requester], [skip]
   and crashed nodes (an inexact superset can re-cover a dead node, and
   a suppressed [Inv] must not be counted, or the requester waits on a
   ghost ack).  Returns [k] plus the number sent. *)
and send_invs c ~block ~requester ~skip sharers s k =
  let s = Ns.next sharers s in
  if s < 0 then k
  else if s = requester || s = skip || is_crashed c.v s then
    send_invs c ~block ~requester ~skip sharers (s + 1) k
  else begin
    send c ~dst:s ~addr:block (Message.Coh (Inv { requester }));
    send_invs c ~block ~requester ~skip sharers (s + 1) (k + 1)
  end

(* ------------------------------------------------------------------ *)
(* Owner-side handlers                                                  *)
(* ------------------------------------------------------------------ *)

and enqueue_waiter c block msg =
  let q =
    match Imap.find block c.me_waiters with q -> q | exception Not_found -> []
  in
  c.me_waiters <- Imap.add block (q @ [ msg ]) c.me_waiters

and owner_fwd_read c ~requester ~block =
  if requester = c.node && Imap.mem block c.me_pending then
    (* post-crash only: recovery salvaged the dead owner's bytes into
       this node and named it owner while its own read request was still
       in flight to the home — the forward arriving back here IS the
       data grant, served from the salvaged copy (queueing it behind the
       pending entry would deadlock on itself) *)
    complete_data_reply c ~block ~exclusive:false ~acks:0
  else if owner_busy c.me_acks c.me_pending block then
    enqueue_waiter c block
      { Message.src = c.node; addr = block;
        kind = Coh (Fwd_read { requester }) }
  else begin
    act c (A_emit (Ev.Downgraded { addr = block; requester }));
    send c ~dst:requester ~addr:block
      (Message.Coh (Data_reply { data = [||]; exclusive = false; acks = 0 }));
    if c.me_in_batch then c.me_deferred <- D_downgrade block :: c.me_deferred
    else if not (Imap.mem block c.me_pending) then
      (* a pending upgrade keeps its pending-shared state bytes *)
      mem_op c (M_make_shared block)
  end

and owner_fwd_readex c ~requester ~block ~acks =
  if requester = c.node && Imap.mem block c.me_pending then
    (* see owner_fwd_read: self-forward after crash recovery *)
    complete_data_reply c ~block ~exclusive:true ~acks
  else if owner_busy c.me_acks c.me_pending block then
    enqueue_waiter c block
      { Message.src = c.node; addr = block;
        kind = Coh (Fwd_readex { requester; acks }) }
  else begin
    send c ~dst:requester ~addr:block
      (Message.Coh (Data_reply { data = [||]; exclusive = true; acks }));
    if c.me_in_batch then c.me_deferred <- D_inv block :: c.me_deferred
    else
      match Imap.find block c.me_pending with
      | p ->
        (* our own upgrade is in flight and will be converted by the
           home; treat this like an invalidation racing it *)
        c.me_pending <-
          Imap.add block { p with invalidated = true } c.me_pending;
        mem_op c
          (M_flag { block; keep = List.map fst (Imap.bindings p.written) })
      | exception Not_found -> mem_op c (M_make_invalid block)
  end

(* ------------------------------------------------------------------ *)
(* Requester-side completions                                           *)
(* ------------------------------------------------------------------ *)

and apply_inv c ~block ~requester =
  act c (A_emit (Ev.Invalidated { addr = block; requester }));
  send c ~dst:requester ~addr:block (Message.Coh Inv_ack);
  if c.me_in_batch then c.me_deferred <- D_inv block :: c.me_deferred
  else if line_of c.me_pending c.me_lines block = L_exclusive then
    (* stale invalidation: it targeted a sharer copy we have since
       replaced by exclusive ownership; nothing beyond the ack *)
    ()
  else
    match Imap.find block c.me_pending with
    | p ->
      c.me_pending <- Imap.add block { p with invalidated = true } c.me_pending;
      mem_op c
        (M_flag { block; keep = List.map fst (Imap.bindings p.written) })
    | exception Not_found -> mem_op c (M_make_invalid block)

and complete_data_reply c ~block ~exclusive ~acks =
  match Imap.find block c.me_pending with
  | exception Not_found when Ns.mem c.v.rest.halted c.node ->
    (* a reply to a request that died with this node's crash: the
       purge only covers frames to/from the victim, so a forward
       between two LIVE nodes naming it as requester can still produce
       a reply after it recovers.  Directory recovery already removed
       the dead request's promise, so dropping the reply is consistent;
       the recovered node's program is gone and nothing awaits it. *)
    ()
  | exception Not_found ->
    invalid_arg
      (Printf.sprintf "Engine: stray data reply at node %d block 0x%x"
         c.node block)
  | p ->
    mem_op c (M_merge { block; written = Imap.bindings p.written });
    c.me_pending <- Imap.remove block c.me_pending;
    mem_op c (if exclusive then M_make_exclusive block else M_make_shared block);
    if exclusive then
      (* any deferred invalidation of this block predates our ownership *)
      c.me_deferred <- without_inv block c.me_deferred;
    (* the node's own stalled access must consume the reply (the refill
       runs) BEFORE deferred forwarded requests are serviced *)
    check_wake c;
    if exclusive then register_acks c block acks
    else begin
      (* a late invalidation is applied only after the queued forwarded
         reads are served: their reads serialize before the invalidating
         write, and the reply data is read out of this node's memory at
         send time — flagging first would ship the flag pattern as data *)
      flush_waiters c block;
      if p.invalidated then mem_op c (M_make_invalid block)
    end;
    check_wake c

and complete_upgrade_ack c ~block ~acks =
  match Imap.mem block c.me_pending with
  | false when Ns.mem c.v.rest.halted c.node ->
    (* late ack to a request that died with this node's crash; see
       [complete_data_reply] *)
    ()
  | false ->
    invalid_arg
      (Printf.sprintf "Engine: stray upgrade ack at node %d block 0x%x"
         c.node block)
  | true ->
    c.me_pending <- Imap.remove block c.me_pending;
    mem_op c (M_make_exclusive block);
    check_wake c;
    register_acks c block acks;
    check_wake c

(* ------------------------------------------------------------------ *)
(* Synchronization (home side)                                          *)
(* ------------------------------------------------------------------ *)

and lock_of c id =
  match Imap.find id c.v.rest.locks with
  | l -> l
  | exception Not_found -> { holder = None; lq = [] }

and set_lock c id l =
  set_rest c { c.v.rest with locks = Imap.add id l c.v.rest.locks }

and flag_of c id =
  match Imap.find id c.v.rest.flags with
  | f -> f
  | exception Not_found -> { fset = false; fwaiters = [] }

and set_flag c id f =
  set_rest c { c.v.rest with flags = Imap.add id f c.v.rest.flags }

and grant_lock c ~to_ ~id =
  if to_ = c.node then begin
    c.me_sync_signal <- true;
    check_wake c
  end
  else send c ~dst:to_ ~addr:id (Message.Sync Lock_grant)

and home_lock_req c ~requester ~id =
  let l = lock_of c id in
  match l.holder with
  | None ->
    set_lock c id { l with holder = Some requester };
    grant_lock c ~to_:requester ~id
  | Some _ -> set_lock c id { l with lq = l.lq @ [ requester ] }

and home_unlock c ~id =
  let l = lock_of c id in
  match l.lq with
  | next :: rest ->
    set_lock c id { holder = Some next; lq = rest };
    grant_lock c ~to_:next ~id
  | [] -> set_lock c id { l with holder = None }

and home_barrier_arrive c ~who =
  set_rest c
    { c.v.rest with barrier_arrived = Ns.add c.v.rest.barrier_arrived who };
  barrier_maybe_release c

(* Release when every node has either arrived or halted: a crashed
   node's program never reaches the barrier, so its slot is excused
   ([halted] is monotone — recovered nodes stay excused too).  With no
   crashes the condition is exactly the old "all arrived" count. *)
and barrier_maybe_release c =
  if barrier_complete c.cfg.nprocs c.v.rest then begin
    let arrived = c.v.rest.barrier_arrived in
    set_rest c
      { c.v.rest with barrier_arrived = Ns.exact_empty ~nprocs:c.cfg.nprocs };
    for n = 0 to c.cfg.nprocs - 1 do
      if Ns.mem arrived n then
        if n = c.node then begin
          c.me_sync_signal <- true;
          check_wake c
        end
        else send c ~dst:n ~addr:0 (Message.Sync Barrier_release)
    done
  end

(* --- combining-tree barrier (cfg.scalable_sync) ---------------------

   Arrival bits live in the global view (the simulator's stand-in for
   each node's tree-node record); Barrier_arrive messages are pure
   TRIGGERS that model the combining traffic.  A node that arrives — or
   any node receiving a trigger — forwards one trigger to its nearest
   live ancestor whenever its own subtree is complete; triggers are
   forwarded unconditionally on completeness (no dedup state), so the
   LAST arrival's trigger chain always climbs to the root.  The root
   duty holder (node 0, or its ring successor while 0 is down) checks
   GLOBAL completion and fans the release down the tree, skipping dead
   interiors by recursing into their children. *)

and tree_root_duty c = route c.cfg c.v 0

(* Nearest live proper ancestor of [n]; the structural root's duties
   fall to its route target. *)
and live_ancestor c n =
  let rec go n =
    if n = 0 then tree_root_duty c
    else
      let p = tree_parent n in
      if p = 0 then tree_root_duty c
      else if is_crashed c.v p then go p
      else p
  in
  go n

and tree_barrier_check c =
  let m = c.node in
  if m = tree_root_duty c then tree_maybe_release c
  else if subtree_complete c.cfg.nprocs c.v.rest m then begin
    let p = live_ancestor c m in
    if p = m then tree_maybe_release c
    else send c ~dst:p ~addr:0 (Message.Sync Barrier_arrive)
  end

and tree_maybe_release c =
  if barrier_complete c.cfg.nprocs c.v.rest then begin
    let arrived = c.v.rest.barrier_arrived in
    set_rest c
      { c.v.rest with
        barrier_arrived = Ns.exact_empty ~nprocs:c.cfg.nprocs;
        brelease = arrived };
    tree_release_fan c 0
  end

(* Deliver the release wave into [n]'s structural subtree if it still
   holds owed nodes: to [n] itself when live, else recursively to its
   children's subtrees. *)
and tree_release_fan c n =
  if subtree_has_release c.cfg.nprocs c.v.rest n then begin
    if is_crashed c.v n then
      List.iter (tree_release_fan c) (tree_children c.cfg n)
    else if n = c.node then tree_release_self c
    else send c ~dst:n ~addr:0 (Message.Sync Barrier_release)
  end

(* The stepping node consumes its own release (if owed) and forwards
   the wave into its child subtrees. *)
and tree_release_self c =
  if Ns.mem c.v.rest.brelease c.node then begin
    set_rest c { c.v.rest with brelease = Ns.remove c.v.rest.brelease c.node };
    c.me_sync_signal <- true
  end;
  List.iter (tree_release_fan c) (tree_children c.cfg c.node);
  check_wake c

and wake_flag_waiter c ~to_ ~id =
  if to_ = c.node then begin
    c.me_sync_signal <- true;
    check_wake c
  end
  else send c ~dst:to_ ~addr:id (Message.Sync Flag_wake)

and home_flag_set c ~id =
  let f = flag_of c id in
  set_flag c id { fset = true; fwaiters = [] };
  List.iter (fun w -> wake_flag_waiter c ~to_:w ~id) f.fwaiters

and home_flag_wait c ~requester ~id =
  let f = flag_of c id in
  if f.fset then wake_flag_waiter c ~to_:requester ~id
  else set_flag c id { f with fwaiters = f.fwaiters @ [ requester ] }

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                     *)
(* ------------------------------------------------------------------ *)

and handle c (msg : Message.t) =
  act c (A_charge Message_handle);
  let block = msg.addr in
  match msg.kind with
  | Coh Read_req ->
    home_read c ~requester:msg.src ~block;
    check_wake c
  | Coh Readex_req ->
    home_readex c ~requester:msg.src ~block;
    check_wake c
  | Coh Upgrade_req ->
    home_upgrade c ~requester:msg.src ~block;
    check_wake c
  | Coh (Fwd_read { requester }) ->
    owner_fwd_read c ~requester ~block;
    check_wake c
  | Coh (Fwd_readex { requester; acks }) ->
    owner_fwd_readex c ~requester ~block ~acks;
    check_wake c
  | Coh (Data_reply { data = _; exclusive; acks }) ->
    complete_data_reply c ~block ~exclusive ~acks
  | Coh (Upgrade_ack { acks }) -> complete_upgrade_ack c ~block ~acks
  | Coh (Inv { requester }) ->
    apply_inv c ~block ~requester;
    check_wake c
  | Coh Inv_ack ->
    recv_inv_ack c block;
    check_wake c
  | Sync Lock_req ->
    home_lock_req c ~requester:msg.src ~id:msg.addr;
    check_wake c
  | Sync Lock_grant ->
    c.me_sync_signal <- true;
    check_wake c
  | Sync Unlock_msg ->
    home_unlock c ~id:msg.addr;
    check_wake c
  | Sync Barrier_arrive ->
    (* centralized: the home records [src]'s arrival.  Tree mode:
       arrivals are already recorded globally — the message is a
       combining trigger, re-evaluated at this tree node *)
    if c.cfg.scalable_sync then tree_barrier_check c
    else home_barrier_arrive c ~who:msg.src;
    check_wake c
  | Sync Barrier_release ->
    (if c.cfg.scalable_sync then tree_release_self c
     else c.me_sync_signal <- true);
    check_wake c
  | Sync Flag_set_msg ->
    home_flag_set c ~id:msg.addr;
    check_wake c
  | Sync Flag_wait_req ->
    home_flag_wait c ~requester:msg.src ~id:msg.addr;
    check_wake c
  | Sync Flag_wake ->
    c.me_sync_signal <- true;
    check_wake c

(* ------------------------------------------------------------------ *)
(* Inline miss handlers (step entry points)                             *)
(* ------------------------------------------------------------------ *)

(* Store miss.  With [store_done] (the scheduled check of Section 3.1)
   the store has already written memory and [stored] is its longword
   cover; without it the store runs after the handler returns, so the
   handler stalls until the line is exclusive. *)
and store_miss c ~addr ~block ~store_done ~stored =
  match miss_line c block with
  | L_exclusive ->
    (* resolved by a drained message or by the wake of a retry, or
       memory outside the directory: false miss *)
    false_miss c addr
  | L_pending_invalid | L_pending_shared ->
    if store_done then add_written c block stored
    else block_on c (W_blocks [ block ]) (R_store_retry { addr; block })
  | (L_shared | L_invalid) as st ->
    (if st = L_shared then begin
       act c (A_emit (Ev.Miss { kind = Ev.Upgrade; addr }));
       start_pending c block P_upgrade;
       if store_done then add_written c block stored;
       issue_request c block (Message.Coh Upgrade_req)
     end
     else begin
       act c (A_emit (Ev.Miss { kind = Ev.Write; addr }));
       start_pending c block P_readex;
       if store_done then add_written c block stored;
       issue_request c block (Message.Coh Readex_req)
     end);
    if c.cfg.consistency = Sequential then
      (* sequential consistency: the store completes — ownership AND all
         invalidation acknowledgements — before execution continues *)
      block_on c (W_blocks [ block ])
        (if store_done then R_then_release
         else R_store_commit { then_release = true })
    else if not store_done then
      block_on c (W_blocks [ block ]) (R_store_commit { then_release = false })

let load_miss c ~addr ~block =
  match miss_line c block with
  | L_exclusive | L_shared ->
    false_miss c addr;
    act c A_refill
  | L_pending_shared ->
    (* pending-shared loads proceed — the node has a copy — unless an
       invalidation overtook the upgrade and flagged this longword *)
    (match Imap.find block c.me_pending with
     | p when p.invalidated && not (Imap.mem (addr land lnot 3) p.written) ->
       block_on c (W_blocks [ block ]) R_refill
     | _ | (exception Not_found) ->
       false_miss c addr;
       act c A_refill)
  | L_pending_invalid ->
    (match Imap.find block c.me_pending with
     | p when (not p.invalidated) && Imap.mem (addr land lnot 3) p.written ->
       (* load from a longword this node itself stored while pending:
          valid section of the line (Section 4.1) *)
       act c A_refill
     | _ | (exception Not_found) -> block_on c (W_blocks [ block ]) R_refill)
  | L_invalid ->
    act c (A_emit (Ev.Miss { kind = Ev.Read; addr }));
    start_pending c block P_read;
    issue_request c block (Message.Coh Read_req);
    block_on c (W_blocks [ block ]) R_refill

(* Batch miss (Section 4.3): [blocks] carries (block, need_excl) in the
   engine's historical per-block iteration order.  Each block's requests
   touch only that block's line, so reading it as the loop reaches it
   sees the state at entry. *)
let batch_miss c ~nranges ~blocks =
  act c (A_charge (Batch_record nranges));
  c.me_in_batch <- true;
  let waits = ref [] in
  List.iter
    (fun (block, need_excl) ->
      let st = miss_line c block in
      let pending_invalidated =
        match Imap.find_opt block c.me_pending with
        | Some p -> p.invalidated
        | None -> false
      in
      if need_excl then begin
        match st with
        | L_exclusive -> ()
        | L_pending_invalid -> waits := block :: !waits
        | L_pending_shared ->
          if pending_invalidated then waits := block :: !waits
        | L_shared ->
          act c (A_emit (Ev.Miss { kind = Ev.Upgrade; addr = block }));
          start_pending c block P_upgrade;
          issue_request c block (Message.Coh Upgrade_req)
        | L_invalid ->
          act c (A_emit (Ev.Miss { kind = Ev.Write; addr = block }));
          start_pending c block P_readex;
          issue_request c block (Message.Coh Readex_req);
          waits := block :: !waits
      end
      else begin
        match st with
        | L_exclusive | L_shared -> ()
        | L_pending_shared ->
          if pending_invalidated then waits := block :: !waits
        | L_pending_invalid -> waits := block :: !waits
        | L_invalid ->
          act c (A_emit (Ev.Miss { kind = Ev.Read; addr = block }));
          start_pending c block P_read;
          issue_request c block (Message.Coh Read_req);
          waits := block :: !waits
      end)
    blocks;
  act c (A_emit (Ev.Batch_run { nranges; waited = List.length !waits }));
  if c.cfg.consistency = Sequential then begin
    (* Section 4.3: under SC the handler waits for ALL requests,
       including exclusive ones and their acknowledgements *)
    let all = List.rev_map fst blocks in
    block_on c (W_blocks all) R_then_release
  end
  else if !waits <> [] then block_on c (W_blocks !waits) R_done

(* Deferred invalidations/downgrades at Batch_end (Section 4.3).
   [order] is the deduped application order; [values] the longword
   values of the batch's stores (addr, owning block, value). *)
let apply_deferred c ~order ~values =
  c.me_deferred <- [];
  let written_for block =
    List.fold_left
      (fun m (a, b, v) -> if b = block then Imap.add a v m else m)
      Imap.empty values
  in
  List.iter
    (fun d ->
      match d with
      | D_inv block ->
        let written = written_for block in
        (match Imap.find_opt block c.me_pending with
         | Some p ->
           (* a request is already outstanding: fold the invalidation
              into it rather than issuing a duplicate *)
           let w = Imap.union (fun _ _ v -> Some v) p.written written in
           c.me_pending <-
             Imap.add block
               { p with written = w; invalidated = true }
               c.me_pending;
           mem_op c (M_flag { block; keep = List.map fst (Imap.bindings w) })
         | None ->
           if not (Imap.is_empty written) then begin
             (* the batch stored into a block invalidated under it: keep
                the stored longwords, reissue the store miss *)
             act c (A_emit (Ev.Store_reissue { addr = block }));
             mem_op c
               (M_flag
                  { block; keep = List.map fst (Imap.bindings written) });
             start_pending c block P_readex;
             add_written c block (Imap.bindings written);
             issue_request c block (Message.Coh Readex_req) ~emit:(fun () ->
               act c (A_emit (Ev.Miss { kind = Ev.Write; addr = block })))
           end
           else mem_op c (M_make_invalid block))
      | D_downgrade block ->
        let written = written_for block in
        if Imap.mem block c.me_pending then
          (* an outstanding request already covers this block *)
          ()
        else if not (Imap.is_empty written) then begin
          act c (A_emit (Ev.Store_reissue { addr = block }));
          start_pending c block P_upgrade;
          add_written c block (Imap.bindings written);
          issue_request c block (Message.Coh Upgrade_req) ~emit:(fun () ->
            act c (A_emit (Ev.Miss { kind = Ev.Upgrade; addr = block })))
        end
        else mem_op c (M_make_shared block))
    order

let batch_end c ~values ~order =
  if c.me_in_batch then begin
    (* transfer batched store longwords into still-pending blocks *)
    List.iter
      (fun (a, block, v) ->
        match Imap.find_opt block c.me_pending with
        | Some p ->
          c.me_pending <-
            Imap.add block
              { p with written = Imap.add a v p.written }
              c.me_pending
        | None -> ())
      values;
    c.me_in_batch <- false;
    apply_deferred c ~order ~values
  end

(* ------------------------------------------------------------------ *)
(* Synchronization entry points                                         *)
(* ------------------------------------------------------------------ *)

let rt_lock c id =
  let h = route c.cfg c.v (id mod c.cfg.nprocs) in
  if h = c.node then begin
    act c (A_charge Sync_local);
    let l = lock_of c id in
    match l.holder with
    | None ->
      set_lock c id { l with holder = Some c.node };
      act c (A_emit (Ev.Lock_acquired { id }))
    | Some _ ->
      set_lock c id { l with lq = l.lq @ [ c.node ] };
      block_on c W_sync (R_lock_acquired id)
  end
  else begin
    send c ~dst:h ~addr:id (Message.Sync Lock_req);
    block_on c W_sync (R_lock_acquired id)
  end

let rt_flag_wait c id =
  let h = route c.cfg c.v (id mod c.cfg.nprocs) in
  if h = c.node then begin
    act c (A_charge Sync_local);
    let f = flag_of c id in
    if not f.fset then begin
      set_flag c id { f with fwaiters = f.fwaiters @ [ c.node ] };
      block_on c W_sync (R_flag_woken id)
    end
    else act c (A_emit (Ev.Flag_woken { id }))
  end
  else begin
    send c ~dst:h ~addr:id (Message.Sync Flag_wait_req);
    block_on c W_sync (R_flag_woken id)
  end

let alloc c ~owner ~blocks =
  let sharers = ns_singleton c.cfg owner in
  List.iter
    (fun block ->
      c.v <- { c.v with dir = Imap.add block { owner; sharers } c.v.dir };
      set_line c block L_exclusive)
    blocks

let set_home c ~page ~home =
  set_rest c { c.v.rest with homes = Imap.add page home c.v.rest.homes }

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                       *)
(* ------------------------------------------------------------------ *)

(* All recovery logic runs inside ONE coordinator step (the lowest live
   node), fed by the engine/model-checker with the frames it purged off
   the wire.  The crash model is crash-stop with a salvageable memory
   image: the victim's volatile protocol state (pending requests, ack
   counts, queued service work) is gone, but its memory bytes are frozen
   at the crash point and can be copied out ([M_adopt]) — the software
   analogue of recovering a node's pages over RDMA from NVM.

   Why no extra bookkeeping is needed for the victim's ack debts: the
   interconnect is per-channel FIFO and the purge returns EVERY frame
   still queued to or from the victim.  An invalidation the victim never
   acked is therefore either still on the wire to it (we ack on its
   behalf), or its ack is on the wire back (we re-send it) — there is no
   third state.  Likewise a Data_reply captured on the wire carries its
   data bytes, so re-sending it verbatim loses nothing. *)

(* Salvage the victim's frozen bytes for [block] into this node's
   memory.  If this node has a pending miss of its own with written
   longwords (Shasta stores write in place before the miss resolves —
   an upgrade never gets a data reply to merge them back from), the
   adopt must not clobber them: re-apply them over the adopted image. *)
let salvage_adopt c ~victim ~block =
  act c (A_mem (M_adopt { block; from = victim }));
  match Imap.find_opt block c.me_pending with
  | Some p when not (Imap.is_empty p.written) ->
    mem_op c (M_merge { block; written = Imap.bindings p.written })
  | _ -> ()

let redispatch c ~victim ((dst : int), (msg : Message.t)) =
  let live n = not (is_crashed c.v n) in
  let block = msg.addr in
  let reply_from_salvage ~requester ~exclusive ~acks =
    if live requester then begin
      salvage_adopt c ~victim ~block;
      send c ~dst:requester ~addr:block
        (Message.Coh (Data_reply { data = [||]; exclusive; acks }));
      (* the adopt staged the victim's bytes here only so the reply
         could carry them; if this node holds no copy of its own,
         re-flag the line so the salvage buffer is not mistaken for
         coherent data *)
      if line_of c.me_pending c.me_lines block = L_invalid then
        mem_op c (M_make_invalid block)
    end
  in
  let resend ~dst (msg : Message.t) =
    (* forward a purged frame unchanged (its origin may be the victim:
       receivers never key on [src] for these kinds) *)
    if live dst then act c (A_send { dst; msg })
  in
  if msg.src = victim && dst = victim then ()
  else if dst = victim then begin
    (* a frame the dead node will never receive: requests addressed to
       it as home run at the coordinator (which now routes for it);
       forwards to it as owner are answered from its salvaged memory;
       replies and wakeups meant for it evaporate with it *)
    if live msg.src then
      match msg.kind with
      | Coh Read_req -> home_read c ~requester:msg.src ~block
      | Coh Readex_req -> home_readex c ~requester:msg.src ~block
      | Coh Upgrade_req -> home_upgrade c ~requester:msg.src ~block
      | Coh (Fwd_read { requester }) ->
        reply_from_salvage ~requester ~exclusive:false ~acks:0
      | Coh (Fwd_readex { requester; acks }) ->
        reply_from_salvage ~requester ~exclusive:true ~acks
      | Coh (Inv { requester }) ->
        (* the victim's sharer copy died with it; ack on its behalf so
           the requester's count closes *)
        if live requester then
          send c ~dst:requester ~addr:block (Message.Coh Inv_ack)
      | Coh (Data_reply _) | Coh (Upgrade_ack _) | Coh Inv_ack -> ()
      | Sync Lock_req -> home_lock_req c ~requester:msg.src ~id:msg.addr
      | Sync Unlock_msg -> home_unlock c ~id:msg.addr
      | Sync Flag_set_msg -> home_flag_set c ~id:msg.addr
      | Sync Flag_wait_req -> home_flag_wait c ~requester:msg.src ~id:msg.addr
      | Sync Barrier_arrive ->
        (* tree mode: arrivals are global bits, the lost trigger is
           re-derived by the coordinator's completion recheck *)
        if not c.cfg.scalable_sync then home_barrier_arrive c ~who:msg.src
      | Sync Barrier_release ->
        (* tree mode: the victim would have forwarded the wave into its
           subtree — do it on its behalf *)
        if c.cfg.scalable_sync then
          List.iter (tree_release_fan c) (tree_children c.cfg victim)
      | Sync Lock_grant | Sync Flag_wake -> ()
  end
  else begin
    (* a frame the dead node sent but that never arrived: completed
       protocol obligations (replies, acks, grants, forwards it issued
       as home) are re-driven; its own unfinished requests die with it *)
    match msg.kind with
    | Coh (Data_reply { data; exclusive; acks }) ->
      (* a captured reply carries its own bytes — re-send it verbatim.
         Re-serving from the victim's frozen image is wrong here: if
         the victim was itself a coordinator that salvaged these bytes
         for an earlier crash, it re-flagged its staging buffer after
         sending, so under back-to-back crashes its image holds the
         flag marker while the data survives only in this frame.
         Salvage remains the fallback for a reply whose payload was
         never filled in. *)
      if Array.length data > 0 then resend ~dst msg
      else reply_from_salvage ~requester:dst ~exclusive ~acks
    | Coh (Upgrade_ack _) | Coh Inv_ack -> resend ~dst msg
    | Coh (Inv { requester }) -> if live requester then resend ~dst msg
    | Coh (Fwd_read { requester }) | Coh (Fwd_readex { requester; _ }) ->
      if live requester then resend ~dst msg
    | Sync Lock_grant | Sync Flag_wake | Sync Barrier_release ->
      resend ~dst msg
    | Coh Read_req | Coh Readex_req | Coh Upgrade_req
    | Sync Lock_req | Sync Unlock_msg | Sync Flag_set_msg
    | Sync Flag_wait_req | Sync Barrier_arrive -> ()
  end

let recover_directory c ~victim ~served =
  Imap.iter
    (fun block (e : dirent) ->
      (* exact removal works in every directory mode: inexact sets
         carry an explicit exclusion list *)
      let sharers = Ns.remove e.sharers victim in
      (* requesters the re-dispatch pass will definitely answer with
         data salvaged from the victim (purged forwards addressed to it,
         replies it had already sent, forwards parked in its service
         queue) — the only nodes recovery may promise data to — and the
         targets of its purged invalidations, whose copies stay valid *)
      let svd =
        List.filter_map
          (fun (b, n) ->
            if b = block && not (is_crashed c.v n) then Some n else None)
          served
        |> List.sort_uniq compare
      in
      if e.owner = victim then begin
        act c (A_emit (Ev.Dir_rebuild { block; from = victim }));
        (* nodes about to receive salvaged data hold valid copies the
           rebuilt entry must cover (a no-op for exact sets, which
           already contain them) *)
        let sharers = List.fold_left Ns.add sharers svd in
        (* prefer a surviving sharer that still holds a valid copy.
           Under an inexact set this scans the superset, but the
           line-state test keeps the choice sound. *)
        let candidate =
          let rec go n =
            if n >= c.cfg.nprocs then None
            else if
              Ns.mem sharers n
              && not (is_crashed c.v n)
              &&
              match
                let n = node_view_at c n in
                line_of n.pending n.lines block
              with
              | L_shared | L_exclusive -> true
              | _ -> false
            then Some n
            else go (n + 1)
          in
          go 0
        in
        match candidate with
        | Some n -> set_dir c block { owner = n; sharers }
        | None ->
          (* no live copy: salvage the victim's bytes here.  If a live
             sharer's request is still pending its re-dispatched reply
             resolves it; naming the lowest pending sharer owner keeps
             the entry well-formed without claiming a copy we'd then
             have to invalidate.  An exact pending sharer is always
             re-served (its forward or reply necessarily involved the
             victim), but an inexact superset also covers nodes whose
             request never reached the home — promising those data
             would leave them to complete against bytes that never
             arrive, so inexact modes may only name a node the
             re-dispatch provably serves. *)
          salvage_adopt c ~victim ~block;
          let pending_sharer =
            if Ns.is_exact sharers then
              let rec go n =
                if n >= c.cfg.nprocs then None
                else if Ns.mem sharers n && not (is_crashed c.v n) then
                  Some n
                else go (n + 1)
              in
              go 0
            else
              match svd with n :: _ -> Some n | [] -> None
          in
          (match pending_sharer with
           | Some n ->
             set_dir c block { owner = n; sharers };
             (* the adopted bytes were staging only — the pending
                sharer's data arrives via its re-dispatched reply *)
             if line_of c.me_pending c.me_lines block = L_invalid then
               mem_op c (M_make_invalid block)
           | None ->
             let cset = ns_singleton c.cfg c.node in
             if Imap.mem block c.me_pending then
               (* our own request is in flight: the re-dispatched (or
                  self-forwarded) reply completes it against this entry *)
               set_dir c block { owner = c.node; sharers = cset }
             else begin
               mem_op c (M_make_exclusive block);
               set_dir c block { owner = c.node; sharers = cset }
             end)
      end
      else if sharers <> e.sharers then begin
        act c (A_emit (Ev.Dir_rebuild { block; from = victim }));
        set_dir c block { e with sharers }
      end)
    c.v.dir

let recover_locks c ~victim =
  Imap.iter
    (fun id (l : lockst) ->
      let lq = List.filter (fun n -> n <> victim) l.lq in
      match l.holder with
      | Some h when h = victim -> begin
        (* lease takeover: the dead holder never unlocks; grant the
           next waiter so the queue makes progress *)
        act c (A_emit (Ev.Lease_takeover { id; from = victim }));
        match lq with
        | next :: rest ->
          set_lock c id { holder = Some next; lq = rest };
          grant_lock c ~to_:next ~id
        | [] -> set_lock c id { holder = None; lq = [] }
      end
      | _ -> if lq <> l.lq then set_lock c id { l with lq })
    c.v.rest.locks

let recover_flags c ~victim =
  Imap.iter
    (fun id (f : flagst) ->
      let fw = List.filter (fun n -> n <> victim) f.fwaiters in
      if fw <> f.fwaiters then set_flag c id { f with fwaiters = fw })
    c.v.rest.flags

(* Forwarded requests parked in live nodes' service queues on behalf of
   a now-dead requester would be answered into the void; drop them. *)
let drop_dead_waiters c ~victim =
  let keep (m : Message.t) =
    match m.kind with
    | Coh (Fwd_read { requester }) | Coh (Fwd_readex { requester; _ }) ->
      requester <> victim
    | _ -> true
  in
  map_nodes c (fun id (n : nview) ->
    if id = victim || Imap.is_empty n.waiters then n
    else
      { n with
        waiters =
          Imap.filter_map
            (fun _ q ->
              match List.filter keep q with [] -> None | q -> Some q)
            n.waiters })

(* The coordinator is a live node other than the victim (both drivers
   pick the lowest such node), so the victim's entry is never [me]. *)
let node_crash c ~victim ~lost =
  assert (victim <> c.node);
  if not (Ns.mem c.v.rest.crashed victim) then begin
    let vv = node_view_at c victim in
    let r = c.v.rest in
    c.v <-
      { c.v with
        nodes = Imap.add victim empty_nview c.v.nodes;
        rest =
          { r with
            crashed = Ns.add r.crashed victim;
            halted = Ns.add r.halted victim;
            (* a victim that had already arrived at the barrier is
               excused via [halted], not counted as arrived — the masks
               must stay disjoint.  A victim still owed a tree release
               needs none. *)
            barrier_arrived = Ns.remove r.barrier_arrived victim;
            brelease = Ns.remove r.brelease victim } };
    (* (block, requester) pairs the re-dispatch below will answer with
       salvaged data: forwards to the victim as owner (on the wire or
       parked in its service queue) and data replies it had sent; and
       the targets of its own purged invalidations, whose copies stay
       valid *)
    let served =
      let of_frame acc ((dst : int), (m : Message.t)) =
        if dst = victim && m.src <> victim then
          match m.kind with
          | Message.Coh (Fwd_read { requester })
          | Message.Coh (Fwd_readex { requester; _ }) ->
            (m.addr, requester) :: acc
          | _ -> acc
        else if m.src = victim && dst <> victim then
          match m.kind with
          | Message.Coh (Data_reply _) -> (m.addr, dst) :: acc
          (* an invalidation the victim sent for its own request: the
             purge leaves [dst]'s copy valid, so the rebuilt entry must
             keep [dst] a sharer *)
          | Message.Coh (Inv { requester }) when requester = victim ->
            (m.addr, dst) :: acc
          | _ -> acc
        else acc
      in
      let acc =
        Imap.fold
          (fun _ q acc ->
            List.fold_left
              (fun acc (m : Message.t) ->
                (* parked under the victim's own [src]; see re-dispatch *)
                let m =
                  if m.src = victim then { m with src = c.node } else m
                in
                of_frame acc (victim, m))
              acc q)
          vv.waiters []
      in
      List.fold_left of_frame acc lost
    in
    recover_directory c ~victim ~served;
    recover_locks c ~victim;
    recover_flags c ~victim;
    drop_dead_waiters c ~victim;
    (* forwarded requests parked in the victim's own service queue are
       indistinguishable from forwards lost on the wire to it — except
       that [enqueue_waiter] parked them under the victim's own [src],
       which re-dispatch would mistake for a dead node's request and
       drop; re-attribute them to the coordinator *)
    Imap.iter
      (fun _ q ->
        List.iter
          (fun (m : Message.t) ->
            let m = if m.src = victim then { m with src = c.node } else m in
            redispatch c ~victim (victim, m))
          q)
      vv.waiters;
    List.iter (redispatch c ~victim) lost;
    (* the victim will never arrive at the barrier: its absence may be
       what the current episode was waiting on.  The coordinator holds
       the global view, so in tree mode it performs the root's
       completion recheck directly (this also re-derives any combining
       trigger that was lost with the victim). *)
    if c.cfg.scalable_sync then tree_maybe_release c
    else barrier_maybe_release c;
    check_wake c
  end

let node_recover c ~victim =
  set_rest c { c.v.rest with crashed = Ns.remove c.v.rest.crashed victim }

(* ------------------------------------------------------------------ *)
(* The transition function                                              *)
(* ------------------------------------------------------------------ *)

(* The view every stepper holds between steps, so that none keeps a
   past view alive. *)
let idle = init default_cfg

type stepper = ctx

let stepper cfg ~node sink =
  let n = empty_nview in
  { cfg; node; v = idle; loaded = n; me_lines = n.lines;
    me_pending = n.pending; me_acks = n.acks; me_waiters = n.waiters;
    me_deferred = n.deferred; me_in_batch = n.in_batch; me_nstat = n.nstat;
    me_resume = n.resume; me_sync_signal = n.sync_signal; sink; racc = [] }

(* One step: load the context, run the input to completion, write the
   stepping node back, and put the idle view back.  The node's fields
   stay for the next step's load to compare. *)
let step_with c v (input : input) =
  c.v <- v;
  load_me c (Imap.find c.node v.nodes);
  (match input with
   | I_msg msg -> handle c msg
   | I_load_miss { addr; block } -> load_miss c ~addr ~block
   | I_store_miss { addr; block; store_done; stored } ->
     store_miss c ~addr ~block ~store_done ~stored
   | I_batch_miss { nranges; blocks } -> batch_miss c ~nranges ~blocks
   | I_batch_end { values; order } -> batch_end c ~values ~order
   | I_lock id -> rt_lock c id
   | I_unlock id -> block_on c W_release (R_unlock id)
   | I_barrier -> block_on c W_release R_barrier_enter
   | I_flag_set id -> block_on c W_release (R_flag_set id)
   | I_flag_wait id -> rt_flag_wait c id
   | I_alloc { owner; blocks } -> alloc c ~owner ~blocks
   | I_set_home { page; home } -> set_home c ~page ~home
   | I_node_crash { victim; lost } -> node_crash c ~victim ~lost
   | I_node_recover victim -> node_recover c ~victim);
  store_me c;
  let v = c.v in
  c.v <- idle;
  v

let step cfg v ~node input =
  let c = stepper cfg ~node collect in
  let v = step_with c v input in
  (List.rev c.racc, v)

(* ------------------------------------------------------------------ *)
(* Accessors (engine, tests, model checker)                             *)
(* ------------------------------------------------------------------ *)

let node_view (v : view) ~node = Imap.find node v.nodes
let deferred_of v ~node = (node_view v ~node).deferred
let line_state v ~node ~block =
  let n = node_view v ~node in
  line_of n.pending n.lines block
let in_batch v ~node = (node_view v ~node).in_batch
let dir_entry v ~block = Imap.find_opt block v.dir
let dir_fold f v acc = Imap.fold (fun b e a -> f b e a) v.dir acc

(* Int-mask views of the crash sets, for callers that mirror them into
   program-visible cells; meaningful only for nodes below the int
   width (crash injection targets small configurations). *)
let crashed_mask (v : view) = Ns.to_mask v.rest.crashed
let halted_mask (v : view) = Ns.to_mask v.rest.halted
let is_live (v : view) ~node = not (is_crashed v node)
let home_for (cfg : cfg) (v : view) block = eff_home cfg v block

(* Lock ids currently held by [node], ascending.  Refinement checkers
   use this to decide when an injected deferred store may fire and
   which locks a crash must force-release in the spec machine. *)
let locks_held_by (v : view) ~node =
  Imap.fold
    (fun id (l : lockst) acc -> if l.holder = Some node then id :: acc else acc)
    v.rest.locks []
  |> List.sort compare

let sharer_count (e : dirent) = Ns.cardinal e.sharers

(* ------------------------------------------------------------------ *)
(* Invariants                                                           *)
(* ------------------------------------------------------------------ *)

(* The invariant walk's one accumulator: the violations so far, newest
   first, and the node and directory entry being walked.  Every walk is
   an [Imap.fold] over one of the top-level functions below, which
   thread it, and a message is formatted only in a failing branch: a
   passing check allocates this record and nothing else of its own. *)
type walk = {
  wcfg : cfg;
  wv : view;
  mutable errs : string list;
  mutable id : int; (* the node being walked *)
  mutable nv : nview; (* its view *)
  mutable blk : int; (* the directory entry being walked *)
  mutable ent : dirent;
}

let no_entry = { owner = -1; sharers = Ns.Bits 0 }

let err w fmt = Printf.ksprintf (fun s -> w.errs <- s :: w.errs) fmt

let dir_ok block (e : dirent) w =
  let procs = w.wcfg.nprocs in
  if e.owner < 0 || e.owner >= procs then
    err w "block 0x%x: owner %d out of range" block e.owner;
  if Ns.beyond e.sharers procs then
    err w "block 0x%x: sharer set %s beyond %d procs" block
      (Ns.to_string e.sharers) procs;
  if not (Ns.mem e.sharers e.owner) then
    err w "block 0x%x: owner %d missing from sharer set %s" block e.owner
      (Ns.to_string e.sharers);
  w

(* Single-writer: at most one node holds an exclusive copy of a block.
   A pending entry wins over the settled state [lines] still holds. *)
let holds_exclusive (n : nview) block =
  (match Imap.find block n.lines with
   | l -> l = L_exclusive
   | exception Not_found -> false)
  && not (Imap.mem block n.pending)

(* The lowest-numbered node in [k, id) that holds [block] exclusive, or
   -1: the first holder a walk in node order meets. *)
let rec exclusive_below nodes block k id =
  if k >= id then -1
  else
    match Imap.find k nodes with
    | n when holds_exclusive n block -> k
    | _ -> exclusive_below nodes block (k + 1) id
    | exception Not_found -> exclusive_below nodes block (k + 1) id

let line_ok block l w =
  if l = L_exclusive && not (Imap.mem block w.nv.pending) then begin
    let other = exclusive_below w.wv.nodes block 0 w.id in
    if other >= 0 then
      err w "block 0x%x: exclusive at both node %d and node %d" block other
        w.id;
    if not (Imap.mem block w.wv.dir) then
      err w "block 0x%x: exclusive at node %d but not in directory" block w.id
  end;
  (* a pending state lives only in the pending entry *)
  if l = L_pending_invalid || l = L_pending_shared then
    err w "node %d block 0x%x: pending state stored as a settled line" w.id
      block;
  w

let ack_ok block (a : ackst) w =
  if a.got < 0 then err w "node %d block 0x%x: negative acks" w.id block;
  (match a.expected with
   | Some e when a.got >= e ->
     err w "node %d block 0x%x: %d acks received, %d expected — entry \
            should have completed"
       w.id block a.got e
   | Some e when e <= 0 ->
     err w "node %d block 0x%x: nonpositive expected acks %d" w.id block e
   | _ -> ());
  w

(* deferred requests only wait on a genuinely busy block *)
let waiters_ok block msgs w =
  (match msgs with
   | [] -> err w "node %d block 0x%x: empty waiter queue entry" w.id block
   | _ ->
     if (not (Imap.mem block w.nv.pending)) && not (Imap.mem block w.nv.acks)
     then
       err w "node %d block 0x%x: %d deferred requests but block not busy"
         w.id block (List.length msgs));
  w

let node_ok id (n : nview) w =
  w.id <- id;
  w.nv <- n;
  let w = Imap.fold line_ok n.lines w in
  let w = Imap.fold ack_ok n.acks w in
  let w = Imap.fold waiters_ok n.waiters w in
  (* a waiting node's wait really is unsatisfied *)
  (match n.nstat with
   | N_waiting c when wait_sat n.pending n.acks n.sync_signal c ->
     err w "node %d: waiting on a satisfied condition" id
   | N_waiting _ when n.resume = R_none ->
     err w "node %d: waiting with no resume" id
   | _ -> ());
  w

(* exact sets must have been scrubbed by recovery; inexact supersets
   may re-cover a dead node (sends to it are suppressed), so only the
   exact claim is checkable *)
let crashed_dir_ok block (e : dirent) w =
  let crashed = w.wv.rest.crashed in
  if Ns.mem crashed e.owner then
    err w "block 0x%x: owner %d is crashed" block e.owner;
  if Ns.is_exact e.sharers && not (Ns.disjoint e.sharers crashed) then
    err w "block 0x%x: crashed nodes in sharer set %s" block
      (Ns.to_string e.sharers);
  w

let rec any_in ns = function [] -> false | x :: l -> Ns.mem ns x || any_in ns l
let rec has_dup = function [] -> false | x :: l -> List.mem x l || has_dup l

let lock_ok id (l : lockst) w =
  let crashed = w.wv.rest.crashed in
  (match l.holder with
   | Some h when h < 0 || h >= w.wcfg.nprocs ->
     err w "lock %d: holder %d out of range" id h
   | Some h when Ns.mem crashed h ->
     err w "lock %d: holder %d is crashed (missed takeover)" id h
   | None when l.lq <> [] ->
     err w "lock %d: free but %d queued requesters" id (List.length l.lq)
   | _ -> ());
  if any_in crashed l.lq then err w "lock %d: crashed node still queued" id;
  if has_dup l.lq then err w "lock %d: duplicate queued requester" id;
  w

let flag_ok id (f : flagst) w =
  if any_in w.wv.rest.crashed f.fwaiters then
    err w "flag %d: crashed node still waiting" id;
  w

let home_ok page h w =
  if h < 0 || h >= w.wcfg.nprocs then
    err w "page %d: home override %d out of range" page h;
  w

(* The walk behind [invariants], its violations newest first. *)
let walk_invariants (cfg : cfg) (v : view) =
  let w =
    { wcfg = cfg; wv = v; errs = []; id = 0; nv = empty_nview; blk = 0;
      ent = no_entry }
  in
  let r = v.rest and procs = cfg.nprocs in
  let w = Imap.fold dir_ok v.dir w in
  let w = Imap.fold node_ok v.nodes w in
  if Ns.beyond r.barrier_arrived procs then
    err w "barrier_arrived %s has members beyond %d procs"
      (Ns.to_string r.barrier_arrived) procs;
  if not (Ns.disjoint r.barrier_arrived r.halted) then
    err w "barrier_arrived %s includes halted nodes %s"
      (Ns.to_string r.barrier_arrived) (Ns.to_string r.halted);
  (* centralized sync releases atomically with the completing arrival;
     the combining tree releases when the trigger wave reaches the
     root, so the condition may transiently hold there *)
  if (not cfg.scalable_sync) && barrier_complete procs r then
    err w "barrier_arrived %s: release condition met but not released"
      (Ns.to_string r.barrier_arrived);
  if (not cfg.scalable_sync) && not (Ns.is_empty r.brelease) then
    err w "brelease %s nonempty under centralized sync"
      (Ns.to_string r.brelease);
  (* a node owed a release has not been woken, so it cannot have
     re-arrived; and crash strikes victims from the wave *)
  if not (Ns.disjoint r.brelease r.barrier_arrived) then
    err w "brelease %s overlaps barrier_arrived %s" (Ns.to_string r.brelease)
      (Ns.to_string r.barrier_arrived);
  if not (Ns.disjoint r.brelease r.crashed) then
    err w "brelease %s includes crashed nodes" (Ns.to_string r.brelease);
  (* crash-mask sanity: crashed ⊆ halted ⊆ procs, and no dead node may
     appear in post-recovery protocol state *)
  if Ns.beyond r.halted procs then
    err w "halted set %s has members beyond %d procs" (Ns.to_string r.halted)
      procs;
  if not (Ns.subset r.crashed r.halted) then
    err w "crashed set %s not contained in halted set %s"
      (Ns.to_string r.crashed) (Ns.to_string r.halted);
  let w =
    if Ns.is_empty r.crashed then w else Imap.fold crashed_dir_ok v.dir w
  in
  let w = Imap.fold lock_ok r.locks w in
  let w = Imap.fold flag_ok r.flags w in
  Imap.fold home_ok r.homes w

(* Properties that hold in EVERY reachable view, including mid-protocol
   (requests and invalidations in flight).  Returns human-readable
   violation strings; [] means the view is consistent. *)
let invariants (cfg : cfg) (v : view) : string list =
  List.rev (walk_invariants cfg v).errs

let quiescent_node_ok id (n : nview) w =
  if not (Imap.is_empty n.pending) then
    err w "node %d: %d pending blocks at quiescence" id
      (Imap.cardinal n.pending);
  if not (Imap.is_empty n.acks) then
    err w "node %d: %d unacked blocks at quiescence" id (Imap.cardinal n.acks);
  if not (Imap.is_empty n.waiters) then
    err w "node %d: deferred requests at quiescence" id;
  if n.in_batch then err w "node %d: still in a batch at quiescence" id;
  (match n.nstat with
   | N_waiting _ -> err w "node %d: still waiting at quiescence" id
   | N_running -> ());
  w

(* Inexact sharer sets are supersets by design: membership without a
   valid copy is the cost of the representation, but a valid copy
   OUTSIDE the set — or a wrong owner — is still a bug in every mode. *)
let agrees_ok id (n : nview) w =
  let block = w.blk and e = w.ent in
  let l = line_of n.pending n.lines block in
  let valid = l = L_shared || l = L_exclusive in
  if Ns.is_exact e.sharers && is_sharer e id && not valid then
    err w "block 0x%x: node %d in sharer set but line %s" block id
      (match l with
       | L_invalid -> "invalid"
       | L_pending_invalid -> "pending-invalid"
       | L_pending_shared -> "pending-shared"
       | _ -> "?");
  if valid && not (is_sharer e id) then
    err w "block 0x%x: node %d holds a valid copy but is not in the sharer \
           set"
      block id;
  if l = L_exclusive then begin
    if e.owner <> id then
      err w "block 0x%x: exclusive at node %d but directory owner is %d" block
        id e.owner;
    if Ns.is_exact e.sharers && sharer_count e <> 1 then
      err w "block 0x%x: exclusive at node %d with %d sharers" block id
        (sharer_count e)
  end;
  w

let dir_agrees_ok block (e : dirent) w =
  w.blk <- block;
  w.ent <- e;
  Imap.fold agrees_ok w.wv.nodes w

(* Additional properties of QUIESCENT views: no requests in flight, all
   nodes running (the driver must separately ensure no messages are in
   transit).  Here the directory must agree exactly with the line
   states.  The result lists the [invariants] violations last first,
   then these in order. *)
let quiescent_invariants (cfg : cfg) (v : view) : string list =
  let w = walk_invariants cfg v in
  w.errs <- List.rev w.errs;
  let w = Imap.fold quiescent_node_ok v.nodes w in
  if not (Ns.is_empty v.rest.brelease) then
    err w "release wave %s undelivered at quiescence"
      (Ns.to_string v.rest.brelease);
  List.rev (Imap.fold dir_agrees_ok v.dir w).errs

(* ------------------------------------------------------------------ *)
(* Canonical serialization                                              *)
(* ------------------------------------------------------------------ *)

(* A canonical string for a view, built from ordered map bindings.
   (Marshalling the view directly would NOT be canonical: balanced-tree
   shapes depend on insertion order.)  Equal strings <=> equal views;
   used for visited-state deduplication in the model checker and for
   comparing a replayed trace against the live run.  Written straight
   into the caller's buffer with no [Printf] and no closure: the map
   walks fold the buffer through the top-level writers below, so a
   render allocates only what the buffer grows by (and a [merge] cursor
   for a node with pending blocks).  The string is three
   parts, written by [canon_dir_into], one [canon_node_into] per node
   and [canon_rest_into]: the model checker interns each part on its
   own and re-renders only the parts a move changed. *)

let add_bool b x = Buffer.add_string b (if x then "true" else "false")

(* Comma-separated. *)
let rec ints_into b = function
  | [] -> ()
  | [ x ] -> Keybuf.add_int b x
  | x :: l -> Keybuf.add_int b x; Buffer.add_char b ','; ints_into b l

let rec hexes_into b = function
  | [] -> ()
  | [ x ] -> Keybuf.add_hex b x
  | x :: l -> Keybuf.add_hex b x; Buffer.add_char b ','; hexes_into b l

(* Full-map sets print as the historical hex/decimal masks so default
   configurations stay byte-identical to the seed traces; other
   representations use Nodeset's canonical rendering. *)
let dir_into blk (e : dirent) b =
  Buffer.add_char b 'D'; Keybuf.add_hex b blk; Buffer.add_char b ':';
  Keybuf.add_int b e.owner; Buffer.add_char b ',';
  Ns.to_buffer b e.sharers; Buffer.add_char b ';';
  b

let canon_dir_into b (v : view) = ignore (Imap.fold dir_into v.dir b)

let line_into blk l b =
  Buffer.add_char b 'l'; Keybuf.add_hex b blk; Buffer.add_char b '=';
  Buffer.add_char b
    (match l with
     | L_invalid -> 'i'
     | L_shared -> 's'
     | L_exclusive -> 'e'
     | L_pending_invalid -> 'p'
     | L_pending_shared -> 'q');
  Buffer.add_char b ';';
  b

(* A node's settled lines merged with its pending entries in block
   order: [lo] is the last block printed, [upto] the next line's. *)
type merge = {
  mb : Buffer.t;
  mpend : pend Imap.t;
  mutable lo : int;
  mutable upto : int;
}

let pending_upto pb p m =
  if pb > m.lo && pb <= m.upto then ignore (line_into pb (pending_line p) m.mb);
  m

(* a pending entry wins over [lines] *)
let merged_line_into blk l m =
  m.upto <- blk;
  let m = Imap.fold pending_upto m.mpend m in
  if not (Imap.mem blk m.mpend) then ignore (line_into blk l m.mb);
  m.lo <- blk;
  m

let written_into a w b =
  Keybuf.add_hex b a; Buffer.add_char b ':'; Keybuf.add_hex b w;
  Buffer.add_char b ',';
  b

let pend_into blk (p : pend) b =
  Buffer.add_char b 'p'; Keybuf.add_hex b blk; Buffer.add_char b '=';
  Buffer.add_char b
    (match p.pkind with P_read -> 'r' | P_readex -> 'x' | P_upgrade -> 'u');
  add_bool b p.invalidated; Buffer.add_char b '[';
  let b = Imap.fold written_into p.written b in
  Buffer.add_string b "];";
  b

let ack_into blk (a : ackst) b =
  Buffer.add_char b 'a'; Keybuf.add_hex b blk; Buffer.add_char b '=';
  Keybuf.add_int b a.got; Buffer.add_char b '/';
  (match a.expected with
   | Some e -> Keybuf.add_int b e
   | None -> Buffer.add_char b '?');
  Buffer.add_char b ';';
  b

let rec msgs_into b = function
  | [] -> ()
  | m :: l -> Message.describe_into b m; Buffer.add_char b ';'; msgs_into b l

let waiter_into blk msgs b =
  Buffer.add_char b 'w'; Keybuf.add_hex b blk; Buffer.add_string b "=[";
  msgs_into b msgs; Buffer.add_string b "];";
  b

let rec deferred_into b = function
  | [] -> ()
  | D_inv blk :: l ->
    Buffer.add_string b "di"; Keybuf.add_hex b blk; Buffer.add_char b ';';
    deferred_into b l
  | D_downgrade blk :: l ->
    Buffer.add_string b "dd"; Keybuf.add_hex b blk; Buffer.add_char b ';';
    deferred_into b l

let canon_node_into b id (n : nview) =
  Buffer.add_char b 'N'; Keybuf.add_int b id; Buffer.add_char b '{';
  (* every block's [line_of] state in block order: a pending entry wins
     over [lines], and prints even where [lines] has no binding *)
  if Imap.is_empty n.pending then ignore (Imap.fold line_into n.lines b)
  else begin
    let m =
      Imap.fold merged_line_into n.lines
        { mb = b; mpend = n.pending; lo = min_int; upto = min_int }
    in
    m.upto <- max_int;
    ignore (Imap.fold pending_upto n.pending m)
  end;
  let b = Imap.fold pend_into n.pending b in
  let b = Imap.fold ack_into n.acks b in
  Buffer.add_char b 'u'; Keybuf.add_int b (Imap.cardinal n.acks);
  Buffer.add_char b ';';
  let b = Imap.fold waiter_into n.waiters b in
  deferred_into b n.deferred;
  if n.in_batch then Buffer.add_string b "B;";
  (match n.nstat with
   | N_running -> ()
   | N_waiting (W_blocks bs) ->
     Buffer.add_string b "Wb"; hexes_into b bs; Buffer.add_char b ';'
   | N_waiting W_release -> Buffer.add_string b "Wr;"
   | N_waiting W_sync -> Buffer.add_string b "Ws;");
  (match n.resume with
   | R_none -> ()
   | R_refill -> Buffer.add_string b "Rf;"
   | R_store_retry { addr; block } ->
     Buffer.add_string b "Rs"; Keybuf.add_hex b addr; Buffer.add_char b ',';
     Keybuf.add_hex b block; Buffer.add_char b ';'
   | R_store_commit { then_release } ->
     Buffer.add_string b "Rc"; add_bool b then_release; Buffer.add_char b ';'
   | R_then_release -> Buffer.add_string b "Rr;"
   | R_done -> Buffer.add_string b "Rd;"
   | R_lock_acquired id ->
     Buffer.add_string b "Rl"; Keybuf.add_int b id; Buffer.add_char b ';'
   | R_unlock id ->
     Buffer.add_string b "Ru"; Keybuf.add_int b id; Buffer.add_char b ';'
   | R_barrier_enter -> Buffer.add_string b "Rb;"
   | R_barrier_passed -> Buffer.add_string b "Rp;"
   | R_flag_set id ->
     Buffer.add_string b "Rg"; Keybuf.add_int b id; Buffer.add_char b ';'
   | R_flag_woken id ->
     Buffer.add_string b "Rw"; Keybuf.add_int b id; Buffer.add_char b ';');
  if n.sync_signal then Buffer.add_string b "S;";
  Buffer.add_char b '}'

let lock_into id (l : lockst) b =
  Buffer.add_char b 'L'; Keybuf.add_int b id; Buffer.add_char b ':';
  (match l.holder with
   | Some h -> Keybuf.add_int b h
   | None -> Buffer.add_char b '-');
  Buffer.add_string b ",["; ints_into b l.lq; Buffer.add_string b "];";
  b

let flag_into id (f : flagst) b =
  Buffer.add_char b 'F'; Keybuf.add_int b id; Buffer.add_char b ':';
  add_bool b f.fset; Buffer.add_string b ",["; ints_into b f.fwaiters;
  Buffer.add_string b "];";
  b

let home_into page h b =
  Keybuf.add_hex b page; Buffer.add_char b ':'; Keybuf.add_int b h;
  Buffer.add_char b ',';
  b

let heat_into page (who, k) b =
  Keybuf.add_hex b page; Buffer.add_char b ':'; Keybuf.add_int b who;
  Buffer.add_char b '*'; Keybuf.add_int b k; Buffer.add_char b ',';
  b

(* A full-map barrier mask prints in decimal. *)
let ns_dec_into b = function
  | Ns.Bits m -> Keybuf.add_int b m
  | ns -> Ns.to_buffer b ns

let canon_rest_into b (v : view) =
  let r = v.rest in
  let b = Imap.fold lock_into r.locks b in
  let b = Imap.fold flag_into r.flags b in
  Buffer.add_char b 'B';
  ns_dec_into b r.barrier_arrived;
  if not (Ns.is_empty r.halted) then begin
    Buffer.add_string b ";X"; Ns.to_buffer b r.crashed;
    Buffer.add_char b ','; Ns.to_buffer b r.halted
  end;
  (* scaling-layer state prints only when populated, so default-config
     strings stay byte-identical to the seed *)
  if not (Ns.is_empty r.brelease) then begin
    Buffer.add_string b ";R"; ns_dec_into b r.brelease
  end;
  if not (Imap.is_empty r.homes) then begin
    Buffer.add_string b ";H"; ignore (Imap.fold home_into r.homes b)
  end;
  if not (Imap.is_empty r.heat) then begin
    Buffer.add_string b ";h"; ignore (Imap.fold heat_into r.heat b)
  end

(* [canon_rest_into] reads only [rest]: a view that shares it with [v]
   renders the same rest. *)
let rest_shared (v : view) (w : view) = v.rest == w.rest

let node_into id n b = canon_node_into b id n; b

let canon_into b (v : view) =
  canon_dir_into b v;
  ignore (Imap.fold node_into v.nodes b);
  canon_rest_into b v

let canon (v : view) : string =
  let b = Buffer.create 1024 in
  canon_into b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Printers (counterexample traces)                                     *)
(* ------------------------------------------------------------------ *)

let string_of_wait = function
  | W_blocks bs ->
    Printf.sprintf "blocks[%s]"
      (String.concat "," (List.map (Printf.sprintf "0x%x") bs))
  | W_release -> "release"
  | W_sync -> "sync"
