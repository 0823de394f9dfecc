(* Explicit-state model checker for the pure protocol core.

   Because [Transitions.step] is a pure function over an immutable
   [view], a closed system — the view, per-pair in-flight message
   queues, per-node scripts and a one-longword-per-block shadow memory —
   is a small immutable value, and every reachable interleaving of small
   configurations can be enumerated outright.

   Moves are the nondeterminism the real cluster exhibits: any running
   node may issue its next scripted operation, and the head of any
   non-empty (src, dst) channel may be delivered (the network never
   reorders a pair, so per-pair FIFOs are exact).  A DFS over the move
   graph with a visited set of compact keys (each state component's
   canonical string interned once, see [Collapse]) checks, at
   every state, the core's structural invariants, invalidation-ack
   conservation against the in-flight messages, and flag/value
   coherence of the shadow memory; terminal states must be quiescent
   (no waiting node, no unissued script, oracle satisfied).

   A fault can be injected at the routing layer (drop the first
   invalidation acknowledgement); the checker then demonstrates the
   protocol's reliance on it by printing a counterexample trace.  A
   seeded random-walk fuzzer covers larger configurations the
   exhaustive search cannot.

   With [~lossy:budget] the channels model the UNRELIABLE wire under
   the reliable-delivery sublayer of [Shasta_network]: every sent
   message becomes a sequence-numbered frame; the adversary may spend a
   bounded per-channel fault budget to drop the frame at the wire head,
   duplicate it, or let the next frame overtake it; a lost frame is
   eventually retransmitted (a move that costs no budget and is enabled
   exactly while the frame survives nowhere); the receiver dedups and
   resequences, delivering each payload to the protocol exactly once,
   in order.  Terminal states additionally require every channel fully
   drained — frames in flight, held out of order, or lost-but-unacked
   all contradict quiescence — which is the "eventual delivery implies
   quiescence" liveness obligation.  [Retransmit_no_dedup] removes the
   receiver's dedup so stale retransmitted/duplicated frames reach the
   protocol twice: the checker must catch the resulting double-counted
   acknowledgements or stale data.

   With [~crash:budget] a node-crash adversary joins the move set: at
   any state it may halt any node (while at least two are live and the
   budget lasts), purging every frame queued to or from the victim and
   feeding the purged list to the lowest surviving node's
   [I_node_crash] step — exactly what the runtime's crash detector
   does.  [~recover:budget] adds restart moves for crashed nodes.  The
   obligations become fault-tolerance theorems: every invariant holds
   through crash and recovery, no survivor is ever stuck at a terminal
   state (locks held by the dead are taken over, barriers excuse the
   halted, purged replies are re-served from salvaged memory), and
   terminal states are quiescent even after recovery.  Data oracles
   are skipped once a crash fires — a victim dies at an arbitrary
   script position, so final values are unknowable; structural and
   liveness obligations still apply in full.  Crash moves require the
   reliable wire (the runtime layers crash detection above the
   delivery sublayer, so the combination is not modeled). *)

open Shasta_protocol
module T = Transitions
module Imap = T.Imap

let marker = Shasta.Layout.flag_pattern

(* ------------------------------------------------------------------ *)
(* Scripts                                                              *)
(* ------------------------------------------------------------------ *)

type op =
  | Read of int (* block *)
  | Write of int * int (* block, value *)
  | Write_reg_plus of int * int (* block, increment over last read *)
  | Lock of int
  | Unlock of int
  | Flag_set of int
  | Flag_wait of int
  | Barrier

let string_of_op = function
  | Read b -> Printf.sprintf "read 0x%x" b
  | Write (b, v) -> Printf.sprintf "write 0x%x <- %d" b v
  | Write_reg_plus (b, k) -> Printf.sprintf "write 0x%x <- reg+%d" b k
  | Lock id -> Printf.sprintf "lock %d" id
  | Unlock id -> Printf.sprintf "unlock %d" id
  | Flag_set id -> Printf.sprintf "flag_set %d" id
  | Flag_wait id -> Printf.sprintf "flag_wait %d" id
  | Barrier -> "barrier"

(* [Store_past_release] is the refinement-teeth mutation: the first
   store issued while the issuing node holds a lock is not performed —
   its value is stashed, and a later nondeterministic move applies it
   once the node holds no lock, i.e. the store commit has sunk past
   the release.  Every structural invariant, flag-coherence and
   quiescence obligation still holds (the deferred store is an
   ordinary store when it fires); only the refinement checker, which
   pins each commit to its program-order spec step, can see it. *)
type injection =
  | No_injection
  | Drop_first_inv_ack
  | Retransmit_no_dedup
  | Store_past_release

(* ------------------------------------------------------------------ *)
(* The closed system                                                    *)
(* ------------------------------------------------------------------ *)

(* One frame of the reliable-delivery sublayer: a protocol message
   stamped with its per-channel sequence number. *)
type frame = { fseq : int; fmsg : Message.t }

(* Per-channel sublayer state in lossy mode.  [wire] is the physical
   channel, head arrives first; [rx_buf] holds frames received out of
   order (sorted by fseq); [unacked] are frames sent but not yet
   delivered up to the protocol — a frame absent from both wire and
   rx_buf is lost and retransmittable.  [budget] bounds the adversary's
   remaining fault moves on this channel. *)
type chanst = {
  tx_next : int;
  rx_expected : int;
  wire : frame list;
  rx_buf : frame list;
  unacked : frame list;
  budget : int;
}

(* Refinement bookkeeping carried through a run when [~refine] is on:
   the serial-memory spec state, the race detector's clocks, and the
   per-node issued-but-uncommitted operation ([uops]).  Stores commit
   at issue (release consistency makes them non-stalling), loads and
   sync operations commit at the move that leaves the node running
   again; a barrier is two half-steps (arrive at issue, pass at
   wake). *)
type verdict = Agrees | Excused | Diverges

type refst = {
  rspec : Refine.spec;
  racer : Refine.racer;
  uops : op Imap.t; (* node -> issued op awaiting its commit *)
  racy : bool; (* the detector reported a race on this path *)
  rcommits : (Refine.sstep * verdict) list;
      (* committed spec steps, newest first; rendered only for a
         counterexample *)
}

type sys = {
  v : T.view;
  chans : Message.t list Imap.t; (* src * nprocs + dst -> FIFO, head next *)
  scripts : op list Imap.t; (* node -> remaining operations *)
  shadow : int Imap.t Imap.t; (* node -> block -> value ([marker] = flagged) *)
  regs : int Imap.t; (* node -> last value read *)
  pending_read : int Imap.t; (* node -> block of the outstanding load *)
  dropped : bool; (* the injected fault already fired *)
  stash : (int * int * int) option;
      (* Store_past_release: (node, block, value) of the deferred store *)
  lossy : int option; (* per-channel fault budget; None = reliable wire *)
  lchans : chanst Imap.t; (* sublayer state per channel (lossy mode) *)
  crash_budget : int; (* remaining node-crash adversary moves *)
  recover_budget : int; (* remaining node-restart adversary moves *)
  refine : refst option; (* refinement checking state, when enabled *)
}

type scenario = {
  sname : string;
  nprocs : int;
  blocks : int list;
  scripts : op list array;
  oracle : sys -> string list; (* extra checks at terminal states *)
  drf : bool;
      (* the scripts are data-race-free: the race detector must stay
         silent and spec divergences are hard violations.  On a racy
         scenario divergences after a detected race are excused (SC is
         only promised to race-free programs). *)
  cfg_mod : T.cfg -> T.cfg;
      (* configuration override applied over the default (full-map,
         centralized sync) — how scale scenarios select the
         limited-pointer directory and the queue-lock/tree-barrier path *)
}

let value (sys : sys) ~node ~block =
  match Imap.find_opt block (Imap.find node sys.shadow) with
  | Some v when v <> marker -> Some v
  | _ -> None

let reg (sys : sys) ~node =
  match Imap.find_opt node sys.regs with Some v -> v | None -> 0

let view (sys : sys) = sys.v

let cfg_of ?(base = T.default_cfg) (sc : scenario) =
  (* [base] carries the CLI's --dir-mode/--sync choice into every
     scenario; the scenario's own processor count and cfg_mod still
     win (scale scenarios pin the organization they exercise) *)
  sc.cfg_mod { base with T.nprocs = sc.nprocs }

let init_sys ?lossy ?(crash = 0) ?(recover = 0) ?(refine = false) ?base
    (sc : scenario) =
  if crash > 0 && lossy <> None then
    invalid_arg "mcheck: the crash adversary needs the reliable wire";
  let cfg = cfg_of ?base sc in
  let v0 = T.init cfg in
  (* every block starts exclusively owned by node 0 (the allocator) *)
  let _, v =
    T.step cfg v0 ~node:0 (T.I_alloc { owner = 0; blocks = sc.blocks })
  in
  let shadow =
    List.init sc.nprocs (fun n ->
      ( n,
        List.fold_left
          (fun m b -> Imap.add b (if n = 0 then 0 else marker) m)
          Imap.empty sc.blocks ))
    |> List.to_seq |> Imap.of_seq
  in
  { v;
    chans = Imap.empty;
    scripts = Array.to_seqi sc.scripts |> Imap.of_seq;
    shadow;
    regs = Imap.empty;
    pending_read = Imap.empty;
    dropped = false;
    stash = None;
    lossy;
    lchans = Imap.empty;
    crash_budget = crash;
    recover_budget = recover;
    refine =
      (if refine then
         Some
           { rspec = Refine.init ~nprocs:sc.nprocs ~blocks:sc.blocks;
             racer = Refine.racer_init ~nprocs:sc.nprocs;
             uops = Imap.empty;
             racy = false;
             rcommits = [] }
       else None) }

(* ------------------------------------------------------------------ *)
(* Applying a step's actions to the closed system                       *)
(* ------------------------------------------------------------------ *)

let shadow_get (sys : sys) ~node ~block =
  match Imap.find_opt block (Imap.find node sys.shadow) with
  | Some v -> v
  | None -> marker

let shadow_set (sys : sys) ~node ~block v =
  { sys with
    shadow =
      Imap.add node (Imap.add block v (Imap.find node sys.shadow)) sys.shadow }

(* Does [node] hold a pending store to [block]'s longword in [v]?  Such
   longwords keep the node's own value through invalidation (the
   written-longword merge of Section 4.1). *)
let has_written v ~node ~block =
  let nv = T.node_view v ~node in
  match Imap.find_opt block nv.T.pending with
  | Some p -> Imap.mem block p.T.written
  | None -> false

exception Unexpected of string

(* Apply one action.  [v'] is the post-step view (consulted for pending
   written-longword state); [reply] holds the data of the message being
   delivered, consumed by the first merge, like the engine's
   [node.reply_data]. *)
let apply_action ~inj ~(reply : int array option ref) v' node sys
    (a : T.action) =
  match a with
  | T.A_charge _ | T.A_emit _ -> sys
  | T.A_local _ -> sys
  | T.A_block _ | T.A_stall _ -> sys (* node status lives in the view *)
  | T.A_send { dst; msg } ->
    let msg =
      match msg.Message.kind with
      | Message.Coh (Data_reply { data; exclusive; acks })
        when Array.length data = 0 ->
        { msg with
          Message.kind =
            Message.Coh
              (Data_reply
                 { data = [| shadow_get sys ~node ~block:msg.Message.addr |];
                   exclusive;
                   acks }) }
      | _ -> msg
    in
    let drop =
      (match inj with
       | Drop_first_inv_ack -> msg.Message.kind = Message.Coh Message.Inv_ack
       | No_injection | Retransmit_no_dedup | Store_past_release -> false)
      && not sys.dropped
    in
    (* Drop_first_inv_ack loses the message ABOVE the sublayer — it is
       never sequence-numbered, so retransmission cannot recover it:
       the protocol-layer bug stays detectable even on a lossy wire *)
    if drop then { sys with dropped = true }
    else begin
      let key = (node * 1024) + dst in
      match sys.lossy with
      | None ->
        let q =
          match Imap.find_opt key sys.chans with Some q -> q | None -> []
        in
        { sys with chans = Imap.add key (q @ [ msg ]) sys.chans }
      | Some budget ->
        let cs =
          match Imap.find_opt key sys.lchans with
          | Some cs -> cs
          | None ->
            { tx_next = 0; rx_expected = 0; wire = []; rx_buf = [];
              unacked = []; budget }
        in
        let f = { fseq = cs.tx_next; fmsg = msg } in
        let cs =
          { cs with
            tx_next = cs.tx_next + 1;
            wire = cs.wire @ [ f ];
            unacked = cs.unacked @ [ f ] }
        in
        { sys with lchans = Imap.add key cs sys.lchans }
    end
  | T.A_mem op -> (
    match op with
    | T.M_make_exclusive _ | T.M_make_shared _ | T.M_make_pending _ -> sys
    | T.M_make_invalid b | T.M_flag { block = b; _ } ->
      if has_written v' ~node ~block:b then sys
      else shadow_set sys ~node ~block:b marker
    | T.M_merge { block; written } ->
      let base =
        match !reply with
        | Some d when Array.length d > 0 ->
          reply := None;
          d.(0)
        | _ -> shadow_get sys ~node ~block
      in
      let value =
        match List.assoc_opt block written with Some v -> v | None -> base
      in
      shadow_set sys ~node ~block value
    | T.M_adopt { block; from } ->
      (* crash salvage: copy the dead node's (frozen) shadow value *)
      shadow_set sys ~node ~block (shadow_get sys ~node:from ~block))
  | T.A_refill -> (
    match Imap.find_opt node sys.pending_read with
    | Some b ->
      { sys with
        regs = Imap.add node (shadow_get sys ~node ~block:b) sys.regs;
        pending_read = Imap.remove node sys.pending_read }
    | None -> sys)
  | T.A_commit_store ->
    raise (Unexpected "A_commit_store under non-stalling stores")

let run_step cfg ~inj ?reply (sys : sys) node input =
  let acts, v' = T.step cfg sys.v ~node input in
  let sys = { sys with v = v' } in
  let reply = ref reply in
  List.fold_left (apply_action ~inj ~reply v' node) sys acts

(* ------------------------------------------------------------------ *)
(* Moves                                                                *)
(* ------------------------------------------------------------------ *)

let running (sys : sys) ~node =
  (T.node_view sys.v ~node).T.nstat = T.N_running
  && not (Imap.mem node sys.pending_read)

(* Issue [node]'s next scripted operation.  Loads and stores follow the
   inline-check semantics: a load hits iff the longword is unflagged
   (the node's own pending stores satisfy its loads); a store hits iff
   the line is exclusive.  Stores are non-stalling (release consistency,
   Section 4.1): the value goes to shadow memory immediately and the
   miss input carries it as the written longword. *)
let issue cfg ~inj (sys : sys) node op rest =
  let sys = { sys with scripts = Imap.add node rest sys.scripts } in
  match op with
  | Read b ->
    if shadow_get sys ~node ~block:b <> marker then
      { sys with regs = Imap.add node (shadow_get sys ~node ~block:b) sys.regs }
    else
      let sys = { sys with pending_read = Imap.add node b sys.pending_read } in
      run_step cfg ~inj sys node (T.I_load_miss { addr = b; block = b })
  | Write (b, _) | Write_reg_plus (b, _) ->
    let value =
      match op with
      | Write_reg_plus (_, k) -> reg sys ~node + k
      | Write (_, v) -> v
      | _ -> assert false
    in
    if
      inj = Store_past_release && (not sys.dropped)
      && T.locks_held_by sys.v ~node <> []
    then
      (* the mutation: the store's program-order slot is consumed but
         its effect is withheld until the node has released its locks
         (see [stash_moves]) — a store commit sunk past the release *)
      { sys with dropped = true; stash = Some (node, b, value) }
    else begin
      let st = T.line_state sys.v ~node ~block:b in
      let sys = shadow_set sys ~node ~block:b value in
      if st = T.L_exclusive then sys
      else
        run_step cfg ~inj sys node
          (T.I_store_miss
             { addr = b;
               block = b;
               store_done = true;
               stored = [ (b, value) ] })
    end
  | Lock id -> run_step cfg ~inj sys node (T.I_lock id)
  | Unlock id -> run_step cfg ~inj sys node (T.I_unlock id)
  | Flag_set id -> run_step cfg ~inj sys node (T.I_flag_set id)
  | Flag_wait id -> run_step cfg ~inj sys node (T.I_flag_wait id)
  | Barrier -> run_step cfg ~inj sys node T.I_barrier

let deliver cfg ~inj (sys : sys) key =
  match Imap.find key sys.chans with
  | [] -> assert false
  | msg :: rest ->
    let dst = key mod 1024 in
    let chans =
      if rest = [] then Imap.remove key sys.chans
      else Imap.add key rest sys.chans
    in
    let sys = { sys with chans } in
    let reply =
      match msg.Message.kind with
      | Message.Coh (Data_reply { data; _ }) -> Some data
      | _ -> None
    in
    run_step cfg ~inj ?reply sys dst (T.I_msg msg)

(* --- lossy mode: the sublayer's receive path and the adversary ------ *)

let deliver_up cfg ~inj sys ~dst (msg : Message.t) =
  let reply =
    match msg.Message.kind with
    | Message.Coh (Data_reply { data; _ }) -> Some data
    | _ -> None
  in
  run_step cfg ~inj ?reply sys dst (T.I_msg msg)

let has_fseq fseq frames = List.exists (fun g -> g.fseq = fseq) frames
let drop_fseq fseq frames = List.filter (fun g -> g.fseq <> fseq) frames

(* The head frame of [key]'s wire arrives.  Receiver-side dedup and
   resequencing: a duplicate is discarded, a future frame is held, the
   expected frame is delivered up together with everything consecutive
   it unblocks.  Under [Retransmit_no_dedup] the duplicate check is
   gone and stale frames hit the protocol again. *)
let lossy_deliver cfg ~inj (sys : sys) key =
  let cs = Imap.find key sys.lchans in
  match cs.wire with
  | [] -> assert false
  | f :: rest ->
    let dst = key mod 1024 in
    let cs = { cs with wire = rest } in
    let is_dup = f.fseq < cs.rx_expected || has_fseq f.fseq cs.rx_buf in
    if is_dup then
      let sys = { sys with lchans = Imap.add key cs sys.lchans } in
      if inj = Retransmit_no_dedup then deliver_up cfg ~inj sys ~dst f.fmsg
      else sys
    else if f.fseq > cs.rx_expected then
      let rx_buf =
        List.sort (fun a b -> compare a.fseq b.fseq) (f :: cs.rx_buf)
      in
      { sys with lchans = Imap.add key { cs with rx_buf } sys.lchans }
    else begin
      let rec flush cs acc =
        match List.find_opt (fun g -> g.fseq = cs.rx_expected) cs.rx_buf with
        | Some g ->
          flush
            { cs with
              rx_expected = cs.rx_expected + 1;
              rx_buf = drop_fseq g.fseq cs.rx_buf;
              unacked = drop_fseq g.fseq cs.unacked }
            (g.fmsg :: acc)
        | None -> (cs, List.rev acc)
      in
      let cs =
        { cs with
          rx_expected = cs.rx_expected + 1;
          unacked = drop_fseq f.fseq cs.unacked }
      in
      let cs, unblocked = flush cs [] in
      let sys = { sys with lchans = Imap.add key cs sys.lchans } in
      List.fold_left
        (fun sys m -> deliver_up cfg ~inj sys ~dst m)
        (deliver_up cfg ~inj sys ~dst f.fmsg)
        unblocked
    end

(* Frames the sender would eventually time out on: sent, not yet
   delivered up, and surviving neither on the wire nor in the receive
   buffer.  Lowest sequence number first ([unacked] is append-ordered). *)
let lost_frames (cs : chanst) =
  List.filter
    (fun f ->
      f.fseq >= cs.rx_expected
      && (not (has_fseq f.fseq cs.wire))
      && not (has_fseq f.fseq cs.rx_buf))
    cs.unacked

let chan_label key = Printf.sprintf "%d->%d" (key / 1024) (key mod 1024)

(* Adversary and recovery moves on one lossy channel.  Each fault move
   costs one unit of the channel's budget; retransmission is free and
   enabled exactly while a frame is lost, so no terminal state can
   leave a frame undelivered (eventual delivery). *)
let lossy_moves cfg ~inj (sys : sys) key (cs : chanst) =
  let upd cs' = { sys with lchans = Imap.add key cs' sys.lchans } in
  let delivers =
    match cs.wire with
    | f :: _ ->
      [ ( (fun () ->
            Printf.sprintf "deliver %s: #%d %s" (chan_label key) f.fseq
              (Message.describe f.fmsg)),
          fun () -> lossy_deliver cfg ~inj sys key ) ]
    | [] -> []
  in
  let faults =
    if cs.budget <= 0 then []
    else
      let spend cs' = upd { cs' with budget = cs.budget - 1 } in
      (match cs.wire with
       | f :: rest ->
         [ ( (fun () ->
               Printf.sprintf "fault %s: drop #%d %s" (chan_label key) f.fseq
                 (Message.describe f.fmsg)),
             fun () -> spend { cs with wire = rest } );
           ( (fun () ->
               Printf.sprintf "fault %s: dup #%d %s" (chan_label key) f.fseq
                 (Message.describe f.fmsg)),
             fun () -> spend { cs with wire = (f :: rest) @ [ f ] } ) ]
       | [] -> [])
      @
      (match cs.wire with
       | f1 :: f2 :: rest when f1.fseq <> f2.fseq ->
         [ ( (fun () ->
               Printf.sprintf "fault %s: reorder #%d behind #%d"
                 (chan_label key) f1.fseq f2.fseq),
             fun () -> spend { cs with wire = f2 :: f1 :: rest } ) ]
       | _ -> [])
  in
  let retransmits =
    match lost_frames cs with
    | f :: _ ->
      [ ( (fun () ->
            Printf.sprintf "retransmit %s: #%d %s" (chan_label key) f.fseq
              (Message.describe f.fmsg)),
          fun () -> upd { cs with wire = cs.wire @ [ f ] } ) ]
    | [] -> []
  in
  delivers @ faults @ retransmits

(* --- the node-crash adversary --------------------------------------- *)

(* Halt [victim]: purge every channel to or from it (per-channel FIFO
   order preserved; Map iteration makes the cross-channel order
   deterministic), discard its remaining script and outstanding load,
   and feed the purged frames to the lowest surviving node's
   [I_node_crash] step — the same consistent cut the runtime's crash
   detector takes with [Network.mark_dead]. *)
let crash_node cfg ~inj (sys : sys) victim =
  let purged = ref [] in
  let chans =
    Imap.filter
      (fun key q ->
        if key / 1024 = victim || key mod 1024 = victim then begin
          purged := !purged @ List.map (fun m -> (key mod 1024, m)) q;
          false
        end
        else true)
      sys.chans
  in
  let sys =
    { sys with
      chans;
      scripts = Imap.add victim [] sys.scripts;
      pending_read = Imap.remove victim sys.pending_read;
      stash =
        (match sys.stash with
         | Some (n, _, _) when n = victim -> None
         | s -> s);
      crash_budget = sys.crash_budget - 1 }
  in
  let coord =
    let rec go n =
      if n = victim || not (T.is_live sys.v ~node:n) then go (n + 1) else n
    in
    go 0
  in
  run_step cfg ~inj sys coord (T.I_node_crash { victim; lost = !purged })

let crash_moves cfg ~inj (sys : sys) =
  let crashes =
    if sys.crash_budget <= 0 then []
    else
      let live =
        List.filter
          (fun n -> T.is_live sys.v ~node:n)
          (List.init cfg.T.nprocs Fun.id)
      in
      if List.length live < 2 then []
      else
        List.map
          (fun v ->
            ( (fun () -> Printf.sprintf "crash n%d" v),
              fun () -> crash_node cfg ~inj sys v ))
          live
  in
  let recovers =
    if sys.recover_budget <= 0 then []
    else
      List.filter_map
        (fun v ->
          if T.is_live sys.v ~node:v then None
          else
            Some
              ( (fun () -> Printf.sprintf "recover n%d" v),
                fun () ->
                  run_step cfg ~inj
                    { sys with recover_budget = sys.recover_budget - 1 }
                    v (T.I_node_recover v) ))
        (List.init cfg.T.nprocs Fun.id)
  in
  crashes @ recovers

(* The second half of [Store_past_release]: once the stashing node has
   released every lock, the withheld store may fire at any point — an
   ordinary store miss, indistinguishable from a legal one to every
   structural check, but committed out of program order. *)
let stash_moves cfg ~inj (sys : sys) =
  match sys.stash with
  | Some (node, b, value)
    when T.is_live sys.v ~node && running sys ~node
         && T.locks_held_by sys.v ~node = [] ->
    [ ( (fun () ->
          Printf.sprintf "n%d: deferred store 0x%x <- %d fires (injected)"
            node b value),
        fun () ->
          let sys = { sys with stash = None } in
          let st = T.line_state sys.v ~node ~block:b in
          let sys = shadow_set sys ~node ~block:b value in
          if st = T.L_exclusive then sys
          else
            run_step cfg ~inj sys node
              (T.I_store_miss
                 { addr = b;
                   block = b;
                   store_done = true;
                   stored = [ (b, value) ] }) ) ]
  | _ -> []

(* Every enabled move as (label, successor).  Labels are thunks: the
   search forces them only to print a counterexample, so no display
   string is built per transition. *)
let enabled cfg ~inj (sys : sys) =
  let issues =
    Imap.fold
      (fun node script acc ->
        match script with
        | op :: rest when running sys ~node ->
          ( (fun () -> Printf.sprintf "n%d: %s" node (string_of_op op)),
            fun () -> issue cfg ~inj sys node op rest )
          :: acc
        | _ -> acc)
      sys.scripts []
  in
  let delivers =
    Imap.fold
      (fun key q acc ->
        match q with
        | msg :: _ when T.is_live sys.v ~node:(key mod 1024) ->
          ( (fun () ->
              Printf.sprintf "deliver %d->%d: %s" (key / 1024) (key mod 1024)
                (Message.describe msg)),
            fun () -> deliver cfg ~inj sys key )
          :: acc
        | _ -> acc)
      sys.chans []
  in
  let lossy_all =
    Imap.fold
      (fun key cs acc -> List.rev_append (lossy_moves cfg ~inj sys key cs) acc)
      sys.lchans []
  in
  List.rev_append issues
    (List.rev_append lossy_all (List.rev delivers))
  @ stash_moves cfg ~inj sys
  @ crash_moves cfg ~inj sys

let moves cfg ~inj sys =
  List.map (fun (label, next) -> (label (), next)) (enabled cfg ~inj sys)

(* Oldest-first display trace of a newest-first path of label thunks. *)
let trace path = List.rev_map (fun label -> label ()) path

(* ------------------------------------------------------------------ *)
(* Checks                                                               *)
(* ------------------------------------------------------------------ *)

(* A message in a visited-set key: its display form plus, for a data
   reply, the payload longwords — two states whose in-flight replies
   carry different values must not merge, since the merge and refill
   that consume the reply read them. *)
let msg_into b (m : Message.t) =
  Message.describe_into b m;
  match m.Message.kind with
  | Message.Coh (Data_reply { data; _ }) ->
    Buffer.add_char b '{';
    Array.iter (fun w -> Keybuf.add_int b w; Buffer.add_char b ',') data;
    Buffer.add_char b '}'
  | _ -> ()

(* The writers of the key's components.  Each renders one component in
   full; [key] concatenates them, and the search interns each one on
   its own (see [Collapse]).  No [Printf] and no intermediate strings. *)
let chan_into b key q =
  Buffer.add_string b "|c"; Keybuf.add_int b key; Buffer.add_char b ':';
  List.iter (msg_into b) q

let shadow_into b n m =
  Buffer.add_string b "|m"; Keybuf.add_int b n; Buffer.add_char b ':';
  Imap.iter
    (fun blk v ->
      Keybuf.add_hex b blk; Buffer.add_char b '='; Keybuf.add_int b v;
      Buffer.add_char b ',')
    m

let lchan_into b key cs =
  let chr = Buffer.add_char b and int = Keybuf.add_int b in
  let frame f = chr '#'; int f.fseq; msg_into b f.fmsg; chr ';' in
  Buffer.add_string b "|L"; int key; chr ':'; int cs.tx_next; chr '/';
  int cs.rx_expected; chr '/'; int cs.budget; chr ':';
  List.iter frame cs.wire;
  chr '~';
  List.iter (fun f -> chr '#'; int f.fseq; chr ';') cs.rx_buf;
  chr '~';
  List.iter frame cs.unacked

(* The flat visited-set key: the view's canonical string plus everything
   else the closed system carries. *)
let key (sys : sys) =
  let b = Buffer.create 1024 in
  let chr = Buffer.add_char b and str = Buffer.add_string b in
  let int = Keybuf.add_int b and hex = Keybuf.add_hex b in
  T.canon_into b sys.v;
  Imap.iter (chan_into b) sys.chans;
  Imap.iter
    (fun n s -> str "|s"; int n; chr ':'; int (List.length s))
    sys.scripts;
  Imap.iter (shadow_into b) sys.shadow;
  Imap.iter (fun n v -> str "|r"; int n; chr ':'; int v) sys.regs;
  Imap.iter (fun n blk -> str "|p"; int n; chr ':'; hex blk) sys.pending_read;
  if sys.dropped then str "|D";
  (match sys.stash with
   | Some (n, blk, v) -> str "|T"; int n; chr ':'; hex blk; chr '='; int v
   | None -> ());
  (* the spec shadow is path-dependent state: two identical protocol
     states under different spec memories must explore separately, or
     a divergence on the pruned branch would be lost.  The racer's
     clocks are deliberately NOT keyed (race detection is per explored
     trace; keying full vector clocks would blow the state space), but
     the racy bit is, since it changes how divergences are judged. *)
  (match sys.refine with
   | Some r ->
     str (if r.racy then "|R!" else "|R");
     Refine.canon_into b r.rspec
   | None -> ());
  if sys.crash_budget > 0 || sys.recover_budget > 0 then begin
    str "|X"; int sys.crash_budget; chr '/'; int sys.recover_budget
  end;
  Imap.iter (lchan_into b) sys.lchans;
  Buffer.contents b

(* The key the search stores: SPIN's COLLAPSE compression.  A state is
   a fixed row of slots — the directory, each node's view, the rest of
   the view, each (src, dst) channel, each node's shadow memory and
   the refinement spec — and each slot holds the id of its component's
   full rendering, interned once per search.  The scalars follow the
   ids inline.  Ids stand for whole renderings, never digests, and the
   row's layout is fixed, so two compact keys are equal exactly when
   the flat [key]s are.

   A move changes one or two components.  [child] reuses the parent's
   id for every slot whose source value the child shares physically
   ([T.step] keeps every node view it does not touch) and renders only
   the others. *)
module Collapse = struct
  type t = {
    nprocs : int;
    ids : (string, int) Hashtbl.t; (* component rendering -> id *)
    sbuf : Buffer.t; (* one component's rendering *)
    kbuf : Buffer.t; (* the key being packed *)
  }

  let create nprocs =
    { nprocs;
      ids = Hashtbl.create 1024;
      sbuf = Buffer.create 256;
      kbuf = Buffer.create 64 }

  (* Slot layout: 0 the directory, 1..P the node views, P+1 the rest
     of the view, then P*P channels (src-major), then P shadows, then
     the spec. *)
  let chan_slot c k = c.nprocs + 2 + k
  let shadow_slot c n = c.nprocs + 2 + (c.nprocs * c.nprocs) + n
  let spec_slot c = c.nprocs + 2 + (c.nprocs * c.nprocs) + c.nprocs

  (* The id of the rendering in [sbuf]. *)
  let intern c =
    let s = Buffer.contents c.sbuf in
    match Hashtbl.find c.ids s with
    | id -> id
    | exception Not_found ->
      let id = Hashtbl.length c.ids in
      Hashtbl.add c.ids s id;
      id

  (* Re-intern each channel slot whose entry in [sm] (rendered by
     [render]) is not physically its entry in the parent's [am]. *)
  let fill_chans c ids ~fresh am sm render =
    if fresh || sm != am then
      for k = 0 to (c.nprocs * c.nprocs) - 1 do
        let key = (k / c.nprocs * 1024) + (k mod c.nprocs) in
        let same =
          (not fresh)
          &&
          match Imap.find key sm with
          | x -> (
            match Imap.find key am with
            | y -> x == y
            | exception Not_found -> false)
          | exception Not_found -> not (Imap.mem key am)
        in
        if not same then begin
          Buffer.clear c.sbuf;
          (match Imap.find key sm with
           | x -> render c.sbuf key x
           | exception Not_found -> ());
          ids.(chan_slot c k) <- intern c
        end
      done

  (* Fill [ids] for [s].  Unless [fresh], a slot whose source [s]
     shares physically with its parent [a] keeps the id already in
     [ids]. *)
  let fill c ids ~fresh (a : sys) (s : sys) =
    let b = c.sbuf and p = c.nprocs in
    let set i = ids.(i) <- intern c in
    let v = s.v and av = a.v in
    if fresh || v != av then begin
      if fresh || v.T.dir != av.T.dir then begin
        Buffer.clear b; T.canon_dir_into b v; set 0
      end;
      for n = 0 to p - 1 do
        let nv = T.node_view v ~node:n in
        if fresh || nv != T.node_view av ~node:n then begin
          Buffer.clear b; T.canon_node_into b n nv; set (n + 1)
        end
      done;
      if fresh || not (T.rest_shared v av) then begin
        Buffer.clear b; T.canon_rest_into b v; set (p + 1)
      end
    end;
    (* a search runs one wire kind; the other map stays empty *)
    (match s.lossy with
     | None -> fill_chans c ids ~fresh a.chans s.chans chan_into
     | Some _ -> fill_chans c ids ~fresh a.lchans s.lchans lchan_into);
    if fresh || s.shadow != a.shadow then
      for n = 0 to p - 1 do
        let m = Imap.find n s.shadow in
        if fresh || m != Imap.find n a.shadow then begin
          Buffer.clear b; shadow_into b n m; set (shadow_slot c n)
        end
      done;
    (* refinement is on for a whole search or off for all of it *)
    match (s.refine, a.refine) with
    | Some r, Some q when fresh || r.rspec != q.rspec ->
      Buffer.clear b; Refine.canon_into b r.rspec; set (spec_slot c)
    | None, _ when fresh -> Buffer.clear b; set (spec_slot c)
    | _ -> ()

  let slots c (s : sys) =
    let ids = Array.make (spec_slot c + 1) 0 in
    fill c ids ~fresh:true s s;
    ids

  let child c (a : sys) aids (s : sys) =
    let ids = Array.copy aids in
    fill c ids ~fresh:false a s;
    ids

  (* Unsigned LEB128, and zigzag for a signed value: every int packs in
     full, so no two scalars share a packing. *)
  let rec uint b n =
    if n lsr 7 = 0 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
      uint b (n lsr 7)
    end

  let sint b n = uint b ((n lsl 1) lxor (n asr 62))

  (* The compact key of [s] with slot ids [ids]: the ids, then per node
     its script length, register and pending load (0 = absent), then
     the flag bits, the stash and the adversary budgets. *)
  let key c ids (s : sys) =
    let b = c.kbuf in
    Buffer.clear b;
    for i = 0 to Array.length ids - 1 do
      uint b ids.(i)
    done;
    for n = 0 to c.nprocs - 1 do
      (match Imap.find n s.scripts with
       | l -> uint b (List.length l + 1)
       | exception Not_found -> uint b 0);
      (match Imap.find n s.regs with
       | r -> uint b 1; sint b r
       | exception Not_found -> uint b 0);
      match Imap.find n s.pending_read with
      | blk -> uint b 1; sint b blk
      | exception Not_found -> uint b 0
    done;
    let racy = match s.refine with Some r -> r.racy | None -> false in
    uint b
      (Bool.to_int s.dropped
       lor (Bool.to_int racy lsl 1)
       lor (Bool.to_int (Option.is_some s.stash) lsl 2));
    (match s.stash with
     | Some (n, blk, v) -> uint b n; sint b blk; sint b v
     | None -> ());
    sint b s.crash_budget;
    sint b s.recover_budget;
    Buffer.contents b
end

(* Invalidation-ack conservation: a node expecting [e] acks can never
   have received plus in flight more than [e]. *)
let check_ack_conservation cfg (sys : sys) =
  let errs = ref [] in
  for node = 0 to cfg.T.nprocs - 1 do
    let nv = T.node_view sys.v ~node in
    Imap.iter
      (fun block (a : T.ackst) ->
        match a.T.expected with
        | None -> ()
        | Some e ->
          let is_ack (m : Message.t) =
            m.Message.kind = Message.Coh Message.Inv_ack
            && m.Message.addr = block
          in
          let in_flight =
            Imap.fold
              (fun key q acc ->
                if key mod 1024 = node then
                  acc + List.length (List.filter is_ack q)
                else acc)
              sys.chans 0
          in
          (* lossy mode: each unacked frame is delivered up exactly
             once eventually (dedup discards extra copies), so the
             undelivered acks are exactly the unacked ack frames.
             Under Retransmit_no_dedup, stale copies still on the wire
             deliver on top of that and push [got] past [expected] —
             which is precisely the violation this check reports. *)
          let in_flight =
            Imap.fold
              (fun key cs acc ->
                if key mod 1024 = node then
                  acc
                  + List.length
                      (List.filter (fun f -> is_ack f.fmsg) cs.unacked)
                else acc)
              sys.lchans in_flight
          in
          if a.T.got + in_flight > e then
            errs :=
              Printf.sprintf
                "node %d block 0x%x: %d acks received + %d in flight > %d \
                 expected"
                node block a.T.got in_flight e
              :: !errs)
      nv.T.acks
  done;
  !errs

(* Flag/value coherence of the shadow memory: a valid line is never
   flagged; an invalid line with no pending store of its own is always
   flagged (the inline checks depend on exactly this, Section 3.1). *)
let check_flag_coherence cfg blocks (sys : sys) =
  let errs = ref [] in
  let halted = T.halted_mask sys.v in
  for node = 0 to cfg.T.nprocs - 1 do
    (* an ever-crashed node's shadow memory is its frozen crash image:
       unflagged bytes under emptied (invalid) line state is exactly
       what salvage reads from, not a coherence violation *)
    if halted land (1 lsl node) = 0 then
      List.iter
      (fun block ->
        let st = T.line_state sys.v ~node ~block in
        let v = shadow_get sys ~node ~block in
        match st with
        | T.L_shared | T.L_exclusive ->
          if v = marker then
            errs :=
              Printf.sprintf "node %d block 0x%x: valid line holds flag value"
                node block
              :: !errs
        | T.L_invalid ->
          if v <> marker then
            errs :=
              Printf.sprintf
                "node %d block 0x%x: invalid line holds unflagged data" node
                block
              :: !errs
        | T.L_pending_invalid | T.L_pending_shared -> ())
      blocks
  done;
  !errs

(* ------------------------------------------------------------------ *)
(* Refinement: the abstraction function                                 *)
(* ------------------------------------------------------------------ *)

(* Every value the cluster still physically holds for [block]: any
   node's unflagged shadow copy (a fresh crash victim's is its frozen
   image) plus the payloads of in-flight data replies.  This is the
   admissible set a crash widens the spec to: the victim's in-flight
   store either committed before the cut (its value survives in the
   frozen image or a reply) or never happened (the stale copies). *)
let present_values cfg (sys : sys) block =
  let add acc v = if List.mem v acc then acc else v :: acc in
  let acc =
    List.fold_left
      (fun acc n ->
        let v = shadow_get sys ~node:n ~block in
        if v <> marker then add acc v else acc)
      []
      (List.init cfg.T.nprocs Fun.id)
  in
  let from_msg acc (m : Message.t) =
    match m.Message.kind with
    | Message.Coh (Data_reply { data; _ })
      when m.Message.addr = block && Array.length data > 0 ->
      add acc data.(0)
    | _ -> acc
  in
  let acc =
    Imap.fold (fun _ q acc -> List.fold_left from_msg acc q) sys.chans acc
  in
  List.sort compare acc

(* Oldest-first display lines of a newest-first commit list. *)
let render_commits rcommits =
  List.rev_map
    (fun (sst, verdict) ->
      let line = Refine.string_of_sstep sst in
      match verdict with
      | Agrees -> line
      | Excused -> line ^ " (excused: racy)"
      | Diverges -> line ^ "  <-- DIVERGES")
    rcommits

(* Map one protocol move (the [old_s] -> [sys] delta) onto spec steps.

   Commit points: a store commits at issue (non-stalling under release
   consistency — the written longword is immediately load-visible to
   its own node); a barrier's arrive half commits at issue; every
   other user-visible operation becomes the node's pending [uop] and
   commits at the move that leaves the node running again (a hit
   commits in the issuing move itself; a miss at the refill; a sync op
   at its wake).  Only the stepping node can newly become running —
   remote wakes always travel as messages — so at most one [uop]
   commits per move, after any issue and crash steps of the same move.
   Moves that consume no script and wake no one (transfers,
   invalidations, acks, migration, retransmissions, lossy adversary
   moves) produce no commits: they refine to stuttering.

   A crash move clears the victim's script wholesale (distinguished
   from an issue by the crashed-mask delta), discards the victim's
   uncommitted op ("never happened"), force-releases its spec locks
   and widens every block it last wrote to the physically-present
   value set ("committed before or never happened").

   Each commit first feeds the race detector, then the spec machine.
   A race in a DRF scenario is itself a violation; in a racy scenario
   it sets the sticky [racy] bit and later divergences are excused
   (the spec resynchronizes via [Refine.force]) — SC is only promised
   to race-free programs. *)
let refine_update (sc : scenario) cfg (old_s : sys) (sys : sys) :
    (sys, string list * string list) Stdlib.result =
  match old_s.refine with
  | None -> Ok sys
  | Some r0 ->
    let r = ref r0 in
    let errs = ref [] in
    let commit sst =
      let racer, races = Refine.observe !r.racer sst in
      let racy = !r.racy || races <> [] in
      if sc.drf then
        List.iter
          (fun m -> errs := !errs @ [ "race in a DRF scenario: " ^ m ])
          races;
      match Refine.step !r.rspec sst with
      | Ok sp ->
        r :=
          { !r with rspec = sp; racer; racy;
            rcommits = (sst, Agrees) :: !r.rcommits }
      | Error e ->
        if (not sc.drf) && racy then
          r :=
            { !r with
              rspec = Refine.force !r.rspec sst;
              racer;
              racy;
              rcommits = (sst, Excused) :: !r.rcommits }
        else begin
          errs := !errs @ [ "refinement: " ^ e ];
          r :=
            { !r with racer; racy; rcommits = (sst, Diverges) :: !r.rcommits }
        end
    in
    let uops = ref r0.uops in
    let was = T.crashed_mask old_s.v and now = T.crashed_mask sys.v in
    let new_victims =
      if now = was then []
      else
        List.filter
          (fun n -> now land (1 lsl n) <> 0 && was land (1 lsl n) = 0)
          (List.init cfg.T.nprocs Fun.id)
    in
    (* 1. script consumption = operation issue *)
    if sys.scripts != old_s.scripts then
      for n = 0 to cfg.T.nprocs - 1 do
        if not (List.mem n new_victims) then begin
          let remaining m =
            match Imap.find_opt n m with Some l -> l | None -> []
          in
          let before = remaining old_s.scripts
          and after = remaining sys.scripts in
          if after != before && List.length after < List.length before
          then begin
            match List.hd before with
            | Write (b, v) ->
              commit (Refine.S_store { node = n; block = b; value = v })
            | Write_reg_plus (b, k) ->
              commit
                (Refine.S_store
                   { node = n; block = b; value = reg old_s ~node:n + k })
            | Barrier ->
              commit (Refine.S_barrier_arrive { node = n });
              uops := Imap.add n Barrier !uops
            | (Read _ | Lock _ | Unlock _ | Flag_set _ | Flag_wait _) as op ->
              uops := Imap.add n op !uops
          end
        end
      done;
    (* 2. crash steps *)
    List.iter
      (fun v ->
        uops := Imap.remove v !uops;
        let held = Refine.held_locks !r.rspec v in
        let admissible =
          List.filter_map
            (fun b ->
              match Refine.writer_of !r.rspec b with
              | Some w when w = v -> Some (b, present_values cfg sys b)
              | _ -> None)
            sc.blocks
        in
        commit (Refine.S_crash { victim = v; held; admissible }))
      new_victims;
    (* 3. the commit of an earlier issue: its node runs again *)
    if not (Imap.is_empty !uops) then
      for n = 0 to cfg.T.nprocs - 1 do
        match Imap.find_opt n !uops with
        | Some op when T.is_live sys.v ~node:n && running sys ~node:n ->
          uops := Imap.remove n !uops;
          (match op with
           | Read b ->
             commit
               (Refine.S_load { node = n; block = b; value = reg sys ~node:n })
           | Lock id -> commit (Refine.S_lock { node = n; id })
           | Unlock id -> commit (Refine.S_unlock { node = n; id })
           | Flag_set id -> commit (Refine.S_flag_set { node = n; id })
           | Flag_wait id -> commit (Refine.S_flag_wait { node = n; id })
           | Barrier ->
             commit
               (Refine.S_barrier_pass
                  { node = n; excused = T.halted_mask sys.v })
           | Write _ | Write_reg_plus _ -> assert false)
        | _ -> ()
      done;
    if !errs <> [] then Error (!errs, render_commits !r.rcommits)
    else if !r == r0 && !uops == r0.uops && sys.refine == old_s.refine then
      Ok sys (* a stuttering move *)
    else Ok { sys with refine = Some { !r with uops = !uops } }

let commits_of (sys : sys) =
  match sys.refine with Some r -> render_commits r.rcommits | None -> []

(* Terminal obligations of refinement: no operation left uncommitted
   on a live node, and — when the scenario is DRF and no race was
   detected — every surviving valid copy agrees with the serial
   memory (the SC-for-DRF conclusion itself). *)
let check_refine_terminal (sc : scenario) cfg (sys : sys) =
  match sys.refine with
  | None -> []
  | Some r ->
    let errs = ref [] in
    Imap.iter
      (fun n op ->
        if T.is_live sys.v ~node:n then
          errs :=
            Printf.sprintf "refinement: node %d terminal with uncommitted %s"
              n (string_of_op op)
            :: !errs)
      r.uops;
    if sc.drf && not r.racy then
      List.iter
        (fun b ->
          let allowed = Refine.mem_values r.rspec b in
          for n = 0 to cfg.T.nprocs - 1 do
            (* an ever-crashed node's shadow is its frozen crash
               image, exempt exactly as in flag coherence *)
            if T.halted_mask sys.v land (1 lsl n) = 0 then
              match value sys ~node:n ~block:b with
              | Some v when not (List.mem v allowed) ->
                errs :=
                  Printf.sprintf
                    "refinement: node %d block 0x%x holds %d at terminal, \
                     serial memory allows {%s}"
                    n b v
                    (String.concat "," (List.map string_of_int allowed))
                  :: !errs
              | _ -> ()
          done)
        sc.blocks;
    !errs

let check_state (sc : scenario) cfg (sys : sys) =
  T.invariants cfg sys.v
  @ check_ack_conservation cfg sys
  @ check_flag_coherence cfg sc.blocks sys

let check_terminal (sc : scenario) cfg (sys : sys) =
  let stuck = ref [] in
  (* delivery to a crashed node is disabled, so a frame addressed to
     one would otherwise linger invisibly: the protocol must never
     send to a node it knows is dead *)
  Imap.iter
    (fun key q ->
      if q <> [] && not (T.is_live sys.v ~node:(key mod 1024)) then
        stuck :=
          Printf.sprintf "channel %s: %d frame(s) addressed to crashed node"
            (chan_label key) (List.length q)
          :: !stuck)
    sys.chans;
  Imap.iter
    (fun node script ->
      if script <> [] then
        stuck :=
          Printf.sprintf "node %d stuck with %d operations left (next: %s)"
            node (List.length script)
            (string_of_op (List.hd script))
          :: !stuck)
    sys.scripts;
  for node = 0 to cfg.T.nprocs - 1 do
    (match (T.node_view sys.v ~node).T.nstat with
     | T.N_waiting w ->
       stuck :=
         Printf.sprintf "node %d stuck waiting on %s" node (T.string_of_wait w)
         :: !stuck
     | T.N_running -> ());
    if Imap.mem node sys.pending_read then
      stuck :=
        Printf.sprintf "node %d stuck on an unanswered load" node :: !stuck
  done;
  (* eventual delivery => quiescence: a terminal state must have every
     sublayer channel fully drained — no frame in flight, held out of
     order, or lost-but-unacknowledged.  The retransmit move makes a
     lost frame always recoverable, so anything left here means a
     payload was never delivered to the protocol. *)
  Imap.iter
    (fun key cs ->
      let leak what n =
        if n > 0 then
          stuck :=
            Printf.sprintf
              "channel %s: %d frame(s) %s at terminal (eventual delivery \
               violated)"
              (chan_label key) n what
            :: !stuck
      in
      leak "still on the wire" (List.length cs.wire);
      leak "held out of order" (List.length cs.rx_buf);
      leak "undelivered" (List.length cs.unacked))
    sys.lchans;
  (* once a node has crashed mid-script the scenario's data outcome is
     unknowable (the victim died at an arbitrary position); the
     structural, quiescence and no-survivor-stuck obligations above
     remain in full force *)
  let oracle = if T.halted_mask sys.v = 0 then sc.oracle sys else [] in
  !stuck @ T.quiescent_invariants cfg sys.v @ oracle
  @ check_refine_terminal sc cfg sys

(* ------------------------------------------------------------------ *)
(* Exhaustive search                                                    *)
(* ------------------------------------------------------------------ *)

type violation = {
  verr : string list;
  vtrace : string list;
  vcommits : string list;
      (* the spec steps committed along the trace (refinement mode) *)
}

type result = {
  states : int; (* distinct states visited *)
  transitions : int;
  terminals : int;
  max_depth : int;
  truncated : bool; (* hit the state bound before finishing *)
  violation : violation option;
}

let check_exhaustive ?(injection = No_injection) ?lossy ?crash ?recover
    ?refine ?base ?(max_states = 1_000_000) (sc : scenario) =
  let cfg = cfg_of ?base sc in
  let visited = Hashtbl.create 4096 in
  let c = Collapse.create cfg.T.nprocs in
  let states = ref 0 and transitions = ref 0 and terminals = ref 0 in
  let max_depth = ref 0 and truncated = ref false in
  let violation = ref None in
  let rec dfs sys ids path depth =
    if !violation <> None then ()
    else begin
      if depth > !max_depth then max_depth := depth;
      match check_state sc cfg sys with
      | _ :: _ as errs ->
        violation :=
          Some { verr = errs; vtrace = trace path; vcommits = commits_of sys }
      | [] -> (
        let ms = enabled cfg ~inj:injection sys in
        match ms with
        | [] -> (
          incr terminals;
          match check_terminal sc cfg sys with
          | [] -> ()
          | errs ->
            violation :=
              Some
                { verr = errs; vtrace = trace path; vcommits = commits_of sys })
        | ms ->
          List.iter
            (fun (label, next) ->
              if !violation = None && not !truncated then begin
                let sys' =
                  try next ()
                  with Unexpected e | Failure e | Invalid_argument e ->
                    violation :=
                      Some
                        { verr = [ e ];
                          vtrace = trace (label :: path);
                          vcommits = commits_of sys };
                    sys
                in
                if !violation = None then begin
                  let sys' =
                    match refine_update sc cfg sys sys' with
                    | Ok sys' -> sys'
                    | Error (errs, commits) ->
                      violation :=
                        Some
                          { verr = errs;
                            vtrace = trace (label :: path);
                            vcommits = commits };
                      sys'
                  in
                  if !violation = None then begin
                    incr transitions;
                    let ids' = Collapse.child c sys ids sys' in
                    let key = Collapse.key c ids' sys' in
                    if not (Hashtbl.mem visited key) then begin
                      Hashtbl.add visited key ();
                      incr states;
                      if !states >= max_states then truncated := true
                      else dfs sys' ids' (label :: path) (depth + 1)
                    end
                  end
                end
              end)
            ms)
    end
  in
  let sys0 = init_sys ?lossy ?crash ?recover ?refine ?base sc in
  let ids0 = Collapse.slots c sys0 in
  Hashtbl.add visited (Collapse.key c ids0 sys0) ();
  states := 1;
  dfs sys0 ids0 [] 0;
  { states = !states;
    transitions = !transitions;
    terminals = !terminals;
    max_depth = !max_depth;
    truncated = !truncated;
    violation = !violation }

(* ------------------------------------------------------------------ *)
(* Seeded random-interleaving fuzzer                                    *)
(* ------------------------------------------------------------------ *)

(* Per-run seeds for [fuzz], drawn from one splitmix64 stream keyed on
   the user's seed.  The old scheme ([Prng.of_list [seed; k]]) summed
   seed and run index before finalizing, so (seed, k) and (seed+1,
   k-1) collided — adjacent seeds largely re-explored each other's
   interleavings.  A single well-mixed stream makes all [runs] draws
   distinct with overwhelming probability. *)
let fuzz_seeds ~seed ~runs =
  let master = Shasta_prng.Prng.of_list [ seed ] in
  List.init runs (fun _ -> Shasta_prng.Prng.bits63 master)

(* [fuzz]'s walks; [visit parent s] sees every state the walks reach,
   with the state it was reached from ([None] for a walk's start). *)
let walk ?(injection = No_injection) ?lossy ?crash ?recover ?refine ?base
    ?(visit = fun _ _ -> ()) ~seed ~runs (sc : scenario) =
  let cfg = cfg_of ?base sc in
  let violation = ref None in
  let total_steps = ref 0 in
  let run_one rs =
    let rng = Shasta_prng.Prng.create rs in
    let sys = ref (init_sys ?lossy ?crash ?recover ?refine ?base sc) in
    visit None !sys;
    let path = ref [] in
    let continue = ref true in
    while !continue && !violation = None do
      (match check_state sc cfg !sys with
       | [] -> ()
       | errs ->
         violation :=
           Some
             { verr = errs; vtrace = trace !path; vcommits = commits_of !sys };
         continue := false);
      if !continue then
        match enabled cfg ~inj:injection !sys with
        | [] ->
          (match check_terminal sc cfg !sys with
           | [] -> ()
           | errs ->
             violation :=
               Some
                 { verr = errs;
                   vtrace = trace !path;
                   vcommits = commits_of !sys });
          continue := false
        | ms ->
          let label, next =
            List.nth ms (Shasta_prng.Prng.int rng (List.length ms))
          in
          (try
             let sys' = next () in
             (match refine_update sc cfg !sys sys' with
              | Ok sys' ->
                visit (Some !sys) sys';
                sys := sys';
                path := label :: !path;
                incr total_steps
              | Error (errs, commits) ->
                violation :=
                  Some
                    { verr = errs;
                      vtrace = trace (label :: !path);
                      vcommits = commits };
                continue := false)
           with Unexpected e | Failure e | Invalid_argument e ->
             violation :=
               Some
                 { verr = [ e ];
                   vtrace = trace (label :: !path);
                   vcommits = commits_of !sys };
             continue := false)
    done
  in
  List.iter
    (fun rs -> if !violation = None then run_one rs)
    (fuzz_seeds ~seed ~runs);
  (!total_steps, !violation)

let fuzz ?injection ?lossy ?crash ?recover ?refine ?base ~seed ~runs sc =
  walk ?injection ?lossy ?crash ?recover ?refine ?base ~seed ~runs sc

let compact_keys ?lossy ?crash ?recover ?refine ~seed ~runs sc =
  let c = Collapse.create sc.nprocs in
  let ids = ref [||] and out = ref [] in
  let visit parent s =
    (ids :=
       match parent with
       | Some a -> Collapse.child c a !ids s
       | None -> Collapse.slots c s);
    out := (key s, Collapse.key c !ids s) :: !out
  in
  ignore (walk ?lossy ?crash ?recover ?refine ~visit ~seed ~runs sc);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Scenarios                                                            *)
(* ------------------------------------------------------------------ *)

let b0 = 0
let b1 = Granularity.page_bytes (* a different home when nprocs > 1 *)

let no_oracle _ = []

let expect_value ~node ~block ~want sys =
  match value sys ~node ~block with
  | Some v when v = want -> []
  | Some v ->
    [ Printf.sprintf "node %d block 0x%x: final value %d, want %d" node block v
        want ]
  | None ->
    [ Printf.sprintf "node %d block 0x%x: no valid final copy, want %d" node
        block want ]

let expect_reg ~node ~want sys =
  let v = reg sys ~node in
  if v = want then []
  else [ Printf.sprintf "node %d: read %d, want %d" node v want ]

(* Everyone reads a block the allocator wrote: all end as sharers with
   the same value. *)
let read_sharing ~nprocs =
  { sname = "read-sharing";
    nprocs;
    blocks = [ b0 ];
    scripts =
      Array.init nprocs (fun n -> if n = 0 then [ Write (b0, 7); Barrier; Read b0 ] else [ Barrier; Read b0 ]);
    oracle =
      (fun sys ->
        List.concat_map
          (fun n -> expect_reg ~node:n ~want:7 sys)
          (List.init nprocs Fun.id));
    drf = true;
    cfg_mod = Fun.id }

(* Unsynchronized write race: coherence must survive, and the final
   value is one of the two writes (write serialization). *)
let write_race ~nprocs =
  { sname = "write-race";
    nprocs;
    blocks = [ b0 ];
    scripts =
      Array.init nprocs (fun n ->
        if n < 2 then [ Write (b0, 100 + n) ] else []);
    oracle =
      (fun sys ->
        let owner =
          match T.dir_entry sys.v ~block:b0 with
          | Some e -> e.T.owner
          | None -> 0
        in
        match value sys ~node:owner ~block:b0 with
        | Some v when v = 100 || v = 101 -> []
        | Some v -> [ Printf.sprintf "final value %d is neither write" v ]
        | None -> [ "owner holds no valid copy" ]);
    drf = false;
    cfg_mod = Fun.id }

(* Lock-protected increments: every increment survives (the migratory
   pattern; exercises upgrade misses, forwarding, and inv acks). *)
let lock_increment ~nprocs =
  { sname = "lock-increment";
    nprocs;
    blocks = [ b0 ];
    scripts =
      (* the block starts as value 0, exclusive at node 0 *)
      Array.init nprocs (fun _ ->
        [ Lock 0; Read b0; Write_reg_plus (b0, 1); Unlock 0 ]);
    oracle =
      (fun sys ->
        let owner =
          match T.dir_entry sys.v ~block:b0 with
          | Some e -> e.T.owner
          | None -> 0
        in
        expect_value ~node:owner ~block:b0 ~want:nprocs sys);
    drf = true;
    cfg_mod = Fun.id }

(* Producer/consumer over an event flag: the consumer's read must see
   the producer's data (release->acquire ordering). *)
let flag_handoff =
  { sname = "flag-handoff";
    nprocs = 2;
    blocks = [ b0 ];
    scripts =
      [| [ Write (b0, 42); Flag_set 0 ]; [ Flag_wait 0; Read b0 ] |];
    oracle = (fun sys -> expect_reg ~node:1 ~want:42 sys);
    drf = true;
    cfg_mod = Fun.id }

(* Two blocks with different homes, written on opposite sides of a
   barrier: both post-barrier reads see the pre-barrier writes. *)
let barrier_exchange =
  { sname = "barrier-exchange";
    nprocs = 2;
    blocks = [ b0; b1 ];
    scripts =
      [| [ Write (b0, 5); Barrier; Read b1 ];
         [ Write (b1, 6); Barrier; Read b0 ] |];
    oracle =
      (fun sys ->
        expect_reg ~node:0 ~want:6 sys @ expect_reg ~node:1 ~want:5 sys);
    drf = true;
    cfg_mod = Fun.id }

(* Read-share then upgrade: the writer must collect an invalidation
   acknowledgement from the other sharer before its release completes —
   the scenario that exposes a dropped inv ack. *)
let upgrade_race ~nprocs =
  { sname = "upgrade-race";
    nprocs;
    blocks = [ b0 ];
    scripts =
      Array.init nprocs (fun n ->
        if n = 0 then [ Write (b0, 1); Barrier; Lock 0; Write (b0, 9); Unlock 0 ]
        else [ Barrier; Read b0 ]);
    oracle = no_oracle;
    drf = false;
    cfg_mod = Fun.id }

(* The directed refinement scenario: a producer publishes under a
   flag, then updates the same block inside a critical section; the
   consumer reads the block under the same lock, twice.  Data-race
   free, and every final outcome satisfies the weak data oracle — but
   under SC the consumer's lock-section reads must observe the
   producer's locked store once the producer has released.  The
   [Store_past_release] injection sinks that store past the release
   while every structural invariant, the oracle and quiescence still
   hold: only refinement (each commit pinned to its program-order spec
   step) catches the stale lock-section read. *)
let release_order =
  { sname = "release-order";
    nprocs = 2;
    blocks = [ b0 ];
    scripts =
      [| [ Write (b0, 1); Flag_set 0; Lock 0; Write (b0, 2); Unlock 0 ];
         [ Flag_wait 0; Lock 0; Read b0; Unlock 0; Lock 0; Read b0; Unlock 0 ]
      |];
    oracle =
      (fun sys ->
        let owner =
          match T.dir_entry sys.v ~block:b0 with
          | Some e -> e.T.owner
          | None -> 0
        in
        expect_value ~node:owner ~block:b0 ~want:2 sys
        @
        match reg sys ~node:1 with
        | 1 | 2 -> []
        | v -> [ Printf.sprintf "node 1 read %d, want 1 or 2" v ]);
    drf = true;
    cfg_mod = Fun.id }

let scenarios ~nprocs =
  [ read_sharing ~nprocs;
    write_race ~nprocs;
    lock_increment ~nprocs;
    flag_handoff;
    barrier_exchange;
    upgrade_race ~nprocs ]

(* The scenario family for refinement checking: the base set plus the
   directed release-ordering scenario (kept out of [scenarios] so the
   long-standing state-space baselines stay comparable). *)
let refine_scenarios ~nprocs = scenarios ~nprocs @ [ release_order ]

(* Scenarios safe under the crash adversary: everything except
   [flag_handoff].  An event flag the dead producer never set stays
   unset forever — the protocol cannot invent it — so its consumer is
   legitimately stuck; tolerating dead producers is an application
   obligation (the KV service uses locks and barriers across nodes,
   both of which recovery unblocks). *)
let crash_scenarios ~nprocs =
  [ read_sharing ~nprocs;
    write_race ~nprocs;
    lock_increment ~nprocs;
    barrier_exchange;
    upgrade_race ~nprocs ]

(* --- scaling scenarios ----------------------------------------------- *)

(* Limited-pointer overflow: with one pointer and three nodes sharing
   one block, the second distinct sharer overflows the entry to
   broadcast.  The read-sharing oracle then proves the superset
   semantics never misses a real sharer — a missed invalidation would
   leave a stale unflagged copy, which flag coherence and the final
   reads catch.  The allocator also writes after the barrier so the
   overflowed entry actually drives an invalidation fan-out. *)
let lp_overflow ~nprocs =
  { sname = "lp-overflow";
    nprocs;
    blocks = [ b0 ];
    scripts =
      Array.init nprocs (fun n ->
        if n = 0 then [ Write (b0, 7); Barrier; Read b0; Write (b0, 8) ]
        else [ Barrier; Read b0 ]);
    oracle =
      (fun sys ->
        let owner =
          match T.dir_entry sys.v ~block:b0 with
          | Some e -> e.T.owner
          | None -> 0
        in
        expect_value ~node:owner ~block:b0 ~want:8 sys);
    drf = false;
    cfg_mod = (fun c -> { c with T.dmode = Nodeset.Limited 1 }) }

(* The stale-home trap: an inexact sharer superset can cover the home
   node even though its copy is invalid.  Node 3 writes (invalidating
   the home's initial copy), then readers 1 and 2 race: the writer
   holds the one pointer, so the first reader overflows the entry to a
   broadcast that spuriously includes home 0, and a directory that
   trusts superset membership would serve the second reader the home's
   stale copy directly.  The oracle demands both readers see the write;
   regression for the rule that [home_valid] requires exact
   membership. *)
let lp_home_stale =
  { sname = "lp-home-stale";
    nprocs = 4;
    blocks = [ b0 ];
    scripts =
      Array.init 4 (fun n ->
        if n = 3 then [ Write (b0, 7); Barrier ]
        else if n = 0 then [ Barrier ]
        else [ Barrier; Read b0 ]);
    oracle =
      (fun sys ->
        expect_reg ~node:1 ~want:7 sys @ expect_reg ~node:2 ~want:7 sys);
    drf = true;
    cfg_mod = (fun c -> { c with T.dmode = Nodeset.Limited 1 }) }

(* MCS-style queue lock: lock-protected increments under
   [scalable_sync], where a release hands the lock straight to the
   queued successor instead of bouncing through the home. *)
let queue_lock ~nprocs =
  let sc = lock_increment ~nprocs in
  { sc with
    sname = "queue-lock";
    cfg_mod = (fun c -> { c with T.scalable_sync = true }) }

(* Combining-tree barrier: the barrier-exchange data obligation under
   [scalable_sync], where arrivals climb the static tree and the
   release fans back down it. *)
let tree_barrier =
  { barrier_exchange with
    sname = "tree-barrier";
    cfg_mod = (fun c -> { c with T.scalable_sync = true }) }

(* A 3-node tree barrier plus queue lock in one run: nodes 1 and 2 are
   both children of root 0, so arrival combining actually combines. *)
let scalable_mix ~nprocs =
  let sc = lock_increment ~nprocs in
  { sc with
    sname = "scalable-mix";
    scripts =
      Array.init nprocs (fun _ ->
        [ Lock 0; Read b0; Write_reg_plus (b0, 1); Unlock 0; Barrier ]);
    cfg_mod = (fun c -> { c with T.scalable_sync = true }) }

let scale_scenarios ~nprocs =
  [ lp_overflow ~nprocs;
    lp_home_stale;
    queue_lock ~nprocs;
    tree_barrier;
    scalable_mix ~nprocs ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let pp_violation out { verr; vtrace; vcommits } =
  Printf.fprintf out "  counterexample (%d moves):\n" (List.length vtrace);
  List.iteri (fun k l -> Printf.fprintf out "    %2d. %s\n" (k + 1) l) vtrace;
  if vcommits <> [] then begin
    Printf.fprintf out "  committed spec steps (%d):\n" (List.length vcommits);
    List.iteri
      (fun k l -> Printf.fprintf out "    %2d. %s\n" (k + 1) l)
      vcommits
  end;
  List.iter (fun e -> Printf.fprintf out "  violated: %s\n" e) verr

let run_scenario ?injection ?lossy ?crash ?recover ?refine ?base ?max_states
    out (sc : scenario) =
  let r =
    check_exhaustive ?injection ?lossy ?crash ?recover ?refine ?base
      ?max_states sc
  in
  Printf.fprintf out
    "%-17s P=%d  states=%-7d transitions=%-8d terminals=%-6d depth=%d%s\n"
    sc.sname sc.nprocs r.states r.transitions r.terminals r.max_depth
    (if r.truncated then " (truncated)" else "");
  (match r.violation with
   | Some v -> pp_violation out v
   | None -> ());
  r
