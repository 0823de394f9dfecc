(* Cluster interconnect model.

   The Shasta protocol "depends on point-to-point order for messages
   sent between any two nodes" (Section 2.1).  This module provides
   per-(src,dst) FIFO channels with a configurable cost model (costs
   are in processor cycles of the 275 MHz machines of the paper; the
   two named profiles approximate the Memory Channel and ATM clusters
   used in the evaluation, and `ideal` isolates protocol behaviour from
   communication cost in tests).

   Every send takes one path: plan the frame's arrival time at send
   time, clamp it to the channel's previous delivery (the per-channel
   FIFO point), and queue it.  On the reliable wire the paper assumes,
   the arrival is the send overhead plus the flight time.  On an
   optional UNRELIABLE wire ([faults]: commodity interconnects drop
   and delay packets) the arrival is planned by the sender half of a
   reliable-delivery sublayer ([tx_plan]): each dropped attempt is
   retransmitted after a timeout that doubles every time.  The fault
   coins come from a per-channel seeded stream, so the same seed and
   send sequence give the same faults and faulty runs replay.  The
   receiver half needs no state: the FIFO clamp already delivers every
   frame in channel order, exactly once.  So the protocol sees only
   retransmission stalls and extra delay, which the observability taps
   count and attribute ([on_fault]); the wire keeps no tally of its
   own. *)

type profile = {
  net_name : string;
  send_overhead : int; (* cycles spent by the sending CPU *)
  recv_overhead : int; (* cycles spent by the receiving CPU per message *)
  wire_latency : int; (* cycles of flight time *)
  per_longword : int; (* additional flight cycles per payload longword *)
}

(* Memory Channel: a few microseconds end to end at 275 MHz. *)
let memory_channel =
  { net_name = "memory-channel"; send_overhead = 250; recv_overhead = 400;
    wire_latency = 700; per_longword = 2 }

(* ATM: an order of magnitude slower, dominated by driver overheads. *)
let atm =
  { net_name = "atm"; send_overhead = 2500; recv_overhead = 3500;
    wire_latency = 5000; per_longword = 8 }

let ideal =
  { net_name = "ideal"; send_overhead = 1; recv_overhead = 1;
    wire_latency = 1; per_longword = 0 }

let profile_of_string = function
  | "mc" | "memory-channel" -> memory_channel
  | "atm" -> atm
  | "ideal" -> ideal
  | s -> invalid_arg ("Network.profile_of_string: " ^ s)

(* ------------------------------------------------------------------ *)
(* Fault model                                                         *)
(* ------------------------------------------------------------------ *)

type faults = {
  fseed : int; (* per-channel RNG seed component *)
  drop : float; (* per-transmission-attempt loss probability *)
  delay : float; (* probability of [delay_cycles] of extra flight time *)
  delay_cycles : int;
  rto : int; (* base retransmission timeout; 0 = derive from profile *)
}

let no_faults =
  { fseed = 1; drop = 0.0; delay = 0.0; delay_cycles = 2000; rto = 0 }

(* The standard fault matrix the test suite and benchmarks run under:
   1% loss — commodity-LAN weather. *)
let standard = { no_faults with drop = 0.01 }

(* "none" | "standard" | "drop=0.01,delay=0.05,delay-cycles=2000,
   seed=3,rto=5000".  An unknown key, or a value out of range, is an
   error naming its key, never clamped: probabilities are finite and in
   [0, 0.9], cycle counts non-negative.  [max-retx] must be 0: a
   bounded channel abandons frames that nothing re-sends, and the
   protocol then waits forever for the lost reply or ack. *)
let faults_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "" | "0" | "none" | "off" -> None
  | "standard" | "std" -> Some standard
  | spec ->
    let f = ref no_faults in
    List.iter
      (fun kv ->
        let kv = String.trim kv in
        if kv <> "" then
          match String.index_opt kv '=' with
          | None ->
            invalid_arg ("Network.faults_of_string: expected key=value: " ^ kv)
          | Some i ->
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let bad what =
              invalid_arg
                (Printf.sprintf "Network.faults_of_string: %s needs %s, got %S"
                   k what v)
            in
            (* NaN fails both comparisons *)
            let fv () =
              match float_of_string_opt v with
              | Some p when p >= 0.0 && p <= 0.9 -> p
              | _ -> bad "a probability in [0, 0.9]"
            in
            let iv ?(lo = min_int) () =
              match int_of_string_opt v with
              | Some n when n >= lo -> n
              | _ ->
                bad (if lo = 0 then "a non-negative integer" else "an integer")
            in
            (match k with
             | "drop" -> f := { !f with drop = fv () }
             | "delay" -> f := { !f with delay = fv () }
             | "delay-cycles" | "delay_cycles" ->
               f := { !f with delay_cycles = iv ~lo:0 () }
             | "seed" -> f := { !f with fseed = iv () }
             | "rto" -> f := { !f with rto = iv ~lo:0 () }
             | "max-retx" | "max_retx" ->
               if int_of_string_opt v <> Some 0 then
                 bad
                   "0 (a frame abandoned after N retransmissions is never \
                    re-sent, so the run would deadlock)"
             | _ -> invalid_arg ("Network.faults_of_string: unknown key " ^ k)))
      (String.split_on_char ',' spec);
    Some !f

let describe_faults f =
  Printf.sprintf "drop=%.3f delay=%.3f seed=%d" f.drop f.delay f.fseed

(* What the fault layer did to one logical send: [retx] dropped
   transmission attempts (each one retransmitted after a timeout),
   [backoff] total cycles spent waiting for those timeouts. *)
type xmit = { retx : int; backoff : int }

(* Plan the transmission of one frame over the faulty wire.  Attempt 0
   goes out at [now]; each dropped attempt is retransmitted after a
   timeout that doubles every time (exponential backoff).  Returns the
   arrival time of the first surviving copy and the fault summary.
   Deterministic in [rng].  There are at most [max_attempts] tries, the
   last of which always survives: the model never loses a frame for
   good, which would wedge the protocol, not slow it. *)
let max_attempts = 16

let tx_plan (f : faults) rng ~now ~flight ~rto =
  let rec attempts k start backoff =
    if k < max_attempts - 1 && Random.State.float rng 1.0 < f.drop then
      let timeout = rto * (1 lsl min k 10) in
      attempts (k + 1) (start + timeout) (backoff + timeout)
    else (k, start, backoff)
  in
  let retx, start, backoff = attempts 0 now 0 in
  let arrival = start + flight in
  let arrival =
    if f.delay > 0.0 && Random.State.float rng 1.0 < f.delay then
      arrival + f.delay_cycles
    else arrival
  in
  (arrival, { retx; backoff })

(* ------------------------------------------------------------------ *)
(* The interconnect                                                    *)
(* ------------------------------------------------------------------ *)

type 'a queued = { deliver : int; seq : int; msg : 'a }

type 'a t = {
  profile : profile;
  nprocs : int;
  (* chan.(src * nprocs + dst) *)
  chans : 'a queued Queue.t array;
  pending : int array;
      (* per destination: frames queued on all its incoming channels *)
  earliest : int array;
      (* per destination: the earliest [deliver] among its queued
         frames, [max_int] when none — what the scheduler keys a
         waiting node by, read in O(1).  A channel's [deliver] times
         never decrease, so its head is its earliest frame: a push can
         only lower the value, and only a pop or a purge recomputes it
         from the P channel heads. *)
  moved : int array;
  mutable nmoved : int;
  is_moved : bool array;
      (* the destinations whose [earliest] changed since the scheduler
         last looked: a stack of at most [nprocs] distinct entries,
         deduplicated by [is_moved], so marking never allocates *)
  last_deliver : int array; (* per channel, for FIFO ordering *)
  mutable seq : int;
  mutable sent : int;
  mutable payload_longs : int;
  (* the unreliable wire's spec and its per-channel fault coin streams,
     seeded (fseed, src, dst); [None] on the paper's reliable wire *)
  faulty : (faults * Random.State.t array) option;
  (* the implicit heartbeat stream: the last cycle each node put a
     frame on the wire *)
  last_activity : int array;
  (* observability taps: called on every send (at the sender's time)
     and every delivery (at arrival time).  The network itself stays
     agnostic of what listens; the cluster wires these into the
     observability subsystem.  [on_fault] fires at send time whenever
     the fault layer perturbed a frame. *)
  mutable on_send : src:int -> dst:int -> now:int -> 'a -> unit;
  mutable on_recv : src:int -> dst:int -> now:int -> 'a -> unit;
  mutable on_fault : src:int -> dst:int -> now:int -> xmit -> 'a -> unit;
}

let no_tap ~src:_ ~dst:_ ~now:_ _ = ()
let no_fault_tap ~src:_ ~dst:_ ~now:_ _ _ = ()

let create ?faults ~nprocs profile =
  let nchan = nprocs * nprocs in
  { profile; nprocs;
    chans = Array.init nchan (fun _ -> Queue.create ());
    pending = Array.make nprocs 0;
    earliest = Array.make nprocs max_int;
    moved = Array.make nprocs 0;
    nmoved = 0;
    is_moved = Array.make nprocs false;
    last_deliver = Array.make nchan 0;
    seq = 0; sent = 0; payload_longs = 0;
    faulty =
      Option.map
        (fun f ->
          ( f,
            Array.init nchan (fun c ->
              Random.State.make [| f.fseed; c / nprocs; c mod nprocs |]) ))
        faults;
    last_activity = Array.make nprocs 0;
    on_send = no_tap; on_recv = no_tap; on_fault = no_fault_tap }

let set_taps t ~on_send ~on_recv =
  t.on_send <- on_send;
  t.on_recv <- on_recv

let set_fault_tap t ~on_fault = t.on_fault <- on_fault

let chan t ~src ~dst = (src * t.nprocs) + dst

let mark_moved t dst =
  if not t.is_moved.(dst) then begin
    t.is_moved.(dst) <- true;
    t.moved.(t.nmoved) <- dst;
    t.nmoved <- t.nmoved + 1
  end

let pop_moved t =
  if t.nmoved = 0 then -1
  else begin
    t.nmoved <- t.nmoved - 1;
    let dst = t.moved.(t.nmoved) in
    t.is_moved.(dst) <- false;
    dst
  end

(* Recompute [dst]'s earliest arrival from its channel heads. *)
let refresh t ~dst =
  let best = ref max_int in
  if t.pending.(dst) > 0 then
    for src = 0 to t.nprocs - 1 do
      let q = t.chans.(chan t ~src ~dst) in
      if not (Queue.is_empty q) then begin
        let d = (Queue.peek q).deliver in
        if d < !best then best := d
      end
    done;
  if !best <> t.earliest.(dst) then begin
    t.earliest.(dst) <- !best;
    mark_moved t dst
  end

let enqueue t ~dst c frame =
  Queue.push frame t.chans.(c);
  t.pending.(dst) <- t.pending.(dst) + 1;
  if frame.deliver < t.earliest.(dst) then begin
    t.earliest.(dst) <- frame.deliver;
    mark_moved t dst
  end

(* Send a message; returns the time at which the sender is done with the
   send (the caller charges this to the sending node). *)
let send t ~src ~dst ~now ~payload_longs msg =
  let p = t.profile in
  let c = chan t ~src ~dst in
  let start = now + p.send_overhead in
  let flight = p.wire_latency + (p.per_longword * payload_longs) in
  t.last_activity.(src) <- max t.last_activity.(src) now;
  let arrival =
    match t.faulty with
    | None -> start + flight
    | Some (f, rngs) ->
      let rto =
        if f.rto > 0 then f.rto
        else 4 * (p.send_overhead + p.wire_latency + p.recv_overhead)
      in
      let arrival, x = tx_plan f rngs.(c) ~now:start ~flight ~rto in
      if x.retx > 0 then t.on_fault ~src ~dst ~now x msg;
      arrival
  in
  (* point-to-point FIFO: never deliver before a previously sent
     message on the same channel *)
  let deliver = max arrival t.last_deliver.(c) in
  t.last_deliver.(c) <- deliver;
  t.seq <- t.seq + 1;
  enqueue t ~dst c { deliver; seq = t.seq; msg };
  t.sent <- t.sent + 1;
  t.payload_longs <- t.payload_longs + payload_longs;
  t.on_send ~src ~dst ~now msg;
  start

let next_arrival t ~dst = t.earliest.(dst)

(* Pop the earliest message for [dst] with arrival <= [now].  Ties are
   broken by global send order, keeping the simulation deterministic. *)
let recv t ~dst ~now =
  if t.pending.(dst) = 0 || t.earliest.(dst) > now then None
  else begin
    let best = ref (-1) and best_deliver = ref 0 and best_seq = ref 0 in
    for src = 0 to t.nprocs - 1 do
      let q = t.chans.(chan t ~src ~dst) in
      if not (Queue.is_empty q) then begin
        let f = Queue.peek q in
        if f.deliver <= now
           && (!best < 0 || f.deliver < !best_deliver
               || (f.deliver = !best_deliver && f.seq < !best_seq))
        then begin
          best := src;
          best_deliver := f.deliver;
          best_seq := f.seq
        end
      end
    done;
    let src = !best in
    let q = Queue.pop t.chans.(chan t ~src ~dst) in
    t.pending.(dst) <- t.pending.(dst) - 1;
    refresh t ~dst;
    t.on_recv ~src ~dst ~now:q.deliver q.msg;
    Some (q.deliver, q.msg)
  end

let pending_for t ~dst = t.pending.(dst)

let in_flight t = Array.fold_left ( + ) 0 t.pending

let queued t =
  let acc = ref [] in
  Array.iteri
    (fun c q ->
      Queue.iter
        (fun f -> acc := (c / t.nprocs, c mod t.nprocs, f.deliver, f.msg) :: !acc)
        q)
    t.chans;
  List.rev !acc

let stats t = (t.sent, t.payload_longs)

(* ------------------------------------------------------------------ *)
(* Node-level liveness                                                 *)
(* ------------------------------------------------------------------ *)

let last_activity t ~node = t.last_activity.(node)

(* Declare [node] crashed: every frame still queued to or from it is
   removed from the wire and returned (in global send order, so the
   caller's recovery handling is deterministic and replayable), and the
   FIFO points of those channels are reset (a recovered node's traffic
   is not held behind purged frames).  The wire keeps no record of the
   death: the protocol above sends nothing to a node it knows crashed,
   and a frame that did reach such a node would stay queued until the
   scheduler reported the run deadlocked. *)
let mark_dead t ~node =
  let lost = ref [] in
  for other = 0 to t.nprocs - 1 do
    List.iter
      (fun (src, dst) ->
        let c = chan t ~src ~dst in
        Queue.iter
          (fun (q : _ queued) -> lost := (q.seq, src, dst, q.msg) :: !lost)
          t.chans.(c);
        t.pending.(dst) <- t.pending.(dst) - Queue.length t.chans.(c);
        Queue.clear t.chans.(c);
        t.last_deliver.(c) <- 0)
      (if other = node then [ (node, node) ]
       else [ (node, other); (other, node) ])
  done;
  for dst = 0 to t.nprocs - 1 do
    refresh t ~dst
  done;
  List.map (fun (_, src, dst, msg) -> (src, dst, msg))
    (List.sort compare !lost)
