(* Typed observability events.

   Every interesting runtime occurrence — protocol messages, miss-check
   outcomes, invalidations, stalls, synchronization, batch handling —
   is one constructor here, stamped (in [record]) with the emitting
   node and its simulated cycle time.  The stream replaces the old
   printf-style [State.trace] callback: sinks render records as text,
   keep them in memory for tests, or export Chrome trace_event JSON. *)

type miss_kind = Read | Write | Upgrade

let miss_kind_name = function
  | Read -> "read"
  | Write -> "write"
  | Upgrade -> "upgrade"

(* Code location of the emitting node when the event happened: procedure
   index and instruction index into the frozen image, plus the call
   stack by reference ([Node.call_stack] is an immutable list, so
   storing it costs nothing).  The profiler aggregates per-site; the
   image maps (sproc, spc) back to a source label. *)
type site = { sproc : int; spc : int; sstack : (int * int) list }

(* What a stalled node waited for: a missing block, outstanding
   acknowledgements at a release, or a synchronization signal. *)
type stall_reason = Wait_miss | Wait_release | Wait_sync

let stall_reason_name = function
  | Wait_miss -> "miss"
  | Wait_release -> "release"
  | Wait_sync -> "sync"

type t =
  | Msg_send of { dst : int; kind : string; block : int; longs : int }
      (* a message actually handed to the interconnect (local
         deliveries never reach the network and are not counted,
         keeping event-derived totals equal to [Network.stats]) *)
  | Msg_recv of { src : int; kind : string; block : int; longs : int }
  | Miss of { kind : miss_kind; addr : int }
  | False_miss of { addr : int }
      (* the inline check fired but the state lookup resolved it *)
  | Invalidated of { addr : int; requester : int }
  | Downgraded of { addr : int; requester : int }
  | Stall of { reason : stall_reason; started : int; cycles : int }
      (* emitted at wake-up, when the duration is known *)
  | Lock_acquired of { id : int }
  | Barrier_passed
  | Flag_raised of { id : int }
  | Flag_woken of { id : int }
  | Batch_run of { nranges : int; waited : int }
  | Store_reissue of { addr : int }
  | Node_finished
  | Span of { kind : string; addr : int; dur : int }
      (* a matched protocol transaction (request to reply), synthesized
         by the profiler and drained into sinks at flush; [record.time]
         is the span's start *)
  | Net_fault of { dst : int; kind : string; retx : int; backoff : int }
      (* the fault layer perturbed one logical send: [retx] attempts
         were dropped and retransmitted ([backoff] cycles of timeout).
         Emitted at the sender's time with the sender's site, so
         retransmission stalls attribute to the code that paid for
         them. *)
  | Node_crash of { victim : int }
      (* crash-marker: the injector halted [victim]; stamped with the
         crash cycle so recovery cost is measurable from the trace *)
  | Node_recover of { victim : int }
      (* the injector brought [victim] back (protocol duties only — its
         program died with it) *)
  | Lease_takeover of { id : int; from : int }
      (* a lock/flag lease held by crashed node [from] was reclaimed so
         waiters make progress *)
  | Dir_rebuild of { block : int; from : int }
      (* a directory entry owned by (or homed on) crashed node [from]
         was reconstructed from surviving sharer state *)

type record = { node : int; time : int; ev : t; site : site option }

let describe = function
  | Msg_send { dst; kind; block; longs } ->
    Printf.sprintf "-> n%d %s @0x%x (%d lw)" dst kind block longs
  | Msg_recv { src; kind; block; longs } ->
    Printf.sprintf "<- n%d %s @0x%x (%d lw)" src kind block longs
  | Miss { kind; addr } ->
    Printf.sprintf "miss %s @0x%x" (miss_kind_name kind) addr
  | False_miss { addr } -> Printf.sprintf "false-miss @0x%x" addr
  | Invalidated { addr; requester } ->
    Printf.sprintf "inval @0x%x (ack->n%d)" addr requester
  | Downgraded { addr; requester } ->
    Printf.sprintf "downgrade @0x%x (for n%d)" addr requester
  | Stall { reason; started; cycles } ->
    Printf.sprintf "stall %s %d cyc (since %d)" (stall_reason_name reason)
      cycles started
  | Lock_acquired { id } -> Printf.sprintf "lock %d" id
  | Barrier_passed -> "barrier"
  | Flag_raised { id } -> Printf.sprintf "flag-set %d" id
  | Flag_woken { id } -> Printf.sprintf "flag-wake %d" id
  | Batch_run { nranges; waited } ->
    Printf.sprintf "batch %d range(s), %d wait(s)" nranges waited
  | Store_reissue { addr } -> Printf.sprintf "store-reissue @0x%x" addr
  | Node_finished -> "finished"
  | Span { kind; addr; dur } ->
    Printf.sprintf "span %s @0x%x %d cyc" kind addr dur
  | Net_fault { dst; kind; retx; backoff } ->
    Printf.sprintf "net-fault -> n%d %s%s" dst kind
      (if retx > 0 then Printf.sprintf " retx=%d (+%d cyc)" retx backoff
       else "")
  | Node_crash { victim } -> Printf.sprintf "node-crash n%d" victim
  | Node_recover { victim } -> Printf.sprintf "node-recover n%d" victim
  | Lease_takeover { id; from } ->
    Printf.sprintf "lease-takeover %d (from n%d)" id from
  | Dir_rebuild { block; from } ->
    Printf.sprintf "dir-rebuild @0x%x (from n%d)" block from

(* Short name used as the Chrome trace_event [name] field. *)
let chrome_name = function
  | Msg_send { kind; _ } -> "send:" ^ kind
  | Msg_recv { kind; _ } -> "recv:" ^ kind
  | Miss { kind; _ } -> "miss:" ^ miss_kind_name kind
  | False_miss _ -> "false-miss"
  | Invalidated _ -> "inval"
  | Downgraded _ -> "downgrade"
  | Stall { reason; _ } -> "stall:" ^ stall_reason_name reason
  | Lock_acquired _ -> "lock"
  | Barrier_passed -> "barrier"
  | Flag_raised _ -> "flag-set"
  | Flag_woken _ -> "flag-wake"
  | Batch_run _ -> "batch"
  | Store_reissue _ -> "store-reissue"
  | Node_finished -> "finished"
  | Span { kind; _ } -> "span:" ^ kind
  | Net_fault { kind; _ } -> "net-fault:" ^ kind
  | Node_crash _ -> "node-crash"
  | Node_recover _ -> "node-recover"
  | Lease_takeover _ -> "lease-takeover"
  | Dir_rebuild _ -> "dir-rebuild"
