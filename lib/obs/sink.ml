(* Pluggable event sinks.

   A sink is a pair of closures: [on_record] consumes each event
   record as it is emitted, [flush] finalizes any buffered output
   (closing the Chrome JSON array, for instance).  Three sinks cover
   the subsystem's uses: an in-memory ring buffer for tests, a
   line-oriented text log subsuming the old [State.trace] callback,
   and Chrome trace_event JSON that opens directly in
   chrome://tracing or Perfetto with one track per node. *)

type t = {
  on_record : Event.record -> unit;
  flush : unit -> unit;
}

let flush t = t.flush ()

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

type ring = {
  cap : int;
  buf : Event.record option array;
  mutable next : int; (* total records ever pushed *)
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  { cap = capacity; buf = Array.make capacity None; next = 0 }

let ring_sink r =
  { on_record =
      (fun rec_ ->
        r.buf.(r.next mod r.cap) <- Some rec_;
        r.next <- r.next + 1);
    flush = (fun () -> ()) }

(* Records still held, oldest first. *)
let ring_contents r =
  let kept = min r.next r.cap in
  List.init kept (fun i ->
    Option.get r.buf.((r.next - kept + i) mod r.cap))

(* Records pushed out of the buffer by later ones. *)
let ring_dropped r = max 0 (r.next - r.cap)

(* ------------------------------------------------------------------ *)
(* Text log                                                            *)
(* ------------------------------------------------------------------ *)

(* One line per record: "  <cycle> n<node> <description>", matching the
   shape of the printf trace this subsystem replaces; site-stamped
   records carry their (proc, pc) so traces can be read next to the
   disassembly. *)
let line (r : Event.record) =
  let site =
    match r.site with
    | Some s -> Printf.sprintf " [%d:%d]" s.sproc s.spc
    | None -> ""
  in
  Printf.sprintf "%8d n%d %s%s" r.time r.node (Event.describe r.ev) site

let text out = { on_record = (fun r -> out (line r)); flush = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)
(* ------------------------------------------------------------------ *)

(* The "JSON array format": a top-level array of event objects, which
   both chrome://tracing and Perfetto accept.  Cycles are written as
   the microsecond timestamps the format expects — the UI then simply
   displays simulated cycles as "us".  All nodes share pid 0 and get
   one track (tid) each.  Stalls become complete ("X") events spanning
   their duration; everything else is an instant ("i"). *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let chrome_args (ev : Event.t) =
  let kv = Printf.sprintf in
  match ev with
  | Msg_send { dst; kind = _; block; longs } ->
    [ kv "\"dst\":%d" dst; kv "\"block\":\"0x%x\"" block;
      kv "\"longs\":%d" longs ]
  | Msg_recv { src; kind = _; block; longs } ->
    [ kv "\"src\":%d" src; kv "\"block\":\"0x%x\"" block;
      kv "\"longs\":%d" longs ]
  | Miss { addr; _ } | False_miss { addr } | Store_reissue { addr } ->
    [ kv "\"addr\":\"0x%x\"" addr ]
  | Invalidated { addr; requester } | Downgraded { addr; requester } ->
    [ kv "\"addr\":\"0x%x\"" addr; kv "\"requester\":%d" requester ]
  | Stall _ -> []
  | Span { addr; dur; _ } ->
    [ kv "\"addr\":\"0x%x\"" addr; kv "\"dur\":%d" dur ]
  | Lock_acquired { id } | Flag_raised { id } | Flag_woken { id } ->
    [ kv "\"id\":%d" id ]
  | Batch_run { nranges; waited } ->
    [ kv "\"nranges\":%d" nranges; kv "\"waited\":%d" waited ]
  | Net_fault { dst; retx; backoff; _ } ->
    [ kv "\"dst\":%d" dst; kv "\"retx\":%d" retx;
      kv "\"backoff\":%d" backoff ]
  | Node_crash { victim } | Node_recover { victim } ->
    [ kv "\"victim\":%d" victim ]
  | Lease_takeover { id; from } ->
    [ kv "\"id\":%d" id; kv "\"from\":%d" from ]
  | Dir_rebuild { block; from } ->
    [ kv "\"block\":\"0x%x\"" block; kv "\"from\":%d" from ]
  | Barrier_passed | Node_finished -> []

let chrome_record (r : Event.record) =
  let name = json_escape (Event.chrome_name r.ev) in
  let args = String.concat "," (chrome_args r.ev) in
  match r.ev with
  | Stall { started; cycles; _ } ->
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\
       \"tid\":%d,\"args\":{%s}}"
      name started cycles r.node args
  | _ ->
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%d,\"pid\":0,\"tid\":%d,\
       \"s\":\"t\",\"args\":{%s}}"
      name r.time r.node args

(* Streaming writer: records go out as they arrive; [flush] closes the
   array — exactly once, however often it is called (the CLI and a
   library user may both flush the same [Obs.t]; a second terminator
   would corrupt the JSON).  Records arriving after the close are
   dropped.  A metadata record names each node's track; profiler spans
   become async ("b"/"e") pairs on the emitting node's track. *)
let chrome ?(nprocs = 0) oc =
  let first = ref true in
  let closed = ref false in
  let next_span = ref 0 in
  let emit s =
    if !first then first := false else output_string oc ",\n";
    output_string oc s
  in
  output_string oc "[\n";
  for n = 0 to nprocs - 1 do
    emit
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
          \"args\":{\"name\":\"node %d\"}}"
         n n)
  done;
  { on_record =
      (fun r ->
        if not !closed then
          match r.ev with
          | Event.Span { kind; addr; dur } ->
            incr next_span;
            let name = json_escape ("span:" ^ kind) in
            emit
              (Printf.sprintf
                 "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"b\",\"ts\":%d,\
                  \"pid\":0,\"tid\":%d,\"id\":%d,\"args\":{\"addr\":\"0x%x\"}}"
                 name r.time r.node !next_span addr);
            emit
              (Printf.sprintf
                 "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"e\",\"ts\":%d,\
                  \"pid\":0,\"tid\":%d,\"id\":%d,\"args\":{}}"
                 name (r.time + dur) r.node !next_span)
          | _ -> emit (chrome_record r));
    flush =
      (fun () ->
        if not !closed then begin
          closed := true;
          output_string oc "\n]\n";
          Stdlib.flush oc
        end) }
