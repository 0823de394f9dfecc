(* Observability subsystem: sink plumbing, metrics registry semantics,
   and properties tying the typed event stream back to the network's
   own accounting. *)

open Shasta_runtime
module Obs = Shasta_obs.Obs
module Event = Shasta_obs.Event
module Metrics = Shasta_obs.Metrics
module Sink = Shasta_obs.Sink

let mk_rec node time ev = { Event.node; time; ev; site = None }

(* naive substring scan — enough for asserting on rendered output *)
let occurrences ~sub s =
  let n = String.length s and m = String.length sub in
  let c = ref 0 in
  for i = 0 to n - m do
    if String.sub s i m = sub then incr c
  done;
  !c

let contains ~sub s = occurrences ~sub s > 0

(* --- ring buffer ---------------------------------------------------- *)

let test_ring_keeps_latest () =
  let r = Sink.ring ~capacity:4 in
  let s = Sink.ring_sink r in
  for i = 0 to 9 do
    s.on_record (mk_rec 0 i Event.Barrier_passed)
  done;
  Alcotest.(check int) "dropped" 6 (Sink.ring_dropped r);
  Alcotest.(check (list int))
    "latest, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (r : Event.record) -> r.time) (Sink.ring_contents r))

let test_ring_partial () =
  let r = Sink.ring ~capacity:8 in
  let s = Sink.ring_sink r in
  for i = 0 to 2 do
    s.on_record (mk_rec 1 (10 * i) (Event.Lock_acquired { id = i }))
  done;
  Alcotest.(check int) "no drops" 0 (Sink.ring_dropped r);
  Alcotest.(check int) "held" 3 (List.length (Sink.ring_contents r))

(* --- fan-out plumbing ----------------------------------------------- *)

let test_fanout () =
  let obs = Obs.create ~nprocs:2 () in
  Alcotest.(check bool) "sinkless" false (Obs.recording obs);
  let lines = ref [] in
  let ring = Sink.ring ~capacity:16 in
  Obs.attach obs (Sink.text (fun l -> lines := l :: !lines));
  Obs.attach obs (Sink.ring_sink ring);
  Alcotest.(check bool) "tracing on" true (Obs.recording obs);
  Obs.emit obs ~node:1 ~time:42
    (Event.Miss { kind = Event.Read; addr = 0x1000 });
  Alcotest.(check int) "text sink saw it" 1 (List.length !lines);
  Alcotest.(check int) "ring sink saw it" 1
    (List.length (Sink.ring_contents ring));
  Alcotest.(check bool) "line carries the node" true
    (contains ~sub:"n1" (List.hd !lines));
  (* the same emit also fed the registry *)
  Alcotest.(check int) "registry counted the miss" 1
    (Metrics.counter (Obs.metrics obs) Obs.c_miss_read 1)

(* --- histogram bucketing -------------------------------------------- *)

let test_histogram_buckets () =
  let m = Metrics.create ~nprocs:2 in
  (* bounds: 1;2;4;8;16;... — bucket i counts v <= bounds.(i) *)
  List.iter
    (fun v -> Metrics.observe m ~node:0 "h" v)
    [ 1; 2; 3; 4; 5000 ];
  Metrics.observe m ~node:1 "h" 2_000_000 (* beyond the last bound *);
  let agg = Metrics.hist_total m "h" in
  Alcotest.(check int) "n" 6 agg.Metrics.n;
  Alcotest.(check int) "sum" 2005010 agg.Metrics.sum;
  Alcotest.(check int) "max" 2_000_000 agg.Metrics.hmax;
  Alcotest.(check int) "<=1" 1 agg.Metrics.counts.(0);
  Alcotest.(check int) "<=2" 1 agg.Metrics.counts.(1);
  Alcotest.(check int) "<=4 (3 and 4)" 2 agg.Metrics.counts.(2);
  Alcotest.(check int) "<=16384 (5000)" 1 agg.Metrics.counts.(12);
  Alcotest.(check int) "overflow" 1
    agg.Metrics.counts.(Array.length agg.Metrics.bounds);
  (* per-node cells stay separate *)
  Alcotest.(check int) "node 0 count" 5 (Metrics.hist m "h" 0).Metrics.n;
  Alcotest.(check int) "node 1 count" 1 (Metrics.hist m "h" 1).Metrics.n

let test_copy_sub () =
  let m = Metrics.create ~nprocs:2 in
  Metrics.add m ~node:0 "c" 5;
  Metrics.observe m ~node:0 "h" 3;
  let snap = Metrics.copy m in
  Metrics.add m ~node:0 "c" 2;
  Metrics.add m ~node:1 "c" 7;
  Metrics.observe m ~node:1 "h" 100;
  let d = Metrics.sub m snap in
  Alcotest.(check int) "delta node 0" 2 (Metrics.counter d "c" 0);
  Alcotest.(check int) "delta node 1" 7 (Metrics.counter d "c" 1);
  Alcotest.(check int) "delta hist n" 1 (Metrics.hist_total d "h").Metrics.n;
  (* the snapshot is unaffected by later increments *)
  Alcotest.(check int) "snapshot froze" 5 (Metrics.counter snap "c" 0);
  (* dumps render without raising and mention the metrics *)
  let s = Metrics.to_string m in
  Alcotest.(check bool) "text dump has histogram" true
    (contains ~sub:"histogram h" s);
  let csv = Metrics.to_csv m in
  Alcotest.(check bool) "csv header" true
    (String.length csv >= 17 && String.sub csv 0 17 = "metric,node,value")

(* --- chrome trace sink ---------------------------------------------- *)

let test_chrome_sink () =
  let file = Filename.temp_file "shasta_trace" ".json" in
  let oc = open_out file in
  let sink = Sink.chrome ~nprocs:2 oc in
  sink.on_record (mk_rec 0 10 (Event.Msg_send
    { dst = 1; kind = "read_req"; block = 0x4000; longs = 4 }));
  sink.on_record (mk_rec 1 20 (Event.Stall
    { reason = Event.Wait_miss; started = 12; cycles = 8 }));
  Sink.flush sink;
  (* flush is idempotent: a second flush (e.g. Obs.flush called twice,
     or an at_exit handler racing an explicit flush) must not emit a
     second terminator, and late records are dropped, not appended
     after the closing bracket *)
  Sink.flush sink;
  sink.on_record (mk_rec 0 30 Event.Barrier_passed);
  Sink.flush sink;
  close_out oc;
  let ic = open_in file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  let t = String.trim s in
  Alcotest.(check bool) "opens array" true (t.[0] = '[');
  Alcotest.(check bool) "closes array" true (t.[String.length t - 1] = ']');
  Alcotest.(check int) "two thread_name metadata rows" 2
    (occurrences ~sub:"\"thread_name\"" t);
  Alcotest.(check int) "one complete (stall) event" 1
    (occurrences ~sub:"\"ph\":\"X\"" t);
  Alcotest.(check int) "one instant event" 1
    (occurrences ~sub:"\"ph\":\"i\"" t);
  Alcotest.(check bool) "stall has a duration" true
    (contains ~sub:"\"dur\":8" t);
  Alcotest.(check int) "single closing bracket despite double flush" 1
    (occurrences ~sub:"]" t);
  Alcotest.(check int) "post-flush record dropped" 0
    (occurrences ~sub:"barrier" t)

(* --- properties over real runs -------------------------------------- *)

(* Run [migratory] with a ring sink attached and hand back the records
   plus the legacy network statistics. *)
let traced_run nprocs rounds =
  let obs = Obs.create ~nprocs () in
  let ring = Sink.ring ~capacity:(1 lsl 17) in
  Obs.attach obs (Sink.ring_sink ring);
  let _, r =
    Test_support.Support.run ~nprocs ~obs (Shasta_apps.Micro.migratory ~rounds ())
  in
  assert (Sink.ring_dropped ring = 0);
  (obs, Sink.ring_contents ring, r)

let params_gen = QCheck2.Gen.(pair (int_range 2 4) (int_range 4 40))

(* Point-to-point channels are FIFO and never reorder, so the receive
   timestamps observed on each (src, dst) channel must be monotonically
   non-decreasing; and the event-derived message count must agree with
   the network's own accounting. *)
let prop_stream_consistent (nprocs, rounds) =
  let obs, records, r = traced_run nprocs rounds in
  let last = Hashtbl.create 16 in
  let monotone = ref true in
  let sends = ref 0 and recvs = ref 0 in
  List.iter
    (fun (rec_ : Event.record) ->
      match rec_.ev with
      | Event.Msg_send _ -> incr sends
      | Event.Msg_recv { src; _ } ->
        incr recvs;
        let ch = (src, rec_.node) in
        (match Hashtbl.find_opt last ch with
        | Some t when rec_.time < t -> monotone := false
        | _ -> ());
        Hashtbl.replace last ch rec_.time
      | _ -> ())
    records;
  let net_sent, _ = Shasta_network.Network.stats r.Api.state.State.net in
  let reg = Obs.metrics obs in
  !monotone
  && !sends = net_sent
  && !recvs = net_sent (* quiescent: everything sent was delivered *)
  && Metrics.counter_total reg Obs.c_msg_sent = net_sent
  && Metrics.counter_total reg Obs.c_msg_recv = net_sent

(* Events stamped with the emitting node's own clock never run
   backwards: each node's records appear in its simulated-time order.
   (Msg_recv carries the message's earlier arrival time and Stall spans
   back to when the wait began, so both are exempt.) *)
let prop_node_time_monotone (nprocs, rounds) =
  let _, records, _ = traced_run nprocs rounds in
  let last = Array.make nprocs min_int in
  List.for_all
    (fun (rec_ : Event.record) ->
      match rec_.ev with
      | Event.Stall _ | Event.Msg_recv _ -> true
      | _ ->
        let ok = rec_.time >= last.(rec_.node) in
        last.(rec_.node) <- max last.(rec_.node) rec_.time;
        ok)
    records

let () =
  Alcotest.run "obs"
    [ ( "sinks",
        [ Alcotest.test_case "ring keeps latest" `Quick test_ring_keeps_latest;
          Alcotest.test_case "ring partial fill" `Quick test_ring_partial;
          Alcotest.test_case "fan-out" `Quick test_fanout;
          Alcotest.test_case "chrome trace" `Quick test_chrome_sink ] );
      ( "metrics",
        [ Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "copy/sub deltas" `Quick test_copy_sub ] );
      ( "properties",
        [ Test_support.Support.qtest "event stream matches Network.stats" ~count:20
            params_gen prop_stream_consistent;
          Test_support.Support.qtest "per-node times monotone" ~count:20 params_gen
            prop_node_time_monotone ] ) ]
