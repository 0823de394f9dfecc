(* Fault-injection suite.

   - the fault-matrix soak: every pinned workload runs under each row
     of a fault matrix (drop-only, drop and delay combined) at several
     seeds, and must still reproduce the uninstrumented single-node
     ground-truth output — retransmission makes a lossy wire invisible
     to the protocol, faults only cost cycles.  The registry's fault
     counters must move when faults are on and stay at zero when they
     are off, and must equal the sums of the fault events a sink saw.

   - sublayer identity: a faulty wire whose fault probabilities are
     all zero gives each pinned workload the same event trace, line
     for line, as the plain wire.

   - QCheck properties of the wire itself: the sender's transmission
     plan is deterministic in the RNG and respects the backoff
     arithmetic; over the reliable and standard wires, with crashes and recoveries in between, the counted queue
     answers match a channel scan and every channel delivers its
     messages once each, in send order, at non-decreasing times. *)

module Support = Test_support.Support
module Network = Shasta_network.Network
open Shasta_runtime

(* Probabilities are deliberately higher than [Network.standard] (5%
   vs 1%) so the counter assertions below can't go flaky: at test
   sizes a 1% coin may simply never fire on one seed, so we also
   aggregate counters across seeds before asserting. *)
let matrix =
  [ ("drop", { Network.no_faults with drop = 0.05 });
    ("combined", { Network.no_faults with drop = 0.02; delay = 0.02 }) ]

let seeds = [ 1; 2; 3 ]

(* A whole-run registry count: the fault tap is the only writer of
   net.*, and the wire keeps no tally of its own. *)
let net_total (r : Api.result) c =
  Shasta_obs.Obs.(Metrics.counter_total (metrics (State.obs r.Api.state)) c)

(* Run one workload under one fault row at one seed; the data oracle is
   the ground-truth output.  Returns the run's retransmissions and
   backoff cycles. *)
let soak_one ?(canon = Fun.id) name nprocs make expected (f : Network.faults)
    seed =
  let faults = { f with fseed = seed } in
  let got, r = Support.run ~nprocs ~net_faults:faults (make ()) in
  Alcotest.(check string)
    (Printf.sprintf "%s output (seed %d, %s)" name seed
       (Network.describe_faults faults))
    expected (canon got);
  ( net_total r Shasta_obs.Obs.c_net_retx,
    net_total r Shasta_obs.Obs.c_net_backoff )

(* The KV service reports per-operation latencies, and the wire's
   timing legally moves both them and the shard-handoff placement (a
   bucket migrates toward whoever's request lands first).  The data
   oracle for the soak is everything else — operation counts, zero
   violations, final population and checksum — against a fault-free
   run at the same node count. *)
let kv_canon out =
  let module Report = Shasta_workload.Report in
  let r = Report.strip_timing (Report.parse out) in
  let r =
    { r with
      Report.migrations = 0;
      owned = Array.map (fun _ -> 0) r.Report.owned }
  in
  Report.render r

let t_soak (name, nprocs, make) () =
  let canon = if name = "sht" then kv_canon else Fun.id in
  let expected =
    if name = "sht" then canon (fst (Support.run ~nprocs (make ())))
    else Support.ground_truth (make ())
  in
  List.iter
    (fun (row, f) ->
      let retx, backoff =
        List.fold_left
          (fun (retx, backoff) seed ->
            let r, b = soak_one ~canon name nprocs make expected f seed in
            (retx + r, backoff + b))
          (0, 0) seeds
      in
      (* the matrix row must actually have dropped frames (aggregated
         across seeds so a single quiet run can't flake) *)
      let nonzero what n =
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: %s fired across seeds" name row what)
          true (n > 0)
      in
      nonzero "retx" retx;
      nonzero "backoff" backoff)
    matrix

(* With faults off the registry's fault counters must be exactly zero. *)
let t_counters_zero_when_off () =
  let _, nprocs, make = List.hd Support.pinned_runs in
  let _, r = Support.run ~nprocs (make ()) in
  List.iter
    (fun c -> Alcotest.(check int) (c ^ " zero") 0 (net_total r c))
    [ Shasta_obs.Obs.c_net_retx; Shasta_obs.Obs.c_net_backoff;
      Shasta_obs.Obs.c_node_crash; Shasta_obs.Obs.c_node_recover;
      Shasta_obs.Obs.c_lease_takeover; Shasta_obs.Obs.c_dir_rebuild ]

(* With faults on, the registry's net.* counters are exactly the sums
   of the fault events a sink attached to the same run received: the
   Obs mapping from [Net_fault] to counters loses and invents nothing. *)
let t_counters_match_events () =
  let _, nprocs, make = List.hd Support.pinned_runs in
  let obs = Shasta_obs.Obs.create ~nprocs () in
  let retx = ref 0 and backoff = ref 0 in
  Shasta_obs.Obs.attach obs
    { Shasta_obs.Sink.on_record =
        (fun r ->
          match r.Shasta_obs.Event.ev with
          | Net_fault f ->
            retx := !retx + f.retx;
            backoff := !backoff + f.backoff
          | _ -> ());
      flush = ignore };
  let faults = { Network.standard with drop = 0.05; fseed = 7 } in
  let expected = Support.ground_truth (make ()) in
  let got, r = Support.run ~nprocs ~obs ~net_faults:faults (make ()) in
  Alcotest.(check string) "output under faults" expected got;
  Alcotest.(check bool) "some faults fired" true (!retx > 0);
  Alcotest.(check int) "net.retx" !retx (net_total r Shasta_obs.Obs.c_net_retx);
  Alcotest.(check int) "net.backoff_cycles" !backoff
    (net_total r Shasta_obs.Obs.c_net_backoff)

(* [Some no_faults] vs [None]: a faulty wire with zero fault
   probabilities plans every arrival through the fault coins, yet must
   not move a single event: same messages, same delivery cycles, same
   trace bytes. *)
let t_sublayer_identity (_, nprocs, make) () =
  Support.check_same_trace ~nprocs ~net_faults:Network.no_faults make

(* Seeded faults are deterministic: same spec, same run, same cycle
   count and same fault counters. *)
let t_faults_deterministic () =
  let _, nprocs, make = List.hd Support.pinned_runs in
  let go () =
    let _, r = Support.run ~nprocs ~net_faults:Network.standard (make ()) in
    ( r.Api.phase.Cluster.wall_cycles,
      net_total r Shasta_obs.Obs.c_net_retx,
      net_total r Shasta_obs.Obs.c_net_backoff )
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical cycles and counters" true (a = b)

(* A fault spec with an unknown key (there is no dup or reorder coin)
   or a value out of range is rejected with a message naming its key,
   never clamped into range or silently dropped; the range's edges
   parse as given. *)
let t_spec_rejects_out_of_range () =
  List.iter
    (fun (spec, key) ->
      match Network.faults_of_string spec with
      | _ -> Alcotest.failf "%s: accepted" spec
      | exception Invalid_argument e ->
        let p = "Network.faults_of_string: " in
        Alcotest.(check bool) (spec ^ " names " ^ key) true
          (String.starts_with ~prefix:(p ^ key ^ " needs") e
           || e = p ^ "unknown key " ^ key))
    [ ("drop=2", "drop"); ("drop=nan", "drop"); ("drop=-0.5", "drop");
      ("delay=inf", "delay"); ("rto=-5", "rto"); ("max-retx=-1", "max-retx");
      ("max-retx=1", "max-retx"); ("drop=0.05,max-retx=2", "max-retx");
      ("delay-cycles=-100,delay=0.5", "delay-cycles"); ("dup=0.01", "dup");
      ("reorder=0.01", "reorder") ];
  match
    Network.faults_of_string "drop=0.9,delay=0,delay-cycles=0,rto=0,max-retx=0"
  with
  | Some f ->
    Alcotest.(check bool) "edges kept" true
      (f.drop = 0.9 && f.delay = 0.0 && f.delay_cycles = 0 && f.rto = 0)
  | None -> Alcotest.fail "edge spec parsed as no faults"

(* --- QCheck: transmission planning ------------------------------------ *)

let tx_gen =
  let open QCheck2.Gen in
  int_range 1 1_000_000 >>= fun seed ->
  float_bound_inclusive 0.5 >>= fun drop ->
  float_bound_inclusive 0.3 >>= fun delay ->
  int_range 0 100_000 >>= fun now ->
  int_range 1 5_000 >>= fun flight ->
  int_range 1 10_000 >>= fun rto ->
  return (seed, drop, delay, now, flight, rto)

let prop_tx_plan (seed, drop, delay, now, flight, rto) =
  let f = { Network.no_faults with drop; delay; delay_cycles = 2000 } in
  let plan () =
    Network.tx_plan f (Random.State.make [| seed |]) ~now ~flight ~rto
  in
  let arrival, x = plan () in
  (* deterministic in the RNG seed *)
  plan () = (arrival, x)
  (* the frame is never abandoned: bounded retries, the last attempt
     always survives *)
  && x.Network.retx >= 0
  && x.Network.retx < Network.max_attempts
  (* the frame arrives after its (possibly backed-off) flight *)
  && arrival >= now + flight + x.Network.backoff
  (* backoff is exactly the sum of the doubling timeouts *)
  &&
  let expect = ref 0 in
  for k = 0 to x.Network.retx - 1 do
    expect := !expect + (rto * (1 lsl min k 10))
  done;
  x.Network.backoff = !expect

(* --- QCheck: the per-destination queue counts ------------------------- *)

type net_op =
  | Send of int * int * int (* src, dst, payload longwords *)
  | Recv of int
  | Dead of int

let net_ops_gen =
  let open QCheck2.Gen in
  int_range 2 5 >>= fun nprocs ->
  let node = int_bound (nprocs - 1) in
  let op =
    frequency
      [ (6, map3 (fun s d p -> Send (s, d, p)) node node (int_bound 16));
        (4, map (fun d -> Recv d) node);
        (1, map (fun n -> Dead n) node) ]
  in
  (* some gaps shorter than the flight-time spread of payload sizes, so
     a later, shorter frame could overtake an earlier, longer one *)
  let gap = frequency [ (3, int_bound 3000); (1, int_bound 40) ] in
  list_size (int_range 1 120) (pair op gap) >>= fun ops ->
  return (nprocs, ops)

(* After every step — send, recv, mark_dead — the counted
   answers equal a brute-force scan of all channels ([Network.queued]),
   including the earliest arrival the scheduler keys nodes by
   ([max_int] when nothing is queued, so a stale cached time on an
   empty destination shows); [recv] pops a frame with the earliest
   arrival among those already arrived.  Every channel delivers its
   messages in send order, none twice (ids only grow; a frame may be
   missing, abandoned or purged), at delivery times that never
   decrease. *)
let prop_pending_counts faults (nprocs, ops) =
  let net = Network.create ?faults ~nprocs Network.memory_channel in
  let now = ref 0 and id = ref 0 in
  let last_id = Array.make (nprocs * nprocs) 0 in
  let last_t = Array.make (nprocs * nprocs) min_int in
  let consistent () =
    let q = Network.queued net in
    Network.in_flight net = List.length q
    && List.for_all
         (fun dst ->
           let mine = List.filter (fun (_, d, _, _) -> d = dst) q in
           let earliest =
             List.fold_left (fun a (_, _, t, _) -> min a t) max_int mine
           in
           Network.pending_for net ~dst = List.length mine
           && Network.next_arrival net ~dst = earliest)
         (List.init nprocs Fun.id)
  in
  List.for_all
    (fun (op, dt) ->
      now := !now + dt;
      let ok =
        match op with
        | Send (src, dst, payload_longs) ->
          incr id;
          ignore
            (Network.send net ~src ~dst ~now:!now ~payload_longs (src, !id));
          true
        | Recv dst ->
          let arrived =
            List.filter_map
              (fun (_, d, t, _) ->
                if d = dst && t <= !now then Some t else None)
              (Network.queued net)
          in
          (match Network.recv net ~dst ~now:!now with
           | None -> arrived = []
           | Some (t, (src, i)) ->
             let c = (src * nprocs) + dst in
             let in_order = i > last_id.(c) && t >= last_t.(c) in
             last_id.(c) <- i;
             last_t.(c) <- t;
             in_order && t = List.fold_left min max_int arrived)
        | Dead n ->
          ignore (Network.mark_dead net ~node:n);
          true
      in
      ok && consistent ())
    ops

(* The identity cases run as a suite of their own: Alcotest pads every
   group name to the longest one in a suite and cuts the test names to
   fit the line, so the long "sublayer-identity" group would shorten the
   printed names of the QCheck cases below. *)
let () =
  Alcotest.run ~and_exit:false "faults-identity"
    [ ( "sublayer-identity",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case (name ^ " under no_faults") `Quick
              (t_sublayer_identity g))
          Support.pinned_runs ) ];
  print_newline ();
  Alcotest.run "faults"
    [ ( "soak",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case name `Slow (t_soak g))
          Support.pinned_runs );
      ( "counters",
        [ Alcotest.test_case "zero when off" `Quick t_counters_zero_when_off;
          Alcotest.test_case "registry matches events" `Quick
            t_counters_match_events;
          Alcotest.test_case "deterministic" `Quick t_faults_deterministic;
          Alcotest.test_case "spec rejects out-of-range values" `Quick
            t_spec_rejects_out_of_range ] );
      ( "sublayer",
        [ Support.qtest "tx plan: deterministic, bounded, backoff arithmetic"
            ~count:500 tx_gen prop_tx_plan ] );
      ( "queues",
        [ Support.qtest "reliable wire: counts match a channel scan"
            ~count:300 net_ops_gen (prop_pending_counts None);
          Support.qtest "standard faults: counts match a channel scan"
            ~count:300 net_ops_gen
            (prop_pending_counts (Some Network.standard)) ] )
    ]
