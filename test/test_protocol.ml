(* Protocol component tests: directory homes, granularity tables,
   message metadata, network ordering. *)

open Shasta_protocol

(* --- directory homes ------------------------------------------------ *)

let t_dir_homes () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 4 } in
  let v = T.init cfg in
  Alcotest.(check int) "round robin page 0" 0 (T.home_for cfg v 0);
  Alcotest.(check int) "round robin page 1" 1 (T.home_for cfg v 8192);
  Alcotest.(check int) "round robin wraps" 0 (T.home_for cfg v (4 * 8192));
  let _, v = T.step cfg v ~node:0 (T.I_set_home { page = 2; home = 3 }) in
  Alcotest.(check int) "explicit placement" 3 (T.home_for cfg v (2 * 8192));
  Alcotest.(check int) "other pages stay round robin" 1
    (T.home_for cfg v 8192)

(* --- the per-step allocation path ----------------------------------- *)

(* The protocol inputs of the sht test preset at P=4, recorded from a
   live run, with the live final view. *)
let sht_inputs =
  lazy
    (let open Shasta_runtime in
     let prog =
       Shasta_apps.Sht.program ~cfg:Shasta_apps.Apps.sht_test_cfg
         ~wl:Shasta_apps.Apps.sht_test_wl ()
     in
     let spec = { (Api.default_spec prog) with nprocs = 4 } in
     let state, _, _ = Api.prepare spec in
     state.State.record_inputs <- true;
     ignore (Cluster.run_app state);
     (state.State.tcfg, List.rev state.State.inputs_rev, state.State.proto))

(* A step allocates only the protocol state it changes: replaying the
   recorded run through [step] lands on the live view at under 116
   minor words per step (it measures ~113.3; a count action beside
   every miss, lock and barrier event would cost ~119, and re-inserting
   the stepping node into the node map on every update ~141). *)
let t_step_allocation () =
  let module T = Transitions in
  let cfg, inputs, live = Lazy.force sht_inputs in
  let steps = List.length inputs in
  let v0 = T.init cfg in
  let before = Gc.minor_words () in
  let v =
    List.fold_left (fun v (node, input) -> snd (T.step cfg v ~node input))
      v0 inputs
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "replay lands on the live view" true
    (String.equal (T.canon v) (T.canon live));
  let per = words /. float_of_int steps in
  if per > 116.0 then
    Alcotest.failf "%.1f minor words per step (%d steps)" per steps

(* A step shares every entry it does not change: other nodes' views are
   the input's, and a step that leaves the stepping node alone returns
   the input's node map itself. *)
let t_step_sharing () =
  let module T = Transitions in
  let cfg, inputs, _ = Lazy.force sht_inputs in
  ignore
    (List.fold_left
       (fun v (node, input) ->
         let _, v' = T.step cfg v ~node input in
         T.Imap.iter
           (fun n nv ->
             if n <> node && T.Imap.find n v'.T.nodes != nv then
               Alcotest.failf "a step at n%d rebuilt n%d's view" node n)
           v.T.nodes;
         v')
       (T.init cfg) inputs);
  let v = T.init cfg in
  let _, v' = T.step cfg v ~node:1 (T.I_set_home { page = 2; home = 3 }) in
  Alcotest.(check bool) "I_set_home keeps the node map" true
    (v'.T.nodes == v.T.nodes)

(* Crash recovery rewrites every node's entry, the coordinator's
   included: a forward parked at the coordinator on behalf of the dead
   requester is dropped from the view the step returns, and the block
   the coordinator claimed earlier in the same step stays claimed. *)
let t_crash_drops_coordinator_waiters () =
  let module T = Transitions in
  let cfg = { T.default_cfg with nprocs = 3 } in
  let v = T.init cfg in
  let fwd requester =
    { Message.src = 0; addr = 0x40; kind = Coh (Fwd_read { requester }) }
  in
  let n0 =
    { T.empty_nview with
      waiters = T.Imap.singleton 0x40 [ fwd 1; fwd 2 ] }
  in
  let v =
    { v with
      T.nodes = T.Imap.add 0 n0 v.T.nodes;
      dir =
        T.Imap.singleton 0x80
          { T.owner = 1; sharers = Nodeset.singleton Full ~nprocs:3 1 } }
  in
  let _, v =
    T.step cfg v ~node:0 (T.I_node_crash { victim = 1; lost = [] })
  in
  Alcotest.(check int) "only the live requester's forward stays" 1
    (List.length (T.Imap.find 0x40 (T.node_view v ~node:0).T.waiters));
  Alcotest.(check bool) "the dead owner's block is claimed" true
    (T.line_state v ~node:0 ~block:0x80 = T.L_exclusive)

(* --- granularity ---------------------------------------------------- *)

let t_gran_heuristic () =
  let g = Granularity.create ~line_bytes:64 () in
  (* small objects: block = rounded object size (Section 4.2) *)
  Alcotest.(check int) "tiny object" 64 (Granularity.heuristic_block g ~size:8);
  Alcotest.(check int) "100-byte object" 128
    (Granularity.heuristic_block g ~size:100);
  Alcotest.(check int) "1KB object" 1024
    (Granularity.heuristic_block g ~size:1024);
  (* large objects fall back to the line size *)
  Alcotest.(check int) "big array" 64
    (Granularity.heuristic_block g ~size:100_000)

let t_gran_legalize () =
  let legalize = Granularity.legalize ~line_bytes:64 in
  Alcotest.(check int) "round to power of two" 256 (legalize 200);
  Alcotest.(check int) "at least a line" 64 (legalize 1);
  Alcotest.(check int) "at most a page" 8192 (legalize 100_000)

let t_gran_block_map () =
  let g = Granularity.create ~line_bytes:64 () in
  Granularity.set_page_block g ~page:10 ~block_bytes:512;
  let addr = (10 * 8192) + 1000 in
  Alcotest.(check int) "block bytes" 512 (Granularity.block_bytes_at g addr);
  Alcotest.(check int) "block base" ((10 * 8192) + 512)
    (Granularity.block_base g addr);
  Alcotest.(check int) "lines per block" 8 (Granularity.lines_per_block g addr);
  (* unset pages default to line-sized blocks *)
  Alcotest.(check int) "default" 64 (Granularity.block_bytes_at g 0);
  Alcotest.(check bool) "conflicting resize rejected" true
    (try Granularity.set_page_block g ~page:10 ~block_bytes:64; false
     with Invalid_argument _ -> true)

(* --- messages ------------------------------------------------------- *)

let t_message_payloads () =
  let mk kind = { Message.src = 0; addr = 0x1000; kind } in
  let data = Array.make 16 0 in
  Alcotest.(check bool) "data reply carries the block" true
    (Message.payload_longs
       (mk (Coh (Data_reply { data; exclusive = true; acks = 0 })))
     > Message.payload_longs (mk (Coh Read_req)));
  Alcotest.(check bool) "describe mentions kind" true
    (String.length (Message.describe (mk (Coh Read_req))) > 0)

(* --- network -------------------------------------------------------- *)

let t_net_fifo () =
  let net = Shasta_network.Network.create ~nprocs:2
      Shasta_network.Network.ideal in
  (* a big message sent first must still arrive first (point-to-point
     order, which the protocol depends on) *)
  ignore
    (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:0 ~payload_longs:1000
       "big");
  ignore
    (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:1 ~payload_longs:0
       "small");
  let t1, m1 =
    Option.get (Shasta_network.Network.recv net ~dst:1 ~now:max_int)
  in
  let t2, m2 =
    Option.get (Shasta_network.Network.recv net ~dst:1 ~now:max_int)
  in
  Alcotest.(check string) "fifo first" "big" m1;
  Alcotest.(check string) "fifo second" "small" m2;
  Alcotest.(check bool) "delivery times monotone" true (t2 >= t1)

let t_net_costs () =
  let mc = Shasta_network.Network.memory_channel
  and atm = Shasta_network.Network.atm in
  Alcotest.(check bool) "atm slower than memory channel" true
    (atm.wire_latency > mc.wire_latency
     && atm.recv_overhead > mc.recv_overhead);
  let net = Shasta_network.Network.create ~nprocs:2 mc in
  let done_at =
    Shasta_network.Network.send net ~src:0 ~dst:1 ~now:100 ~payload_longs:16
      "m"
  in
  Alcotest.(check int) "sender pays the send overhead"
    (100 + mc.send_overhead) done_at;
  Alcotest.(check bool) "not deliverable before latency" true
    (Shasta_network.Network.recv net ~dst:1 ~now:(100 + mc.send_overhead)
     = None);
  Alcotest.(check int) "in flight" 1 (Shasta_network.Network.in_flight net)

let t_net_next_arrival () =
  let net = Shasta_network.Network.create ~nprocs:2
      Shasta_network.Network.ideal in
  Alcotest.(check (option int)) "empty" None
    (Shasta_network.Network.next_arrival net ~dst:1);
  ignore
    (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:5 ~payload_longs:0 "x");
  Alcotest.(check bool) "arrival known" true
    (Shasta_network.Network.next_arrival net ~dst:1 <> None)

let () =
  Alcotest.run "protocol"
    [ ( "directory",
        [ Alcotest.test_case "homes" `Quick t_dir_homes ] );
      ( "step",
        [ Alcotest.test_case "allocation per step" `Quick t_step_allocation;
          Alcotest.test_case "unchanged views shared" `Quick t_step_sharing;
          Alcotest.test_case "crash drops coordinator waiters" `Quick
            t_crash_drops_coordinator_waiters ]
      );
      ( "granularity",
        [ Alcotest.test_case "heuristic" `Quick t_gran_heuristic;
          Alcotest.test_case "legalize" `Quick t_gran_legalize;
          Alcotest.test_case "block map" `Quick t_gran_block_map ] );
      ("messages", [ Alcotest.test_case "payloads" `Quick t_message_payloads ]);
      ( "network",
        [ Alcotest.test_case "fifo order" `Quick t_net_fifo;
          Alcotest.test_case "cost model" `Quick t_net_costs;
          Alcotest.test_case "next arrival" `Quick t_net_next_arrival ] )
    ]
