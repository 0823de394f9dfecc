(* Protocol component tests: directory homes, granularity tables,
   message metadata, network ordering. *)

open Shasta_protocol

(* --- directory homes ------------------------------------------------ *)

let t_dir_homes () =
  let module T = Transitions in
  let cfg =
    { T.nprocs = 4; page_bytes = 8192; sc = false; dmode = Nodeset.Full;
      scalable_sync = false; migrate = false }
  in
  let v = T.init cfg in
  Alcotest.(check int) "round robin page 0" 0 (T.home_for cfg v 0);
  Alcotest.(check int) "round robin page 1" 1 (T.home_for cfg v 8192);
  Alcotest.(check int) "round robin wraps" 0 (T.home_for cfg v (4 * 8192));
  let _, v = T.step cfg v ~node:0 (T.I_set_home { page = 2; home = 3 }) in
  Alcotest.(check int) "explicit placement" 3 (T.home_for cfg v (2 * 8192));
  Alcotest.(check int) "other pages stay round robin" 1
    (T.home_for cfg v 8192)

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
  let g = Granularity.create ~line_bytes:64 () in
  Alcotest.(check int) "round to power of two" 256 (Granularity.legalize g 200);
  Alcotest.(check int) "at least a line" 64 (Granularity.legalize g 1);
  Alcotest.(check int) "at most a page" 8192 (Granularity.legalize g 100_000)

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
