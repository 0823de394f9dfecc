(* Node crash/recovery fault-tolerance suite.

   Three layers, bottom up:

   - [Nodefaults] spec parsing: round trips, wildcard victim
     resolution (seeded, deterministic, never node 0), malformed specs
     rejected.

   - Zero-schedule identity: a --node-faults spec with no events must
     leave the canonical event trace byte-identical to a run without
     the layer at all (the seed BENCH baseline pins the absent case by
     trace hash; this pins Some-but-empty against it).

   - Live crash runs: a lock held by a crashed node is reclaimed by
     lease takeover so waiters progress; the P=4 KV service survives a
     node crash mid-run (directory reconstruction, salvaged data, the
     crash-aware final sweep) with its data outcome matching the
     [Sht.shadow ~dead] oracle; crash followed by recovery rejoins the
     node to protocol duty; recorded crash inputs replay exactly
     through the pure core; runs are deterministic; no message is ever
     sent to a node the protocol view lists as crashed.

   The exact detection time (the liveness lease counted from the
   victim's last send) is pinned by the [kv-crash*] rows of the seed
   BENCH baseline, which tier-1 gates. *)

module Support = Test_support.Support
module Report = Shasta_workload.Report
module Obs = Shasta_obs.Obs
open Shasta_runtime
open Shasta_apps

(* ------------------------------------------------------------------ *)
(* Schedule parsing                                                    *)
(* ------------------------------------------------------------------ *)

let t_spec_parse () =
  Alcotest.(check bool) "none is None" true (Nodefaults.of_string "none" = None);
  Alcotest.(check bool) "empty is None" true (Nodefaults.of_string "" = None);
  let s = Option.get (Nodefaults.of_string "crash=2@5000,recover=2@90000,lease=1234") in
  Alcotest.(check int) "lease" 1234 s.Nodefaults.lease;
  Alcotest.(check int) "events" 2 (List.length s.Nodefaults.events);
  (match s.Nodefaults.events with
   | [ a; b ] ->
     Alcotest.(check bool) "sorted by cycle" true
       (a.Nodefaults.at = 5000 && a.node = 2 && a.what = Nodefaults.Crash
        && b.at = 90000 && b.what = Nodefaults.Recover)
   | _ -> Alcotest.fail "expected two events");
  let s = Option.get (Nodefaults.of_string "crash=*@100,seed=7") in
  let r1 = Nodefaults.resolve s ~nprocs:4 in
  let r2 = Nodefaults.resolve s ~nprocs:4 in
  Alcotest.(check bool) "wildcard resolution deterministic" true (r1 = r2);
  (match r1.Nodefaults.events with
   | [ e ] ->
     Alcotest.(check bool) "victim in range, never node 0" true
       (e.Nodefaults.node >= 1 && e.node < 4)
   | _ -> Alcotest.fail "expected one event");
  List.iter
    (fun bad ->
      Alcotest.check_raises ("rejects " ^ bad)
        (Invalid_argument
           (match bad with
            | "crash=3" -> "node-faults: expected NODE@CYCLE, got \"3\""
            | "lease=0" -> "node-faults: lease must be positive"
            | "lease=x" | "crash=1@abc" ->
              Printf.sprintf "node-faults: bad number in %S" bad
            | _ -> "node-faults: unknown key \"frob\""))
        (fun () -> ignore (Nodefaults.of_string bad)))
    [ "crash=3"; "lease=0"; "frob=1"; "lease=x"; "crash=1@abc" ]

(* ------------------------------------------------------------------ *)
(* Zero-schedule identity                                              *)
(* ------------------------------------------------------------------ *)

let t_zero_schedule_identity () =
  let _, nprocs, make = List.hd Support.pinned_runs in
  let spec = Option.get (Nodefaults.of_string "lease=777") in
  Alcotest.(check bool) "event-free spec is off" true (Nodefaults.is_off spec);
  Support.check_same_trace ~nprocs ~node_faults:spec make

(* ------------------------------------------------------------------ *)
(* Lock-lease takeover: a crashed holder's lock is reclaimed           *)
(* ------------------------------------------------------------------ *)

let locked_prog () =
  let open Shasta_minic.Builder in
  let open Shasta_minic.Ast in
  prog
    ~globals:[ ("cnt", I) ]
    [ proc "appinit" [ gset "cnt" (Gmalloc (i 8)); sti (g "cnt") (i 0) (i 0) ];
      proc "work"
        [ if_ (Pid ==% i 1)
            [ (* acquire, then die holding the lock (the injector fires
                 mid-spin); the unlock below never runs *)
              lock (i 5);
              let_i "x" (i 0);
              for_ "t" (i 0) (i 300_000) [ set "x" (v "x" +% i 1) ];
              sti (g "cnt") (i 0) (ldi (g "cnt") (i 0) +% v "x");
              unlock (i 5)
            ]
            [ lock (i 5);
              sti (g "cnt") (i 0) (ldi (g "cnt") (i 0) +% i 1);
              unlock (i 5)
            ];
          barrier;
          when_ (Pid ==% i 0) [ print_int (ldi (g "cnt") (i 0)) ]
        ]
    ]

let t_lock_takeover () =
  let obs = Obs.create ~nprocs:4 () in
  let spec = Option.get (Nodefaults.of_string "crash=1@60000,lease=5000") in
  let out, r = Support.run ~nprocs:4 ~node_faults:spec ~obs (locked_prog ()) in
  (* nodes 0, 2, 3 each bump the counter; the victim never does *)
  Alcotest.(check string) "survivors' critical sections all ran" "3\n" out;
  let m = Obs.metrics obs in
  let total c = Obs.Metrics.counter_total m c in
  Alcotest.(check int) "one crash" 1 (total Obs.c_node_crash);
  Alcotest.(check bool) "lock lease taken over" true
    (total Obs.c_lease_takeover >= 1);
  Alcotest.(check bool) "victim halted in the pure view" true
    (Shasta_protocol.Transitions.halted_mask r.Api.state.State.proto = 0b10)

(* ------------------------------------------------------------------ *)
(* KV service under a node crash                                       *)
(* ------------------------------------------------------------------ *)

let kv_prog () = Sht.program ~cfg:Apps.sht_test_cfg ~wl:Apps.sht_test_wl ()

let nprocs = 4
let keys_per_node = Apps.sht_test_wl.Shasta_workload.Workload.nkeys / nprocs

(* Crash cycle: mid parallel phase of the fault-free run, derived once
   so the schedule stays meaningful if the workload's length drifts. *)
let mid_run =
  lazy
    (let _, r = Support.run ~nprocs (kv_prog ()) in
     r.Api.phase.Cluster.wall_cycles / 2)

let check_kv_outcome ~dead ~label (r : Report.t) =
  let s = Sht.shadow ~dead ~wl:Apps.sht_test_wl ~nprocs () in
  Alcotest.(check int)
    (label ^ ": no consistency violations") 0
    (r.Report.errors + r.Report.verify_errors);
  Alcotest.(check int)
    (label ^ ": lost keys = crashed shards")
    (keys_per_node * List.length dead)
    r.Report.lost;
  Alcotest.(check int)
    (label ^ ": population matches oracle") s.Sht.s_population
    r.Report.population;
  Alcotest.(check bool)
    (label ^ ": checksum matches oracle") true
    (r.Report.checksum = s.Sht.s_checksum)

let t_kv_crash () =
  let obs = Obs.create ~nprocs () in
  let spec =
    Option.get
      (Nodefaults.of_string
         (Printf.sprintf "crash=2@%d,lease=3000" (Lazy.force mid_run)))
  in
  let out, r = Support.run ~nprocs ~node_faults:spec ~obs (kv_prog ()) in
  check_kv_outcome ~dead:[ 2 ] ~label:"crash" (Report.parse out);
  let m = Obs.metrics obs in
  let total c = Obs.Metrics.counter_total m c in
  Alcotest.(check int) "one crash" 1 (total Obs.c_node_crash);
  Alcotest.(check int) "no recovery" 0 (total Obs.c_node_recover);
  Alcotest.(check bool) "directory entries rebuilt" true
    (total Obs.c_dir_rebuild > 0);
  Alcotest.(check bool) "protocol invariants hold post-crash" true
    (Shasta_protocol.Transitions.invariants r.Api.state.State.tcfg
       r.Api.state.State.proto
     = [])

let t_kv_crash_recover () =
  let obs = Obs.create ~nprocs () in
  let mid = Lazy.force mid_run in
  let spec =
    Option.get
      (Nodefaults.of_string
         (Printf.sprintf "crash=2@%d,recover=2@%d,lease=3000" mid (mid * 3 / 2)))
  in
  let out, r = Support.run ~nprocs ~node_faults:spec ~obs (kv_prog ()) in
  check_kv_outcome ~dead:[ 2 ] ~label:"crash+recover" (Report.parse out);
  let m = Obs.metrics obs in
  let total c = Obs.Metrics.counter_total m c in
  Alcotest.(check int) "one crash" 1 (total Obs.c_node_crash);
  Alcotest.(check int) "one recovery" 1 (total Obs.c_node_recover);
  let v = r.Api.state.State.proto in
  Alcotest.(check int) "no node currently crashed" 0
    (Shasta_protocol.Transitions.crashed_mask v);
  Alcotest.(check int) "victim's halt is permanent" 0b100
    (Shasta_protocol.Transitions.halted_mask v)

(* A wildcard victim at a different seed, for coverage of the seeded
   pick through the whole stack. *)
let t_kv_crash_wildcard () =
  let spec =
    Option.get
      (Nodefaults.of_string
         (Printf.sprintf "crash=*@%d,seed=11,lease=3000" (Lazy.force mid_run)))
  in
  let resolved = Nodefaults.resolve spec ~nprocs in
  let victim =
    match resolved.Nodefaults.events with
    | [ e ] -> e.Nodefaults.node
    | _ -> Alcotest.fail "expected one event"
  in
  let out, _ = Support.run ~nprocs ~node_faults:spec (kv_prog ()) in
  check_kv_outcome ~dead:[ victim ] ~label:"wildcard" (Report.parse out)

(* Crash runs replay exactly through the pure core: the recorded input
   log (which includes I_node_crash with the purged frames) must land
   on the live run's final view. *)
let t_crash_replay () =
  let spec =
    Option.get
      (Nodefaults.of_string
         (Printf.sprintf "crash=2@%d,lease=3000" (Lazy.force mid_run)))
  in
  let api_spec =
    { (Api.default_spec (kv_prog ())) with
      nprocs; node_faults = Some spec }
  in
  let state, _, _ = Api.prepare api_spec in
  state.State.record_inputs <- true;
  let _ = Cluster.run_app state in
  let res = Replay.replay state in
  Alcotest.(check bool) "crash run replays through the pure core" true
    (Replay.ok res);
  Alcotest.(check bool) "crash input recorded" true
    (List.exists
       (fun (_, i) ->
         match i with
         | Shasta_protocol.Transitions.I_node_crash _ -> true
         | _ -> false)
       state.State.inputs_rev)

let t_crash_deterministic () =
  let spec =
    Option.get
      (Nodefaults.of_string
         (Printf.sprintf "crash=2@%d,lease=3000" (Lazy.force mid_run)))
  in
  let go () =
    let out, r = Support.run ~nprocs ~node_faults:spec (kv_prog ()) in
    (out, r.Api.phase.Cluster.wall_cycles)
  in
  let o1, w1 = go () in
  let o2, w2 = go () in
  Alcotest.(check string) "same output" o1 o2;
  Alcotest.(check int) "same wall cycles" w1 w2

(* The protocol view is the one record of a detected-dead node: the
   wire queues every frame, so a frame addressed to a crashed node
   would stay in flight until the scheduler reported a deadlock.  The
   crash workloads above run again with a sink that fails on any
   message sent to a node the view lists as crashed.  The engine stores
   a step's view when the step is done, so each send is checked against
   the view before its step: a node the step itself declares dead is
   not yet listed, which can hide a violation but never invent one. *)
let t_no_send_to_crashed () =
  let mid = Lazy.force mid_run in
  List.iter
    (fun (label, nprocs, prog, spec) ->
      let node_faults = Nodefaults.of_string spec in
      let state, _, _ =
        Api.prepare { (Api.default_spec prog) with nprocs; node_faults }
      in
      let sends = ref 0 in
      Obs.attach state.State.config.obs
        { Shasta_obs.Sink.on_record =
            (fun r ->
              match r.Shasta_obs.Event.ev with
              | Msg_send { dst; kind; block; _ } ->
                incr sends;
                if
                  not
                    (Shasta_protocol.Transitions.is_live state.State.proto
                       ~node:dst)
                then
                  Alcotest.failf "%s: n%d sent %s @0x%x to crashed n%d" label
                    r.node kind block dst
              | _ -> ());
          flush = ignore };
      ignore (Cluster.run_app state);
      Alcotest.(check bool) (label ^ ": messages checked") true (!sends > 0))
    [ ("lock takeover", 4, locked_prog (), "crash=1@60000,lease=5000");
      ("kv crash", nprocs, kv_prog (),
       Printf.sprintf "crash=2@%d,lease=3000" mid);
      ("kv crash+recover", nprocs, kv_prog (),
       Printf.sprintf "crash=2@%d,recover=2@%d,lease=3000" mid (mid * 3 / 2));
      ("kv wildcard", nprocs, kv_prog (),
       Printf.sprintf "crash=*@%d,seed=11,lease=3000" mid);
      (* early in the parallel phase, a survivor still owes the victim
         an answer (an invalidation's ack) when the crash is detected *)
      ("kv early crash", nprocs, kv_prog (), "crash=2@20000,lease=3000");
      ("kv early crash+recover", nprocs, kv_prog (),
       "crash=1@20000,recover=1@30000,lease=3000") ]

(* --- scaling scenarios under the crash adversary (PR-9 gap) --------- *)

(* The scale family (limited-pointer overflow, the stale-home trap,
   queue lock, combining-tree barrier) was never model-checked against
   crash/recover: directory reconstruction must re-derive inexact
   sharer supersets, a queue lock's chain must survive a dead link,
   and the combining tree's release wave must be re-driven into a dead
   subtree. *)
module Mcheck = Shasta_mcheck.Mcheck

let t_scale_crash_recover_exhaustive () =
  List.iter
    (fun (sc : Mcheck.scenario) ->
      List.iter
        (fun recover ->
          let r = Mcheck.check_exhaustive ~crash:1 ?recover sc in
          Alcotest.(check bool)
            (Printf.sprintf "%s crash%s explored fully" sc.Mcheck.sname
               (if recover = None then "" else "+recover"))
            false r.Mcheck.truncated;
          Alcotest.(check bool)
            (Printf.sprintf "%s reaches terminals" sc.Mcheck.sname)
            true (r.Mcheck.terminals > 0);
          match r.Mcheck.violation with
          | None -> ()
          | Some v ->
            Mcheck.pp_violation stderr v;
            Alcotest.fail (sc.Mcheck.sname ^ ": scale crash violation"))
        [ None; Some 1 ])
    (Mcheck.scale_scenarios ~nprocs:2)

let t_scale_crash_fuzz () =
  List.iter
    (fun (sc : Mcheck.scenario) ->
      let _, v = Mcheck.fuzz ~crash:1 ~recover:1 ~seed:23 ~runs:150 sc in
      match v with
      | None -> ()
      | Some v ->
        Mcheck.pp_violation stderr v;
        Alcotest.fail (sc.Mcheck.sname ^ ": scale crash fuzz violation"))
    (Mcheck.scale_scenarios ~nprocs:3)

(* Regression for the double-crash salvage bug the re-derived fuzz
   seed stream surfaced: a Data_reply re-served on a victim's behalf
   used to be regenerated from the victim's frozen image — but when
   the victim was itself a coordinator that had salvaged those bytes
   for an EARLIER crash, it re-flagged its staging buffer after
   sending, so the second salvage served the flag marker as data.
   Pinned as the directed interleaving the adversary found. *)
let t_double_crash_salvage_chain () =
  let sc = Mcheck.lock_increment ~nprocs:3 in
  let cfg = Mcheck.cfg_of sc in
  let sys = ref (Mcheck.init_sys ~crash:2 sc) in
  let play label =
    match
      List.assoc_opt label (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys)
    with
    | Some next -> sys := next ()
    | None ->
      Alcotest.failf "move %S not enabled; enabled: %s" label
        (String.concat "; "
           (List.map fst (Mcheck.moves cfg ~inj:Mcheck.No_injection !sys)))
  in
  play "n2: lock 0";
  play "deliver 2->0: [2] lock_req @0x0";
  play "deliver 0->2: [0] lock_grant @0x0";
  play "n2: read 0x0";
  play "deliver 2->0: [2] read_req @0x0";
  play "n0: lock 0";
  play "crash n0";
  play "crash n1";
  (* drain: n2 must complete its read against real salvaged data *)
  let rec drain k =
    if k > 100 then Alcotest.fail "n2 never finished its critical section"
    else
      match Mcheck.moves cfg ~inj:Mcheck.No_injection !sys with
      | [] -> ()
      | (_, next) :: _ ->
        sys := next ();
        drain (k + 1)
  in
  drain 0;
  Alcotest.(check (list string)) "terminal quiescent" []
    (Shasta_protocol.Transitions.quiescent_invariants cfg (Mcheck.view !sys));
  (* the salvaged reply must have carried the datum (0), not the flag
     marker: n2's read register saw it, and its increment lands 0+1 *)
  Alcotest.(check int) "n2 read data, not the flag marker" 0
    (Mcheck.reg !sys ~node:2);
  Alcotest.(check (option int)) "n2's increment commits on top" (Some 1)
    (Mcheck.value !sys ~node:2 ~block:0)

let () =
  Alcotest.run "crash"
    [ ( "schedule",
        [ Alcotest.test_case "spec parsing" `Quick t_spec_parse;
          Alcotest.test_case "zero schedule is byte-identical" `Quick
            t_zero_schedule_identity
        ] );
      ( "takeover",
        [ Alcotest.test_case "lock reclaimed from crashed holder" `Quick
            t_lock_takeover
        ] );
      ( "kv",
        [ Alcotest.test_case "crash mid-run" `Quick t_kv_crash;
          Alcotest.test_case "crash then recover" `Quick t_kv_crash_recover;
          Alcotest.test_case "wildcard victim" `Quick t_kv_crash_wildcard;
          Alcotest.test_case "replay through pure core" `Quick t_crash_replay;
          Alcotest.test_case "deterministic" `Quick t_crash_deterministic;
          Alcotest.test_case "no send to a crashed node" `Quick
            t_no_send_to_crashed
        ] );
      ( "scale",
        [ Alcotest.test_case "scale scenarios clean under crash/recover"
            `Quick t_scale_crash_recover_exhaustive;
          Alcotest.test_case "scale scenarios clean at P=3 (crash fuzz)"
            `Quick t_scale_crash_fuzz;
          Alcotest.test_case "double-crash salvage chain regression" `Quick
            t_double_crash_salvage_chain
        ] )
    ]
