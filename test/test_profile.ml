(* Site-level profiler: attribution totals against the metrics
   registry, transaction-span accounting against the raw event stream
   and Network.stats, latency lower bounds from the interconnect cost
   model, and collapsed-stack round-trips. *)

open Shasta_runtime
module Obs = Shasta_obs.Obs
module Event = Shasta_obs.Event
module Metrics = Shasta_obs.Metrics
module Sink = Shasta_obs.Sink
module Profile = Shasta_obs.Obs.Profile

(* Run [migratory] with a profiler and a ring sink on the same stream;
   hand back everything a property could want to cross-check. *)
let profiled_run ?(nprocs = 3) ?(rounds = 16) () =
  let obs = Obs.create ~nprocs () in
  let ring = Sink.ring ~capacity:(1 lsl 17) in
  Obs.attach obs (Sink.ring_sink ring);
  let prof = Profile.create ~nprocs () in
  Obs.attach_profiler obs prof;
  let _, r =
    Test_support.Support.run ~nprocs ~obs
      (Shasta_apps.Micro.migratory ~rounds ())
  in
  assert (Sink.ring_dropped ring = 0);
  (obs, prof, Sink.ring_contents ring, r)

(* --- site attribution ----------------------------------------------- *)

(* The profiler's per-site counters and the registry aggregate the same
   emit stream, so their totals must agree exactly — this is the
   acceptance check ISSUE.md states for --profile runs. *)
let test_site_totals () =
  let obs, prof, records, _ = profiled_run () in
  let reg = Obs.metrics obs in
  let tot = Profile.totals prof in
  Alcotest.(check int) "read misses"
    (Metrics.counter_total reg Obs.c_miss_read) tot.Profile.t_read;
  Alcotest.(check int) "write misses"
    (Metrics.counter_total reg Obs.c_miss_write) tot.Profile.t_write;
  Alcotest.(check int) "upgrade misses"
    (Metrics.counter_total reg Obs.c_miss_upgrade) tot.Profile.t_upgrade;
  Alcotest.(check int) "false misses"
    (Metrics.counter_total reg Obs.c_miss_false) tot.Profile.t_false;
  Alcotest.(check bool) "profiler saw work" true
    (tot.Profile.t_read + tot.Profile.t_write + tot.Profile.t_upgrade > 0);
  (* the sites list is the same data, sorted *)
  let by_sites =
    List.fold_left
      (fun a (_, (s : Profile.site_stats)) -> a + Profile.site_misses s)
      0 (Profile.sites prof)
  in
  Alcotest.(check int) "sites list sums to totals"
    (tot.Profile.t_read + tot.Profile.t_write + tot.Profile.t_upgrade)
    by_sites;
  (* every miss/stall record on the wire carried a code site *)
  Alcotest.(check bool) "miss records carry sites" true
    (List.for_all
       (fun (rec_ : Event.record) ->
         match rec_.ev with
         | Event.Miss _ | Event.False_miss _ | Event.Stall _ ->
           rec_.site <> None
         | _ -> true)
       records)

(* --- false sharing -------------------------------------------------- *)

(* At 64 nodes the sharing verdict still counts node 63: nodes 1 and 63
   write different longwords of one block and two invalidations with
   different requesters follow, so the block is a false-sharing
   suspect with two writers. *)
let test_suspect_node_63 () =
  let prof = Profile.create ~nprocs:64 () in
  let feed node ev =
    Profile.feed prof { Event.node; time = 0; ev; site = None }
  in
  feed 1 (Event.Miss { kind = Event.Write; addr = 0x1000 });
  feed 63 (Event.Miss { kind = Event.Write; addr = 0x1004 });
  feed 63 (Event.Invalidated { addr = 0x1000; requester = 63 });
  feed 1 (Event.Invalidated { addr = 0x1004; requester = 1 });
  match Profile.false_sharing_suspects prof with
  | [ (base, b) ] ->
    Alcotest.(check int) "block" 0x1000 base;
    Alcotest.(check int) "writers" 2 (Profile.cardinal b.Profile.writers)
  | l -> Alcotest.failf "%d suspects, expected 1" (List.length l)

(* --- transaction spans ---------------------------------------------- *)

let is_request = function
  | "read_req" | "readex_req" | "upgrade_req" | "lock_req" | "flag_wait"
  | "barrier_arrive" ->
    true
  | _ -> false

(* Every request-kind send opens exactly one pending transaction; a
   matching reply converts it into a span, flush flags the rest.  So
   matched + unmatched = requests observed on the raw stream, and the
   per-kind histograms hold exactly the matched population. *)
let test_span_accounting () =
  let _, prof, records, r = profiled_run () in
  let reqs =
    List.fold_left
      (fun a (rec_ : Event.record) ->
        match rec_.ev with
        | Event.Msg_send { kind; _ } when is_request kind -> a + 1
        | _ -> a)
      0 records
  in
  let matched = Profile.span_count prof in
  let unmatched = List.length (Profile.unmatched prof) in
  Alcotest.(check int) "matched + unmatched = request sends" reqs
    (matched + unmatched);
  Alcotest.(check int) "quiescent run leaves nothing open" 0 unmatched;
  Alcotest.(check int) "spans list agrees with count" matched
    (List.length (Profile.spans prof));
  (* request messages are a subset of the network's own send count *)
  let net_sent, _ = Shasta_network.Network.stats r.Api.state.State.net in
  Alcotest.(check bool) "requests bounded by Network.stats" true
    (reqs <= net_sent && reqs > 0);
  (* per-kind latency histograms: population and mass equal the spans *)
  let by_kind = Hashtbl.create 8 in
  List.iter
    (fun (sp : Profile.span) ->
      let n, sum =
        Option.value ~default:(0, 0) (Hashtbl.find_opt by_kind sp.sp_kind)
      in
      Hashtbl.replace by_kind sp.sp_kind (n + 1, sum + sp.sp_dur))
    (Profile.spans prof);
  let m = Profile.span_metrics prof in
  Hashtbl.iter
    (fun kind (n, sum) ->
      let h = Metrics.hist_total m ("span." ^ kind) in
      Alcotest.(check int) (kind ^ " histogram n") n h.Metrics.n;
      Alcotest.(check int) (kind ^ " histogram sum") sum h.Metrics.sum)
    by_kind

(* No reply can outrun the interconnect: every span covers at least one
   network hop, so its latency is bounded below by the wire latency of
   the profile the run used (memory_channel). *)
let test_span_latency_floor () =
  let _, prof, _, _ = profiled_run () in
  let floor = Shasta_network.Network.memory_channel.wire_latency in
  Alcotest.(check bool) "have spans" true (Profile.span_count prof > 0);
  List.iter
    (fun (sp : Profile.span) ->
      if sp.sp_dur < floor then
        Alcotest.failf "span %s @0x%x: %d cycles < wire latency %d"
          sp.sp_kind sp.sp_addr sp.sp_dur floor)
    (Profile.spans prof)

let test_drain_spans_once () =
  let _, prof, _, _ = profiled_run () in
  let n = Profile.span_count prof in
  Alcotest.(check int) "first drain yields every span" n
    (List.length (Profile.drain_spans prof));
  Alcotest.(check int) "second drain yields nothing" 0
    (List.length (Profile.drain_spans prof))

(* --- collapsed stacks ------------------------------------------------ *)

let params_gen = QCheck2.Gen.(pair (int_range 2 4) (int_range 4 24))

(* Rendering to collapsed-stack text and parsing it back loses nothing:
   the counts sum to the profiler's check-fired total, and the text is
   a fixed point (parse . render = id on the pair list). *)
let prop_collapsed_roundtrip (nprocs, rounds) =
  let _, prof, _, r = profiled_run ~nprocs ~rounds () in
  let image = r.Api.state.State.image in
  let text =
    Profile.collapsed prof
      ~name_proc:(Image.proc_name image)
      ~name_site:(Image.site_name image)
  in
  let parsed = Profile.parse_collapsed text in
  let tot = Profile.totals prof in
  let fired =
    tot.Profile.t_read + tot.Profile.t_write + tot.Profile.t_upgrade
    + tot.Profile.t_false
  in
  let sum = List.fold_left (fun a (_, c) -> a + c) 0 parsed in
  let rerendered =
    String.concat "\n"
      (List.map (fun (s, c) -> Printf.sprintf "%s %d" s c) parsed)
  in
  sum = fired
  && List.for_all (fun (s, c) -> c > 0 && s <> "") parsed
  && Profile.parse_collapsed rerendered = parsed

let () =
  Alcotest.run "profile"
    [ ( "attribution",
        [ Alcotest.test_case "site totals equal registry counters" `Quick
            test_site_totals ] );
      ( "sharing",
        [ Alcotest.test_case "false-sharing suspect at node 63" `Quick
            test_suspect_node_63 ] );
      ( "spans",
        [ Alcotest.test_case "span accounting vs stream" `Quick
            test_span_accounting;
          Alcotest.test_case "latency >= wire latency" `Quick
            test_span_latency_floor;
          Alcotest.test_case "drain_spans is one-shot" `Quick
            test_drain_spans_once ] );
      ( "flamegraph",
        [ Test_support.Support.qtest "collapsed-stack round-trip" ~count:15
            params_gen prop_collapsed_roundtrip ] ) ]
