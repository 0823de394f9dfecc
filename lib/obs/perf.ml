(* Host-side performance counters.

   The metrics registry measures the *simulated* machine; this module
   measures the simulator itself: monotonic wall time (bechamel's
   clock — immune to NTP steps) and a per-phase breakdown (compile /
   load / run / drain).  A [t] is an accumulator: [phase] times a
   closure and charges it to a named bucket, [report] closes the
   measurement.  The clock is injectable so tests can drive
   deterministic timings.

   Host numbers are machine-dependent by nature, so they enter neither
   the registry nor a BENCH record; the perfbench suite and the
   `host :` line of shasta_run report them. *)

type t = {
  clock : unit -> float;  (* monotonic seconds *)
  t0 : float;
  mutable phases : (string * float) list;  (* insertion order, reversed *)
}

type report = {
  wall_s : float;
  phases : (string * float) list;  (* seconds per phase, insertion order *)
}

let monotonic_clock () =
  Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(clock = monotonic_clock) () =
  { clock; t0 = clock (); phases = [] }

let add_phase (t : t) name seconds =
  match List.assoc_opt name t.phases with
  | Some _ ->
    t.phases <-
      List.map (fun (n, v) -> if n = name then (n, v +. seconds) else (n, v))
        t.phases
  | None -> t.phases <- t.phases @ [ (name, seconds) ]

let phase t name f =
  let start = t.clock () in
  Fun.protect ~finally:(fun () -> add_phase t name (t.clock () -. start)) f

let report t = { wall_s = t.clock () -. t.t0; phases = t.phases }
