(* Deterministic replay through the pure protocol core.

   When [state.record_inputs] is set, the engine logs every
   (node, input) pair it feeds to [Transitions.step].  Because the core
   is pure and the recorded inputs carry every machine-derived value the
   core consumed (stored longwords, a batch miss's block order), folding
   [step] over the log from the initial view must land on exactly the
   view the live run left behind — [canon]-equal, not merely similar.
   A divergence means the core consulted state outside its inputs, i.e.
   a hidden side channel: precisely the bug class the refactor is meant
   to exclude.  Only views are compared, so each node's
   [Transitions.stepper] streams its actions into a sink that discards
   them, as the engine's steppers stream into theirs.

   The recording point sits ABOVE the transport: message inputs are
   logged when the engine pops them from [Network.recv], which is after
   the wire has retransmitted drops.  So a run over a faulty wire
   ([--net-faults]) replays exactly like a clean one — the log already
   contains the repaired, exactly-once per-channel-FIFO stream the
   protocol consumed, and the fault layer needs no re-simulation.

   Structural invariants are checked after every replayed step. *)

open Shasta_protocol
module T = Transitions

type result = {
  steps : int;
  invariant_failures : (int * string list) list; (* step index, errors *)
  mismatch : bool; (* replayed view differs from the live one *)
}

let ok r = r.invariant_failures = [] && not r.mismatch

let replay (state : State.t) =
  let cfg = state.State.tcfg in
  let inputs = List.rev state.State.inputs_rev in
  let steppers =
    Array.init cfg.T.nprocs (fun node -> T.stepper cfg ~node ignore)
  in
  let v = ref (T.init cfg) in
  let steps = ref 0 in
  let failures = ref [] in
  List.iter
    (fun (node, input) ->
      v := T.step_with steppers.(node) !v input;
      incr steps;
      match T.invariants cfg !v with
      | [] -> ()
      | errs ->
        if List.length !failures < 10 then
          failures := (!steps, errs) :: !failures)
    inputs;
  { steps = !steps;
    invariant_failures = List.rev !failures;
    mismatch = not (String.equal (T.canon !v) (T.canon state.State.proto)) }
