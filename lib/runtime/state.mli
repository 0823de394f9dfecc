(* Whole-cluster simulation state.

   The protocol's own state — directory, pending/ack bookkeeping, lock,
   flag and barrier objects — lives in the immutable
   [Shasta_protocol.Transitions.view] held in [proto]; the engine
   threads it through the pure core (each node's [Transitions.stepper]) and
   applies the actions the core streams against the machine structures
   kept here. *)

open Shasta_machine
open Shasta_protocol

(* The consistency knob, defined once by the core. *)
type consistency = Transitions.consistency = Release | Sequential

(* Home assignment for shared pages: the paper's round-robin default,
   or first-touch (home = the first node to allocate on the page). *)
type home_policy = Round_robin | First_touch

type config = {
  nprocs : int;
  line_shift : int;
  consistency : consistency;
  pipe_config : Pipeline.config;
  net_profile : Shasta_network.Network.profile;
  net_faults : Shasta_network.Network.faults option;
  node_faults : Nodefaults.t option;
      (* None (or a spec with no events): no crash injection, and the
         run is byte-identical to one without the layer.  Some s: halt
         and restart nodes per the schedule (shasta_run --node-faults) *)
  fixed_block : int option; (* force one block size (ablation runs) *)
  obs : Shasta_obs.Obs.t;
  dir_mode : Nodeset.mode;
      (* directory organization for every protocol node set *)
  home_policy : home_policy;
  scalable_sync : bool; (* queue locks + combining-tree barrier *)
}

val default_config :
  ?nprocs:int ->
  ?line_shift:int ->
  ?consistency:consistency ->
  ?pipe_config:Pipeline.config ->
  ?net_profile:Shasta_network.Network.profile ->
  ?net_faults:Shasta_network.Network.faults ->
  ?node_faults:Nodefaults.t ->
  ?fixed_block:int ->
  ?obs:Shasta_obs.Obs.t ->
  ?dir_mode:Nodeset.mode ->
  ?home_policy:home_policy ->
  ?scalable_sync:bool ->
  unit ->
  config
(** Raises [Invalid_argument] when [nprocs] exceeds the directory
    mode's representable capacity (e.g. full-map past the int-mask
    width) — the guard against silent mask wraparound. *)

(* A per-block-size allocation pool: shared pages are handed out to one
   block size at a time (Section 4.2's per-page granularity scheme). *)
type pool = { mutable pool_page : int; mutable pool_used : int }

type t = {
  config : config;
  image : op Image.t;
  nodes : Node.t array;
  net : Message.t Shasta_network.Network.t;
  gran : Granularity.t;
  tcfg : Transitions.cfg;
  mutable proto : Transitions.view; (* the pure protocol state *)
  mutable shared_next_page : int;
  pools : (int, pool) Hashtbl.t;
  output : Buffer.t;
  mutable allocations : (int * int) list; (* base, rounded bytes *)
  pid_addr : int; (* static address of the __pid cell *)
  nprocs_addr : int;
  crashed_addr : int;
  (* static address of the __crashed cell (-1 when the program does not
     declare one): a per-node private mask of nodes whose programs have
     died, maintained by the cluster at crash detection so programs can
     account for shards served by a truncated plan *)
  (* deterministic replay: when [record_inputs] is set, every
     (node, input) fed to Transitions.step is logged so the run can be
     reproduced through the pure core alone (shasta_run --replay) *)
  mutable record_inputs : bool;
  mutable inputs_rev : (int * Transitions.input) list;
  (* node-fault injection: schedule entries become (absolute cycle,
     event) once the timed phase starts; the scheduler fires them when
     simulated time reaches them *)
  mutable fault_queue : (int * Nodefaults.event) list;
}

(* One compiled instruction ([Exec.compile]): run it on a node whose pc
   already points past it, given its text address; [true] when the node
   entered the runtime and must yield to the scheduler. *)
and op = t -> Node.t -> int -> bool

val line_bytes : t -> int
val shared_heap_start : int
val node : t -> int -> Node.t
val obs : t -> Shasta_obs.Obs.t
