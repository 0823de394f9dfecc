(* Whole-cluster simulation state.

   The protocol's own state — directory, pending/ack bookkeeping, lock,
   flag and barrier objects — lives in the immutable
   [Shasta_protocol.Transitions.view] held in [proto]; the engine
   threads it through the pure core (each node's [Transitions.stepper]) and
   applies the actions the core streams against the machine structures
   kept here. *)

open Shasta_machine
open Shasta_protocol

type consistency = Transitions.consistency = Release | Sequential

(* Home assignment for shared pages: the paper's round-robin default
   (Section 2.1), or first-touch, which homes each page at the node
   that allocates on it first.  Only [Alloc] reads it; the protocol core
   sees the placements as [I_set_home] inputs. *)
type home_policy = Round_robin | First_touch

type config = {
  nprocs : int;
  line_shift : int;
  consistency : consistency;
  pipe_config : Pipeline.config;
  net_profile : Shasta_network.Network.profile;
  net_faults : Shasta_network.Network.faults option;
      (* None: the paper's reliable interconnect.  Some f: a faulty
         wire under the reliable-delivery sublayer (shasta_run
         --net-faults) *)
  node_faults : Nodefaults.t option;
      (* None (or a spec with no events): no crash injection, and the
         run is byte-identical to one without the layer.  Some s: halt
         and restart nodes per the schedule (shasta_run --node-faults) *)
  fixed_block : int option; (* force one block size (ablation runs) *)
  obs : Shasta_obs.Obs.t;
      (* the observability subsystem every layer reports into: typed
         event stream (when sinks are attached) plus the always-on
         metrics registry *)
  dir_mode : Nodeset.mode;
      (* directory organization for every protocol node set (full-map
         default; limited-pointer for nprocs > 61) *)
  home_policy : home_policy;
  scalable_sync : bool;
      (* MCS-style queue locks + combining-tree barrier instead of the
         centralized home-arbited objects *)
}

let default_config ?(nprocs = 1) ?(line_shift = 6)
    ?(consistency = Release) ?(pipe_config = Pipeline.alpha_21064a)
    ?(net_profile = Shasta_network.Network.memory_channel) ?net_faults
    ?node_faults ?fixed_block ?obs ?(dir_mode = Nodeset.Full)
    ?(home_policy = Round_robin) ?(scalable_sync = false) () =
  (* fail loudly instead of silently wrapping masks past the int width:
     every nprocs must be representable by the active directory mode *)
  (match Nodeset.validate dir_mode ~nprocs with
   | Ok () -> ()
   | Error e -> invalid_arg ("State.default_config: " ^ e));
  let obs =
    match obs with Some o -> o | None -> Shasta_obs.Obs.create ~nprocs ()
  in
  { nprocs; line_shift; consistency; pipe_config; net_profile; net_faults;
    node_faults; fixed_block; obs; dir_mode; home_policy; scalable_sync }

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
  (* every allocated shared range, for fork-time initialization *)
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

let line_bytes t = 1 lsl t.config.line_shift

(* The shared heap starts a little above 2^39 so that the state/exclusive
   table entries of the first allocations do not all alias cache set 0
   together with the start of the static area — a degenerate
   direct-mapped conflict a real linker/heap layout would not produce. *)
let shared_heap_start = Shasta.Layout.shared_base + 0x10000

let node t i = t.nodes.(i)

let obs t = t.config.obs
