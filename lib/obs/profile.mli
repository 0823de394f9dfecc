(** Site-level profiler over the typed event stream.

    Aggregates miss/false-miss/stall events by code site (using the
    [Event.site] attached by the protocol engine), tracks per-block
    contention (reader/writer sets, invalidation ping-pong, a
    false-sharing verdict from per-longword access masks), and matches
    protocol request/reply message pairs into latency spans.

    Attach one to an [Obs.t] with [Obs.attach_profiler] before the run;
    read the aggregates afterwards.  Rendering takes naming closures so
    sites print as ["fn:line"] via the runtime's frozen image without
    this module depending on it. *)

type site_stats = {
  mutable n_read : int;
  mutable n_write : int;
  mutable n_upgrade : int;
  mutable n_false : int;
  mutable n_stall : int;
  mutable stall_cycles : int;
}

val site_misses : site_stats -> int
(** [n_read + n_write + n_upgrade]. *)

type nodes
(** A set of node ids, one bit for each id below the profiler's
    [nprocs]. *)

val cardinal : nodes -> int

type block_stats = {
  readers : nodes; (** read-missing nodes *)
  writers : nodes; (** write/upgrade-missing nodes *)
  mutable invals : int;
  mutable pingpong : int;
      (** invalidations whose requester differs from the previous one *)
  mutable last_req : int;
  word_writers : (int, nodes) Hashtbl.t; (** longword offset -> nodes *)
  word_readers : (int, nodes) Hashtbl.t;
}

type span = {
  sp_node : int;
  sp_kind : string; (** request kind that opened the transaction *)
  sp_addr : int;
  sp_start : int;
  sp_dur : int;
}

type t

val create : ?nprocs:int -> ?block_of:(int -> int) -> unit -> t
(** Events must come from nodes below [nprocs] (default 1).
    [block_of] maps a data address to the base used for contention
    grouping (default: 64-byte lines). *)

val feed : t -> Event.record -> unit
(** Consume one event record ([Obs.emit] calls this for an attached
    profiler). *)

type totals = { t_read : int; t_write : int; t_upgrade : int; t_false : int }

val totals : t -> totals
(** Sum of per-site counters over every site — equals the registry's
    miss counters when profiler and registry fed from the same stream. *)

val sites : t -> ((int * int) * site_stats) list
(** All sites, hottest (most checks fired, then stall cycles) first. *)

val spans : t -> span list
(** Matched request/reply transactions, oldest first. *)

val span_count : t -> int
val span_metrics : t -> Metrics.t
(** Per-request-kind latency histograms, named ["span.<kind>"]. *)

val unmatched : t -> (int * int * string * int) list
(** Requests never answered: (node, addr, kind, send time). *)

val block_truly_shared : block_stats -> bool
val is_suspect : block_stats -> bool
val false_sharing_suspects : t -> (int * block_stats) list
(** Blocks with invalidation traffic, several nodes involved, and no
    longword-level conflict — sorted by invalidation count. *)

val contended_blocks : t -> (int * block_stats) list

val report :
  ?top:int -> t -> name_site:(proc:int -> pc:int -> string) -> string
(** Hot-site table (top-N), contended blocks, and span latency summary. *)

val collapsed :
  t ->
  name_proc:(int -> string) ->
  name_site:(proc:int -> pc:int -> string) ->
  string
(** Collapsed-stack text ("fn;fn;site count" lines) for flamegraph
    tools; counts are checks fired (misses + false misses). *)

val parse_collapsed : string -> (string * int) list
(** Parse collapsed-stack text back to (stack, count) pairs. *)

val drain_spans : t -> Event.record list
(** Matched spans as [Event.Span] records, oldest first; one-shot (a
    second call returns []). *)
