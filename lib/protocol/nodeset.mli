(** Sets of node ids under a configurable directory organization.

    Two classic schemes, selected per configuration ([--dir-mode]):
    the exact full-map bit vector (the default, byte-identical to the
    historical int masks), and limited pointers with
    overflow-to-broadcast.  An overflowed set may over-approximate
    membership (supersets only — the protocol absorbs spurious
    invalidations), but [remove] is always exact, which crash recovery
    relies on.  The masks that must never over-approximate (barrier
    arrivals, crashed, halted) are exact in every mode: one int mask up
    to [max_bits] nodes, a fixed-length word mask above.

    Values are canonical: structurally equal values denote equal sets
    regardless of the operation order that built them. *)

type mode = Full | Limited of int

type t =
  | Bits of int
  | Ptrs of { k : int; n : int; ps : int list }
  | Bcast of { n : int; excl : int list }
  | Words of int array

val max_bits : int
(** Capacity of one int bitmask (Sys.int_size - 2). *)

val empty : mode -> nprocs:int -> t
val exact_empty : nprocs:int -> t
(** An exact (never over-approximating) empty set, regardless of mode —
    for barrier/crash masks: [Bits 0] up to [max_bits] nodes, beyond
    that a [Words] mask with a bit per node, so [mem], [add] and [remove]
    never walk a list at any P.  A word mask is never mutated; [add]
    and [remove] copy it, and raise [Invalid_argument] on a node it
    has no bit for. *)

val singleton : mode -> nprocs:int -> int -> t
val add : t -> int -> t
val remove : t -> int -> t

val mem : t -> int -> bool
val is_empty : t -> bool
val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Members in ascending order; cost proportional to the population,
    not to nprocs (lowest-set-bit peeling on bit vectors). *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list

val subset : t -> t -> bool
val disjoint : t -> t -> bool
(** Neither builds a list: two full maps, or two word masks, compare
    word by word; any other pair walks the first set's members in
    place. *)

val beyond : t -> int -> bool
(** [beyond t n]: some member lies outside [0, n), found without
    building a list. *)

val next : t -> int -> int
(** [next t x]: the least member at or above [x], or [-1] when there is
    none.  Walking [next t 0], [next t (m + 1)], ... visits the members
    in ascending order without building a list. *)

val is_exact : t -> bool
(** [false] when membership may be over-approximated (an overflowed
    broadcast). *)

val to_mask : t -> int
(** Collapse to an int bitmask.  Raises [Invalid_argument] naming the
    node when a member is not below [Sys.int_size]. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the canonical rendering (equal strings <=> equal values),
    without [Printf]: the full map prints as its hex mask, a word mask
    as [W(] and its hex words, low word first. *)

val to_string : t -> string
(** [to_buffer] into a fresh string. *)

val mode_name : mode -> string
val mode_of_string : string -> (mode, string) result
val validate : mode -> nprocs:int -> (unit, string) result
(** Reject nprocs beyond the mode's representable capacity, with an
    actionable message — the guard against silent mask wraparound. *)

(**/**)

val ntz : int -> int
val iter_bits : (int -> unit) -> int -> unit
val popcount : int -> int
