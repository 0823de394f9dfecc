(** Tournament tree over integer keys indexed [0 .. n-1]: the index of
    the smallest key in O(1), ties to the lowest index; re-keying one
    index costs O(log n).  Neither allocates. *)

type t

val create : int -> t
(** [create n]: [n >= 1] keys, all [max_int]. *)

val update : t -> int -> int -> unit
(** [update t i k] sets key [i] to [k]. *)

val winner : t -> int
(** The lowest index holding the smallest key (index 0 when every key
    is [max_int]). *)

val key : t -> int -> int
