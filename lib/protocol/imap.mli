(** Persistent ordered maps over int keys: [Map.Make (Int)]'s
    algorithms with the key comparison inlined.

    Traversals ([iter], [fold], [bindings], and the calls [mapi],
    [filter] and [filter_map] make) run in increasing key order.  An
    operation that changes nothing returns its argument physically:
    [add k v m == m] when [v] is already bound at [k] (physically),
    [remove k m == m] when [k] is unbound, and [filter p m == m] when
    [p] keeps every binding.  Callers compare maps with [==] to skip
    rewrites; the tree shapes, and so the allocation and iteration
    order, are exactly [Map.Make (Int)]'s. *)

type key = int
type !+'a t

val empty : 'a t
val is_empty : 'a t -> bool
val singleton : key -> 'a -> 'a t
val add : key -> 'a -> 'a t -> 'a t
val find : key -> 'a t -> 'a
(** @raise Not_found when the key is unbound. *)

val find_opt : key -> 'a t -> 'a option
val mem : key -> 'a t -> bool
val remove : key -> 'a t -> 'a t
val cardinal : 'a t -> int
val bindings : 'a t -> (key * 'a) list
val iter : (key -> 'a -> unit) -> 'a t -> unit
val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val for_all : (key -> 'a -> bool) -> 'a t -> bool
val mapi : (key -> 'a -> 'b) -> 'a t -> 'b t
val filter : (key -> 'a -> bool) -> 'a t -> 'a t
val filter_map : (key -> 'a -> 'b option) -> 'a t -> 'b t

val union : (key -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t
(** As [Map.S.union]: [f] resolves a key bound in both maps. *)

val merge :
  (key -> 'a option -> 'b option -> 'c option) -> 'a t -> 'b t -> 'c t
(** As [Map.S.merge]. *)

val of_seq : (key * 'a) Seq.t -> 'a t
(** Adds the bindings in sequence order; a later one wins. *)
