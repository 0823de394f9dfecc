(* Printf-free integer writers for canonical strings.

   The model checker renders every explored state into one reused
   buffer; these append exactly the bytes [Printf]'s [%d] and [%x]
   would, without allocating. *)

val add_int : Buffer.t -> int -> unit
(** Decimal, as [%d] (a leading '-' for negatives). *)

val add_hex : Buffer.t -> int -> unit
(** Lowercase hex, as [%x]: negatives print as their 63-bit unsigned
    pattern. *)
