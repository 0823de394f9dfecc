(** Sparse simulated memory.

    A table of 8 KB pages of bytes in little-endian order, as on the
    Alpha.  Every access is one load or store of its width: the checks
    read the state table a byte at a time, and the flag technique
    (paper Section 3.2) stores the -253 flag value into every longword
    of an invalid line.

    Quadword integers are OCaml ints carrying the sign-extended 64-bit
    value (values outside [-2^62, 2^62) wrap; simulated programs keep
    integer data well inside).  Floating-point data takes the exact
    [Int64] path. *)

type t

val create : unit -> t
val page_bytes : int

val allocated_bytes : t -> int
(** Bytes of simulated memory materialized so far; each materialized
    page costs its 8 KB of host heap. *)

(** {1 Longwords} *)

val read_long_u : t -> int -> int
(** Raw 32-bit pattern in [0, 2^32).  The address must be 4-aligned. *)

val write_long_u : t -> int -> int -> unit

val read_long : t -> int -> int
(** Sign-extended longword, as the [ldl] instruction sees it. *)

val sext32 : int -> int
(** Sign-extend an unsigned 32-bit value: how [ldl] and the
    interpreter's longword arithmetic ([addl], [subl], [mull]) read
    one. *)

(** {1 Bytes} *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

(** {1 Quadwords} *)

val read_quad : t -> int -> int
(** Sign-extended quadword (see module comment for range).  8-aligned. *)

val write_quad : t -> int -> int -> unit

val read_quad_unaligned : t -> int -> int
(** [ldq_u] semantics: the low three address bits are ignored. *)

val read_quad_bits : t -> int -> int64
(** Exact 64-bit pattern, used for floating-point data. *)

val write_quad_bits : t -> int -> int64 -> unit

val read_float_into : t -> int -> float array -> int -> unit
(** [read_float_into t addr fregs f] loads the float at [addr] into
    [fregs.(f)]; [write_float_from t addr fregs f] stores [fregs.(f)].
    The float stays unboxed: neither allocates. *)

val write_float_from : t -> int -> float array -> int -> unit

(** {1 Bulk operations} *)

val fill_bytes : t -> addr:int -> len:int -> int -> unit
(** [fill_bytes t ~addr ~len v]: every observer sees exactly what a
    [write_byte] loop storing [v] over [addr, addr+len) would have left.
    Pages already materialized are filled at once; for the rest the
    range is kept as a pending fill that each page applies, oldest fill
    first, when it materializes. *)

val copy_pages : src:t -> dst:t -> addr:int -> len:int -> unit
(** Copy every page of [src] overlapping the page-aligned range that
    holds data into [dst]: the materialized ones, and those a pending
    fill covers, which are materialized in [src] first so that they copy
    as their filled content.  Used for process-creation-time copying of
    the static area. *)

val blit_out : t -> addr:int -> nlongs:int -> int array
val blit_in : t -> addr:int -> int array -> unit
