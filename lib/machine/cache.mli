(** Direct-mapped cache models.

    Table 2's dynamic overheads include the hardware cache misses the
    check code itself causes — state-table misses on store checks are
    the paper's motivation for the exclusive table (Section 3.3) — so
    check metadata accesses go through the same model as data. *)

type t
(** One direct-mapped cache: its tags and its miss count.  Tag storage
    is allocated in chunks of up to 512 sets on the first miss into
    each chunk. *)

val create : size_bytes:int -> line_bytes:int -> t
(** An empty cache.  Raises [Invalid_argument] unless both sizes are
    powers of two and [line_bytes <= size_bytes]. *)

val misses : t -> int

val line_shift : t -> int
(** log2 of the line size in bytes. *)

val allocated_bytes : t -> int
(** Bytes of tag storage allocated so far; 0 for a fresh cache. *)

val access : t -> int -> bool
(** Probe and fill; [true] on hit.  Requires [addr >= 0]. *)

val invalidate_range : t -> addr:int -> len:int -> unit
(** Drop any lines overlapping the range; used when protocol handlers
    rewrite memory behind the processor's back.  Requires [addr >= 0]
    and [len >= 1]. *)

type hierarchy = {
  l1i : t;
  l1d : t;
  l2 : t;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  mutable on_miss : t -> unit;
      (** observability tap, fired with the missing cache on every
          miss; no-op by default *)
}

val alpha_hierarchy : unit -> hierarchy
(** The evaluation platform's geometry: 16 KB I/D L1, 4 MB L2
    (paper Section 5.2). *)

val daccess : hierarchy -> int -> int
(** Extra cycles for a data access (0 on an L1 hit). *)

val iaccess : hierarchy -> int -> int
(** Extra cycles for an instruction fetch. *)

val dinvalidate : hierarchy -> addr:int -> len:int -> unit
