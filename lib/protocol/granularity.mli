(** Multiple coherence granularities (paper Section 4.2): every shared
    page has one block size, chosen at allocation time, known to all
    nodes; blocks are the unit of communication and coherence. *)

val page_bytes : int
(** The coherence page (8192 bytes): one block size per page, homes
    assigned round-robin per page (Section 2.1), shared memory handed
    out in whole pages.  The only definition of the page size. *)

type t
(** The base line size and the block size of every page assigned one;
    a page not assigned one uses the line size. *)

val create : line_bytes:int -> unit -> t

val line_bytes : t -> int

val legalize : line_bytes:int -> int -> int
(** Round a block-size request to a legal value: a power-of-two multiple
    of the line size, at most a page. *)

val heuristic_block : t -> size:int -> int
(** The paper's allocation heuristic: objects up to 1024 bytes travel
    as one block; larger objects use line-size blocks to avoid false
    sharing. *)

val set_page_block : t -> page:int -> block_bytes:int -> unit
(** Assign [page] its block size.  Assigning the size it already has is
    a no-op; any other size raises [Invalid_argument]. *)

val block_bytes_at : t -> int -> int
val block_base : t -> int -> int
val lines_per_block : t -> int -> int
