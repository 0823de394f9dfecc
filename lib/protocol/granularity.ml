(* Multiple coherence granularities (Section 4.2 of the paper).

   The block size — the unit of communication and coherence — varies
   across the shared address space: every page has a single block size,
   chosen when data is allocated onto it, and "the block size for each
   page is communicated to all the nodes at the time the pool of shared
   pages are allocated", so every node can map an address to its block
   without asking the home.

   The allocation heuristic is the paper's: objects up to a threshold
   get a block size equal to the (line-rounded) object size, so small
   objects travel as a unit; larger objects use the base line size to
   avoid false sharing.  An explicit block size (the special version of
   malloc) overrides the heuristic. *)

(* The coherence page: the unit of per-page block size here, of home
   assignment in the protocol (Section 2.1) and of shared allocation. *)
let page_bytes = 8192

(* Heuristic cutoff for object-sized blocks. *)
let threshold = 1024

type t = {
  line_bytes : int;
  block_of_page : (int, int) Hashtbl.t; (* page number -> block bytes *)
}

let create ~line_bytes () =
  if line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Granularity.create: line size must be a power of two";
  { line_bytes; block_of_page = Hashtbl.create 64 }

let line_bytes t = t.line_bytes

let round_up v m = (v + m - 1) / m * m

(* Round a block-size request to a legal value: a multiple of the line
   size ("the size of each block must be a multiple of the fixed line
   size"), a power of two for alignment, at most a page. *)
let legalize ~line_bytes bytes =
  let b = max line_bytes (min bytes page_bytes) in
  let rec pow2 p = if p >= b then p else pow2 (2 * p) in
  pow2 line_bytes

(* Heuristic block size for an object of [size] bytes (Section 4.2). *)
let heuristic_block t ~size =
  if size <= threshold then
    legalize ~line_bytes:t.line_bytes (round_up (max size 1) t.line_bytes)
  else t.line_bytes

let set_page_block t ~page ~block_bytes =
  (match Hashtbl.find_opt t.block_of_page page with
   | Some b when b <> block_bytes ->
     invalid_arg "Granularity.set_page_block: page already has a block size"
   | _ -> ());
  Hashtbl.replace t.block_of_page page block_bytes

let block_bytes_at t addr =
  match Hashtbl.find t.block_of_page (addr / page_bytes) with
  | b -> b
  | exception Not_found -> t.line_bytes

(* Base address of the block containing [addr]. *)
let block_base t addr =
  let b = block_bytes_at t addr in
  addr land lnot (b - 1)

let lines_per_block t addr = block_bytes_at t addr / t.line_bytes
