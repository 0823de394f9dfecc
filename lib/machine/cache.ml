(* Direct-mapped cache models.

   The dynamic overheads of Table 2 include hardware cache misses caused
   by the check code itself — in particular state-table misses on store
   checks (Section 3.3 motivates the exclusive table by the 8x density
   difference) and extra I-cache pressure from the inserted code.  A
   simple direct-mapped tag model reproduces those effects.  Writeback
   traffic is not costed (dirty evictions are counted but charged the
   same as clean fills); this second-order effect does not change any of
   the shapes the paper reports.

   Tags cost what a run touches.  The tag store is an array of chunks of
   up to 512 sets (4 KB, so a 16 KB L1 is one chunk and the 4 MB L2 is
   128).  A chunk no miss has filled yet is the shared [empty] chunk,
   which holds only -1 (no line); a miss into it allocates the chunk.
   The hit path is the same two loads either way, and every hit and
   miss is the one a flat, eagerly filled tag array would give.  Sets
   are found by shift and mask, so the geometry must be powers of two. *)

let max_chunk_bits = 9

(* Shared by every cache and never written: [access] replaces it before
   its store, and [invalidate_range] writes only a slot that holds a
   block >= 0, which this chunk never does.  Built by the first [create],
   so a process that models no cache (the model checker) allocates
   nothing here. *)
let empty = lazy (Array.make (1 lsl max_chunk_bits) (-1))

type t = {
  line_shift : int;
  set_mask : int;
  chunk_bits : int; (* log2 sets per chunk *)
  chunk_mask : int;
  chunks : int array array; (* [empty] = never filled *)
  mutable misses : int;
}

let pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1)

let create ~size_bytes ~line_bytes =
  if not (pow2 size_bytes && pow2 line_bytes && line_bytes <= size_bytes)
  then invalid_arg "Cache.create: sizes must be powers of two, line <= size";
  let nsets = size_bytes / line_bytes in
  let chunk_bits = min max_chunk_bits (log2 nsets) in
  { line_shift = log2 line_bytes;
    set_mask = nsets - 1;
    chunk_bits;
    chunk_mask = (1 lsl chunk_bits) - 1;
    chunks = Array.make (nsets lsr chunk_bits) (Lazy.force empty);
    misses = 0 }

let misses t = t.misses
let line_shift t = t.line_shift

let allocated_bytes t =
  let empty = Lazy.force empty in
  Array.fold_left
    (fun n c -> if c == empty then n else n + (Array.length c * (Sys.word_size / 8)))
    0 t.chunks

(* Give [set]'s chunk its own storage in place of [empty]. *)
let own_chunk t set =
  let c = Array.make (t.chunk_mask + 1) (-1) in
  t.chunks.(set lsr t.chunk_bits) <- c;
  c

(* Count a miss of [block] (in [set]) and fill it. *)
let fill t block set =
  t.misses <- t.misses + 1;
  let c = t.chunks.(set lsr t.chunk_bits) in
  let c = if c == Lazy.force empty then own_chunk t set else c in
  c.(set land t.chunk_mask) <- block

(* Probe and fill.  Returns true on hit. *)
let access t addr =
  let block = addr asr t.line_shift in
  let set = block land t.set_mask in
  if t.chunks.(set lsr t.chunk_bits).(set land t.chunk_mask) = block then true
  else begin
    fill t block set;
    false
  end

(* Invalidate every line of the cache that overlaps [addr, addr+len).
   Used when protocol handlers rewrite memory behind the processor's
   back (data replies, flag writes): the next program access must pay
   the miss the real machine would pay. *)
let invalidate_range t ~addr ~len =
  for block = addr asr t.line_shift to (addr + len - 1) asr t.line_shift do
    let set = block land t.set_mask in
    let c = t.chunks.(set lsr t.chunk_bits) in
    (* block >= 0, so this never writes [empty] *)
    if c.(set land t.chunk_mask) = block then c.(set land t.chunk_mask) <- -1
  done

type hierarchy = {
  l1i : t;
  l1d : t;
  l2 : t;
  l1_miss_cycles : int; (* L1 miss, L2 hit *)
  l2_miss_cycles : int; (* L2 miss, memory fill *)
  (* observability tap: called with the missing cache on every miss;
     wired to the metrics registry by the cluster, no-op by default *)
  mutable on_miss : t -> unit;
}

(* Cache geometry of the evaluation platform: 16 KB on-chip I and D
   caches, 4 MB off-chip second-level cache (Section 5.2). *)
let alpha_hierarchy () =
  { l1i = create ~size_bytes:(16 * 1024) ~line_bytes:32;
    l1d = create ~size_bytes:(16 * 1024) ~line_bytes:32;
    l2 = create ~size_bytes:(4 * 1024 * 1024) ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 50;
    on_miss = ignore }

(* Extra cycles for an access to [l1] that missed it. *)
let l1_miss h l1 addr =
  h.on_miss l1;
  if access h.l2 addr then h.l1_miss_cycles
  else begin
    h.on_miss h.l2;
    h.l1_miss_cycles + h.l2_miss_cycles
  end

(* Extra cycles for a data access.  [access] written out, so an L1 hit
   costs no further call. *)
let daccess h addr =
  let t = h.l1d in
  let block = addr asr t.line_shift in
  let set = block land t.set_mask in
  if t.chunks.(set lsr t.chunk_bits).(set land t.chunk_mask) = block then 0
  else begin
    fill t block set;
    l1_miss h t addr
  end

(* Extra cycles for an instruction fetch. *)
let iaccess h addr = if access h.l1i addr then 0 else l1_miss h h.l1i addr

let dinvalidate h ~addr ~len =
  invalidate_range h.l1d ~addr ~len;
  invalidate_range h.l2 ~addr ~len
