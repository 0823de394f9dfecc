(* Sparse simulated memory.

   Memory is a table of 2 KB host pages, each a [Bytes.t] in
   little-endian byte order, as on the Alpha.  A page is materialized
   when an access first touches it, so a node's host heap follows what
   it touches.  2 KB is the smallest power of two that OCaml allocates
   straight in the major heap: a 2048-byte [Bytes.t] is 257 words, and
   a block of 256 words or fewer starts in the minor heap, which a
   later collection copies.  The host page is unrelated to the 8 KB
   coherence page of [Granularity].  Every accessor is one load or
   store of its own width: the state table is read a byte at a time,
   the flag value of the load miss check (Section 3.2 of the paper) a
   longword at a time, data a quadword at a time.

   Quadword integer values are represented as OCaml ints carrying the
   sign-extended 64-bit value; values outside [-2^62, 2^62) are not
   representable and wrap — simulated programs keep integer data well
   inside that range (addresses are < 2^40).  Floating-point data takes
   the Int64 path and is exact. *)

(* A fill of [f_addr, f_addr + f_len) still owed to the pages of that
   range that were not materialized when it was made.  The byte at
   address [a] gets byte [a land 3] of the longword pattern [f_pat]; a
   byte fill repeats its byte four times, a longword fill is 4-aligned
   at both ends. *)
type fill = { f_addr : int; f_len : int; f_pat : int }

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable allocated_pages : int;
  (* pending fills, newest first; a page applies them oldest first when
     it materializes *)
  mutable fills : fill list;
  (* the page the last access touched, then a direct-mapped cache of
     recent pages indexed by the low bits of the page number; pages are
     never freed, so no entry can go stale *)
  mutable last_pno : int;
  mutable last_page : Bytes.t;
  slot_pno : int array; (* min_int = empty *)
  slot_page : Bytes.t array;
}

let page_bytes = 2048

(* Check code alternates between state-table and data pages, which the
   one-entry cache alone would send to the hash table on every switch. *)
let slot_bits = 6
let slots = 1 lsl slot_bits

(* A page's slot: the top bits of its number times 2^63 / golden ratio,
   rounded to odd (Fibonacci hashing; the literal wraps to a negative
   int, which multiplies the same modulo 2^63).  The static, stack,
   shared, state-table and exclusive-table regions start at powers of
   two, so the low bits of their page numbers agree: indexed by those
   bits, the first page of every region would share one slot. *)
let[@inline] slot_of pno = (pno * 0x4F1BBCDCBFA53E0B) lsr (63 - slot_bits)

let create () =
  { pages = Hashtbl.create 16; allocated_pages = 0; fills = [];
    last_pno = min_int; last_page = Bytes.empty;
    slot_pno = Array.make slots min_int;
    slot_page = Array.make slots Bytes.empty }

(* Apply fill [f] to page [pg] (number [pno]). *)
let fill_page pg pno f =
  let pstart = pno * page_bytes in
  let lo = max f.f_addr pstart - pstart
  and hi = min (f.f_addr + f.f_len) (pstart + page_bytes) - pstart in
  if lo < hi then begin
    let b = f.f_pat land 0xFF in
    if f.f_pat = b * 0x01010101 then
      Bytes.unsafe_fill pg lo (hi - lo) (Char.unsafe_chr b)
    else
      (* a longword fill: [lo] and [hi] are 4-aligned, since the fill
         and every page boundary are *)
      for k = 0 to ((hi - lo) / 4) - 1 do
        Bytes.set_int32_le pg (lo + (4 * k)) (Int32.of_int f.f_pat)
      done
  end

(* [fills] is newest first: recurse before applying, so the oldest fill
   lands first.  Top level and closure-free, so a page's first touch
   allocates only the page. *)
let rec apply_fills pg pno = function
  | [] -> ()
  | f :: older ->
    apply_fills pg pno older;
    fill_page pg pno f

(* Page [pno] from the table, materialized on first touch.  Allocates
   only when it materializes a page. *)
let find_page t pno =
  match Hashtbl.find t.pages pno with
  | p -> p
  | exception Not_found ->
    let p = Bytes.make page_bytes '\000' in
    apply_fills p pno t.fills;
    Hashtbl.add t.pages pno p;
    t.allocated_pages <- t.allocated_pages + 1;
    p

(* Page [pno] through the page cache. *)
let slot_page t pno =
  let s = slot_of pno in
  let p =
    if t.slot_pno.(s) = pno then t.slot_page.(s)
    else begin
      let p = find_page t pno in
      t.slot_pno.(s) <- pno;
      t.slot_page.(s) <- p;
      p
    end
  in
  t.last_pno <- pno;
  t.last_page <- p;
  p

(* The page holding [addr]: the last page, else the page cache, else
   the table.  Inlined, so a repeat of the last page costs no call. *)
let[@inline] page t addr =
  let pno = addr / page_bytes in
  if pno = t.last_pno then t.last_page else slot_page t pno

(* [addr]'s offset in its page.  A negative address off a page boundary
   gives a negative offset, which the accessors' bounds checks refuse. *)
let[@inline] off addr = addr mod page_bytes

let allocated_bytes t = t.allocated_pages * page_bytes

let materialized t addr = Hashtbl.mem t.pages (addr / page_bytes)

let unaligned addr what =
  invalid_arg (Printf.sprintf "Memory: unaligned %s access at 0x%x" what addr)

let[@inline] check_align addr n what =
  if addr land (n - 1) <> 0 then unaligned addr what

(* Raw longword pattern in [0, 2^32). *)
let read_long_u t addr =
  check_align addr 4 "longword";
  Int32.to_int (Bytes.get_int32_le (page t addr) (off addr)) land 0xFFFFFFFF

let write_long_u t addr v =
  check_align addr 4 "longword";
  Bytes.set_int32_le (page t addr) (off addr) (Int32.of_int v)

(* Sign-extended longword, as the ldl instruction sees it. *)
let sext32 v = if v land 0x80000000 <> 0 then v - 0x1_0000_0000 else v

let read_long t addr =
  check_align addr 4 "longword";
  Int32.to_int (Bytes.get_int32_le (page t addr) (off addr))

let read_byte t addr = Bytes.get_uint8 (page t addr) (off addr)
let write_byte t addr v = Bytes.set_uint8 (page t addr) (off addr) v

(* Quadword as a sign-extended OCaml int (see module comment).  An
   aligned quadword never crosses a page. *)
let read_quad t addr =
  check_align addr 8 "quadword";
  Int64.to_int (Bytes.get_int64_le (page t addr) (off addr))

let write_quad t addr v =
  check_align addr 8 "quadword";
  Bytes.set_int64_le (page t addr) (off addr) (Int64.of_int v)

(* Exact 64-bit pattern access, used for floating-point data.  Inlined
   so the float accessors below keep the pattern unboxed. *)
let[@inline] read_quad_bits t addr =
  check_align addr 8 "quadword";
  Bytes.get_int64_le (page t addr) (off addr)

let[@inline] write_quad_bits t addr bits =
  check_align addr 8 "quadword";
  Bytes.set_int64_le (page t addr) (off addr) bits

(* Floats move between memory and a register file, where they stay
   unboxed: neither accessor allocates. *)
let read_float_into t addr (fregs : float array) f =
  fregs.(f) <- Int64.float_of_bits (read_quad_bits t addr)

let write_float_from t addr (fregs : float array) f =
  write_quad_bits t addr (Int64.bits_of_float fregs.(f))

(* Aligned quadword load used by the check code (ldq_u ignores the low
   three address bits, as on the Alpha). *)
let read_quad_unaligned t addr = read_quad t (addr land lnot 7)

(* Fill [addr, addr+len) with the pattern [pat]: materialized pages are
   filled now, the others when they materialize. *)
let fill t ~addr ~len pat =
  if len > 0 then begin
    let f = { f_addr = addr; f_len = len; f_pat = pat } in
    let first = addr / page_bytes and last = (addr + len - 1) / page_bytes in
    let filled = ref 0 in
    let fill_one pno pg =
      if pno >= first && pno <= last then begin
        fill_page pg pno f;
        incr filled
      end
    in
    (* Visit the range or the table, whichever is smaller: the exclusive
       table of a node's private regions spans 192 pages, and a fresh
       node has materialized almost none. *)
    if last - first < Hashtbl.length t.pages then
      for pno = first to last do
        match Hashtbl.find t.pages pno with
        | pg -> fill_one pno pg
        | exception Not_found -> ()
      done
    else Hashtbl.iter fill_one t.pages;
    if !filled <= last - first then t.fills <- f :: t.fills
  end

(* Every byte of [addr, addr+len) reads as [v], exactly as after a
   [write_byte] loop. *)
let fill_bytes t ~addr ~len v = fill t ~addr ~len ((v land 0xFF) * 0x01010101)

(* Every longword of [addr, addr+len) reads as [v], exactly as after a
   [write_long_u] loop. *)
let fill_longs t ~addr ~len v =
  check_align addr 4 "longword";
  if len land 3 <> 0 then
    invalid_arg
      (Printf.sprintf "Memory.fill_longs: length %d is not a multiple of 4"
         len);
  fill t ~addr ~len (v land 0xFFFFFFFF)

(* Materialize every page of [t] that a pending fill owes inside the
   page-aligned range [addr, addr+len).  Closure-free, so a copy out of
   a memory without fills allocates nothing more. *)
let rec materialize_fills t ~addr ~len = function
  | [] -> ()
  | f :: older ->
    let lo = max addr f.f_addr and hi = min (addr + len) (f.f_addr + f.f_len) in
    for pno = lo / page_bytes to (hi - 1) / page_bytes do
      ignore (page t (pno * page_bytes))
    done;
    materialize_fills t ~addr ~len older

(* Copy every page of [src] overlapping [addr, addr+len) (page-aligned
   range) that holds data into [dst].  Pages a pending fill covers are
   materialized in [src] first, so they copy as their filled content.
   Used for process-creation-time copying of the static data area. *)
let copy_pages ~src ~dst ~addr ~len =
  materialize_fills src ~addr ~len src.fills;
  let to_copy =
    Hashtbl.fold
      (fun pno pg acc ->
        let pstart = pno * page_bytes in
        if pstart >= addr && pstart < addr + len then (pstart, pg) :: acc
        else acc)
      src.pages []
  in
  List.iter
    (fun (pstart, pg) -> Bytes.blit pg 0 (page dst pstart) 0 page_bytes)
    to_copy

(* Bulk copy of [nlongs] longwords starting at [addr] (both 4-aligned). *)
let blit_out t ~addr ~nlongs =
  let a = Array.make nlongs 0 in
  for i = 0 to nlongs - 1 do
    a.(i) <- read_long_u t (addr + (4 * i))
  done;
  a

let blit_in t ~addr longs =
  for i = 0 to Array.length longs - 1 do
    write_long_u t (addr + (4 * i)) longs.(i)
  done
