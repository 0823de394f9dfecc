(* Memory model tests: longword/quadword/byte aliasing, sign extension,
   float bit patterns, the flag value, page copying, bulk fills against a
   [write_byte] or [write_long_u] loop, plus cache model behaviour. *)

open Shasta_machine

let t_long_roundtrip () =
  let m = Memory.create () in
  Memory.write_long_u m 0x1000 0xDEADBEEF;
  Alcotest.(check int) "unsigned read" 0xDEADBEEF (Memory.read_long_u m 0x1000);
  Alcotest.(check int) "signed read" (0xDEADBEEF - 0x1_0000_0000)
    (Memory.read_long m 0x1000);
  Memory.write_long_u m 0x1004 0x7FFFFFFF;
  Alcotest.(check int) "positive signed" 0x7FFFFFFF (Memory.read_long m 0x1004)

let t_quad_longword_aliasing () =
  let m = Memory.create () in
  Memory.write_quad m 0x2000 0x11223344_55667788;
  Alcotest.(check int) "low longword" 0x55667788 (Memory.read_long_u m 0x2000);
  Alcotest.(check int) "high longword" 0x11223344 (Memory.read_long_u m 0x2004);
  Memory.write_long_u m 0x2000 0xAAAAAAAA;
  Alcotest.(check int) "quad sees longword write"
    0x11223344_AAAAAAAA (Memory.read_quad m 0x2000)

let t_negative_quad () =
  let m = Memory.create () in
  Memory.write_quad m 0x3000 (-42);
  Alcotest.(check int) "negative roundtrip" (-42) (Memory.read_quad m 0x3000);
  Memory.write_quad m 0x3008 (-1);
  Alcotest.(check int) "low pattern all ones" 0xFFFFFFFF
    (Memory.read_long_u m 0x3008)

let t_bytes () =
  let m = Memory.create () in
  Memory.write_byte m 0x4001 0xAB;
  Alcotest.(check int) "byte read" 0xAB (Memory.read_byte m 0x4001);
  Alcotest.(check int) "neighbours untouched" 0 (Memory.read_byte m 0x4000);
  Alcotest.(check int) "in longword" 0xAB00 (Memory.read_long_u m 0x4000);
  Memory.write_byte m 0x4001 0x01;
  Alcotest.(check int) "byte overwrite" 0x0100 (Memory.read_long_u m 0x4000)

(* Floats through a one-register file, as the interpreter moves them. *)
let write_float m a x = Memory.write_float_from m a [| x |] 0

let read_float m a =
  let r = [| 0.0 |] in
  Memory.read_float_into m a r 0;
  r.(0)

let t_floats () =
  let m = Memory.create () in
  List.iter
    (fun x ->
      write_float m 0x5000 x;
      Alcotest.(check (float 0.0)) "float roundtrip" x
        (read_float m 0x5000))
    [ 0.0; 1.5; -3.25; 1e300; -1e-300; Float.pi ]

let t_flag_longword () =
  let m = Memory.create () in
  Memory.write_long_u m 0x6000 Shasta.Layout.flag_pattern;
  Alcotest.(check int) "flag reads as -253" (-253) (Memory.read_long m 0x6000);
  (* a quadword load of a fully flagged region: low longword drives the
     addl-based check *)
  Memory.write_long_u m 0x6004 Shasta.Layout.flag_pattern;
  let q = Memory.read_quad m 0x6000 in
  Alcotest.(check int) "quad low 32 bits are the flag" 0
    ((q + 253) land 0xFFFFFFFF)

let t_unaligned_rejected () =
  let m = Memory.create () in
  Alcotest.check_raises "unaligned longword"
    (Invalid_argument "Memory: unaligned longword access at 0x1001")
    (fun () -> ignore (Memory.read_long_u m 0x1001));
  Alcotest.check_raises "unaligned quadword"
    (Invalid_argument "Memory: unaligned quadword access at 0x1004")
    (fun () -> ignore (Memory.read_quad m 0x1004))

let t_ldq_u_alignment () =
  let m = Memory.create () in
  Memory.write_quad m 0x7000 12345;
  Alcotest.(check int) "ldq_u ignores low bits" 12345
    (Memory.read_quad_unaligned m 0x7003)

let t_copy_pages () =
  let src = Memory.create () and dst = Memory.create () in
  Memory.write_quad src 0x10000 111;
  Memory.write_quad src 0x18000 222;
  Memory.write_quad src 0x40000 333;
  Memory.copy_pages ~src ~dst ~addr:0x10000 ~len:0x10000;
  Alcotest.(check int) "first page copied" 111 (Memory.read_quad dst 0x10000);
  Alcotest.(check int) "second page copied" 222 (Memory.read_quad dst 0x18000);
  Alcotest.(check int) "outside range untouched" 0
    (Memory.read_quad dst 0x40000)

(* --- bulk fills: [fill_bytes] must equal a [write_byte] loop ---------- *)

let pb = Memory.page_bytes

let write_loop m ~addr ~len v =
  for a = addr to addr + len - 1 do
    Memory.write_byte m a v
  done

let check_bytes what m ~addr ~len v =
  for a = addr to addr + len - 1 do
    Alcotest.(check int) (Printf.sprintf "%s 0x%x" what a) v
      (Memory.read_byte m a)
  done

let t_fill_lazy () =
  let m = Memory.create () in
  Memory.fill_bytes m ~addr:(pb - 3) ~len:(pb + 10) 0xAB;
  Alcotest.(check int) "no page materialized" 0 (Memory.allocated_bytes m);
  check_bytes "filled" m ~addr:(pb - 3) ~len:(pb + 10) 0xAB;
  check_bytes "before" m ~addr:(pb - 7) ~len:4 0;
  check_bytes "after" m ~addr:(2 * pb + 7) ~len:5 0

let t_fill_materialized () =
  (* a page materialized before the fill is filled at once, keeping its
     bytes outside the range *)
  let m = Memory.create () in
  Memory.write_long_u m pb 0x11223344;
  Memory.write_long_u m (pb + 8) 0x55667788;
  Memory.fill_bytes m ~addr:(pb + 2) ~len:6 0xEE;
  Alcotest.(check int) "head edge" 0xEEEE3344 (Memory.read_long_u m pb);
  Alcotest.(check int) "middle" 0xEEEEEEEE (Memory.read_long_u m (pb + 4));
  Alcotest.(check int) "past the end" 0x55667788
    (Memory.read_long_u m (pb + 8));
  Alcotest.(check int) "one page" pb (Memory.allocated_bytes m)

let t_fill_then_write () =
  (* a write into a lazily filled page lands on top of the fill *)
  let m = Memory.create () in
  Memory.fill_bytes m ~addr:0 ~len:(2 * pb) 0x5A;
  Memory.write_byte m (pb + 1) 0x01;
  Alcotest.(check int) "written byte" 0x01 (Memory.read_byte m (pb + 1));
  Alcotest.(check int) "its longword" 0x5A5A015A (Memory.read_long_u m pb);
  Alcotest.(check int) "other page" 0x5A (Memory.read_byte m 7)

let t_fill_order () =
  (* overlapping pending fills land oldest first *)
  let m = Memory.create () in
  Memory.fill_bytes m ~addr:0 ~len:100 0xAA;
  Memory.fill_bytes m ~addr:50 ~len:100 0xBB;
  Memory.fill_bytes m ~addr:1 ~len:1 0xCC;
  Alcotest.(check int) "first" 0xAA (Memory.read_byte m 0);
  Alcotest.(check int) "single byte" 0xCC (Memory.read_byte m 1);
  Alcotest.(check int) "older below overlap" 0xAA (Memory.read_byte m 49);
  Alcotest.(check int) "newer over overlap" 0xBB (Memory.read_byte m 50);
  Alcotest.(check int) "newer tail" 0xBB (Memory.read_byte m 149);
  Alcotest.(check int) "past both" 0 (Memory.read_byte m 150)

let t_copy_pending () =
  (* a source page that only a pending fill covers copies as filled,
     replacing the destination's page *)
  let src = Memory.create () and dst = Memory.create () in
  Memory.fill_bytes src ~addr:(pb + 4) ~len:8 0x77;
  Memory.write_quad dst (pb + 16) 99;
  Memory.copy_pages ~src ~dst ~addr:0 ~len:(4 * pb);
  check_bytes "copied fill" dst ~addr:(pb + 4) ~len:8 0x77;
  Alcotest.(check int) "whole page copied" 0 (Memory.read_quad dst (pb + 16))

(* Longword fills: the flag pattern's bytes differ, so a fill that
   lands a byte off, or fills bytes with one value, shows. *)
let flag = Shasta.Layout.flag_pattern

let t_fill_longs_lazy () =
  let m = Memory.create () in
  Memory.fill_longs m ~addr:(pb - 8) ~len:(pb + 16) flag;
  Alcotest.(check int) "no page materialized" 0 (Memory.allocated_bytes m);
  Alcotest.(check bool) "second page pending" false
    (Memory.materialized m (pb + 4));
  Alcotest.(check int) "head" (-253) (Memory.read_long m (pb - 8));
  Alcotest.(check int) "page two" (-253) (Memory.read_long m pb);
  Alcotest.(check bool) "read materializes" true (Memory.materialized m pb);
  Alcotest.(check int) "tail" (-253) (Memory.read_long m (2 * pb + 4));
  Alcotest.(check int) "past the end" 0 (Memory.read_long m (2 * pb + 8));
  Alcotest.(check int) "low byte" 0x03 (Memory.read_byte m pb);
  Alcotest.(check int) "high byte" 0xFF (Memory.read_byte m (pb + 3));
  Alcotest.(check int) "three pages" (3 * pb) (Memory.allocated_bytes m)

let t_fill_longs_materialized () =
  (* a materialized page takes the fill at once; a write after it and a
     byte fill over it land on top *)
  let m = Memory.create () in
  Memory.write_quad m 0 (-1);
  Memory.fill_longs m ~addr:4 ~len:8 flag;
  Alcotest.(check int) "before the fill" 0xFFFFFFFF (Memory.read_long_u m 0);
  Alcotest.(check int) "filled" flag (Memory.read_long_u m 4);
  Memory.fill_bytes m ~addr:9 ~len:1 0x00;
  Alcotest.(check int) "byte over the pattern" 0xFFFF0003
    (Memory.read_long_u m 8);
  Alcotest.(check int) "one page" pb (Memory.allocated_bytes m)

let t_fill_longs_unaligned () =
  let m = Memory.create () in
  Alcotest.check_raises "unaligned address"
    (Invalid_argument "Memory: unaligned longword access at 0x2")
    (fun () -> Memory.fill_longs m ~addr:2 ~len:8 flag);
  Alcotest.check_raises "odd length"
    (Invalid_argument "Memory.fill_longs: length 6 is not a multiple of 4")
    (fun () -> Memory.fill_longs m ~addr:4 ~len:6 flag)

let t_copy_pending_longs () =
  (* a pending longword fill in the source copies as its pattern, behind
     an older byte fill and under a newer one *)
  let src = Memory.create () and dst = Memory.create () in
  Memory.fill_bytes src ~addr:0 ~len:(2 * pb) 0x11;
  Memory.fill_longs src ~addr:(pb - 4) ~len:12 flag;
  Memory.fill_bytes src ~addr:(pb + 6) ~len:1 0x22;
  Memory.copy_pages ~src ~dst ~addr:0 ~len:(2 * pb);
  Alcotest.(check int) "older fill" 0x11111111 (Memory.read_long_u dst (pb - 8));
  Alcotest.(check int) "pattern" flag (Memory.read_long_u dst (pb - 4));
  Alcotest.(check int) "across the page" flag (Memory.read_long_u dst pb);
  Alcotest.(check int) "newer byte" 0xFF22FF03 (Memory.read_long_u dst (pb + 4));
  Alcotest.(check int) "past the pattern" 0x11111111
    (Memory.read_long_u dst (pb + 8))

(* The model test: the same operations on a memory that fills with
   [fill_bytes] and [fill_longs] and one that fills with a [write_byte]
   or [write_long_u] loop.  Every
   prefix of the sequence is replayed on fresh memories and compared
   over the whole window, so no comparison read materializes a page the
   later operations would have found lazy. *)

type op =
  | Fill of int * int * int
  | Fill_long of int * int * int
  | Long of int * int
  | Byte of int * int
  | Read of int
  | Src_fill of int * int * int
  | Copy of int * int (* first page, pages *)

let window_pages = 3
let window = window_pages * pb

let op_gen =
  let open QCheck2.Gen in
  let addr = int_bound (window - 1) in
  let len =
    oneof [ int_bound 8; int_bound 64; int_range (pb - 8) (pb + 8);
            int_bound window ]
  in
  let fill k =
    map3 (fun a l v -> k a (min l (window - a)) v) addr len (int_bound 255)
  in
  let long_fill k =
    map3
      (fun a l v ->
        let a = a land lnot 3 in
        k a (min (l land lnot 3) (window - a)) v)
      addr len
      (oneof [ return Shasta.Layout.flag_pattern; int_bound 0xFFFFFFFF ])
  in
  oneof
    [ fill (fun a l v -> Fill (a, l, v));
      long_fill (fun a l v -> Fill_long (a, l, v));
      fill (fun a l v -> Src_fill (a, l, v));
      map2 (fun a v -> Long (a land lnot 3, v)) addr (int_bound 0x3FFFFFFF);
      map2 (fun a v -> Byte (a, v)) addr (int_bound 255);
      map (fun a -> Read a) addr;
      map2 (fun p n -> Copy (p, n)) (int_bound (window_pages - 1))
        (int_range 1 window_pages) ]

(* The [write_long_u] loop [fill_longs] must equal. *)
let long_loop m ~addr ~len v =
  for k = 0 to (len / 4) - 1 do
    Memory.write_long_u m (addr + (4 * k)) v
  done

let apply ~fill ~fill_long (m, src) = function
  | Fill (addr, len, v) -> fill m ~addr ~len v
  | Fill_long (addr, len, v) -> fill_long m ~addr ~len v
  | Src_fill (addr, len, v) -> fill src ~addr ~len v
  | Long (a, v) -> Memory.write_long_u m a v
  | Byte (a, v) -> Memory.write_byte m a v
  | Read a -> ignore (Memory.read_byte m a)
  | Copy (p, n) ->
    Memory.copy_pages ~src ~dst:m ~addr:(p * pb) ~len:(n * pb)

let replay ~fill ~fill_long ops =
  let mems = (Memory.create (), Memory.create ()) in
  List.iter (apply ~fill ~fill_long mems) ops;
  mems

let same_window a b =
  let rec go i =
    i = window || (Memory.read_byte a i = Memory.read_byte b i && go (i + 1))
  in
  go 0

let prop_fill_model ops =
  let n = List.length ops in
  List.for_all
    (fun k ->
      let prefix = List.filteri (fun i _ -> i < k) ops in
      let m, src =
        replay ~fill:Memory.fill_bytes ~fill_long:Memory.fill_longs prefix
      in
      let m', src' = replay ~fill:write_loop ~fill_long:long_loop prefix in
      same_window m m' && same_window src src')
    (List.init n (fun i -> i + 1))

(* The page cache against a plain reference: a table of longwords that
   reads 0 where nothing was written.  Pages span 200, more than the 64
   cache slots, so pages share slots, and a third of the accesses go to
   four pages, so the same pages recur.  Every read is checked as it happens; at the end every
   longword an operation named is compared too.  The source memory of
   [copy_pages] takes writes and fills only, so the pages that hold data
   there are exactly the ones the reference marks. *)
type pop =
  | P_long of int * int
  | P_quad of int * int
  | P_float of int * float
  | P_byte of int * int
  | P_fill of int * int * int
  | P_src_long of int * int
  | P_src_fill of int * int * int
  | P_copy of int * int (* first page, pages *)
  | P_read of int

let pop_gen =
  let open QCheck2.Gen in
  let page = oneof [ int_bound 199; map (fun k -> 5 + (64 * k)) (int_bound 3) ] in
  let addr = map2 (fun p off -> (p * pb) + off) page (int_bound (pb - 1)) in
  let fill k =
    map3 (fun a l v -> k a l v) addr
      (frequency
         [ (2, int_bound 16); (2, int_bound 256); (1, int_range (pb - 8) (pb + 8)) ])
      (int_bound 255)
  in
  let value = int_range (-(1 lsl 40)) (1 lsl 40) in
  oneof
    [ map2 (fun a v -> P_long (a land lnot 3, v land 0xFFFFFFFF)) addr value;
      map2 (fun a v -> P_quad (a land lnot 7, v)) addr value;
      map2 (fun a x -> P_float (a land lnot 7, x)) addr float;
      map2 (fun a v -> P_byte (a, v)) addr (int_bound 255);
      fill (fun a l v -> P_fill (a, l, v));
      map2 (fun a v -> P_src_long (a land lnot 3, v land 0xFFFFFFFF)) addr value;
      fill (fun a l v -> P_src_fill (a, l, v));
      map2 (fun p n -> P_copy (p, n)) page (int_range 1 2);
      map (fun a -> P_read a) addr ]

(* the reference: longword index -> pattern, and the pages holding data *)
type pref = { longs : (int, int) Hashtbl.t; held : (int, unit) Hashtbl.t }

let ref_long r a = Option.value ~default:0 (Hashtbl.find_opt r.longs (a / 4))
let ref_set r a v =
  Hashtbl.replace r.longs (a / 4) v;
  Hashtbl.replace r.held (a / pb) ()

let ref_byte r a =
  (ref_long r (a land lnot 3) lsr (8 * (a land 3))) land 0xFF

let ref_set_byte r a v =
  let base = a land lnot 3 and shift = 8 * (a land 3) in
  ref_set r base (ref_long r base land lnot (0xFF lsl shift) lor (v lsl shift))

let ref_fill r a len v = for b = a to a + len - 1 do ref_set_byte r b v done

let prop_page_cache ops =
  let m = Memory.create () and src = Memory.create () in
  let rm = { longs = Hashtbl.create 64; held = Hashtbl.create 64 }
  and rs = { longs = Hashtbl.create 64; held = Hashtbl.create 64 } in
  let named = ref [] in
  let name a = named := (a land lnot 3) :: !named in
  let read_ok a =
    let l = a land lnot 3 and q = a land lnot 7 in
    let lo = ref_long rm q and hi = ref_long rm (q + 4) in
    Memory.read_byte m a = ref_byte rm a
    && Memory.read_long_u m l = ref_long rm l
    && Memory.read_long m l = Memory.sext32 (ref_long rm l)
    && Memory.read_quad m q = (Memory.sext32 hi * 0x1_0000_0000) + lo
    && Memory.read_quad_bits m q
       = Int64.(logor (shift_left (of_int hi) 32) (of_int lo))
  in
  List.for_all
    (fun op ->
      match op with
      | P_long (a, v) ->
        name a;
        Memory.write_long_u m a v;
        ref_set rm a v;
        true
      | P_quad (a, v) ->
        name a;
        name (a + 4);
        Memory.write_quad m a v;
        ref_set rm a (v land 0xFFFFFFFF);
        ref_set rm (a + 4) ((v asr 32) land 0xFFFFFFFF);
        Memory.read_quad m a = v
      | P_float (a, x) ->
        name a;
        name (a + 4);
        write_float m a x;
        let bits = Int64.bits_of_float x in
        ref_set rm a Int64.(to_int (logand bits 0xFFFFFFFFL));
        ref_set rm (a + 4)
          Int64.(to_int (logand (shift_right_logical bits 32) 0xFFFFFFFFL));
        Int64.equal (Int64.bits_of_float (read_float m a)) bits
      | P_byte (a, v) ->
        name a;
        Memory.write_byte m a v;
        ref_set_byte rm a v;
        true
      | P_fill (a, len, v) ->
        name a;
        name (a + len);
        Memory.fill_bytes m ~addr:a ~len v;
        ref_fill rm a len v;
        true
      | P_src_long (a, v) ->
        Memory.write_long_u src a v;
        ref_set rs a v;
        true
      | P_src_fill (a, len, v) ->
        Memory.fill_bytes src ~addr:a ~len v;
        ref_fill rs a len v;
        true
      | P_copy (p, n) ->
        Memory.copy_pages ~src ~dst:m ~addr:(p * pb) ~len:(n * pb);
        for q = p to p + n - 1 do
          if Hashtbl.mem rs.held q then
            for k = 0 to (pb / 4) - 1 do
              let a = (q * pb) + (4 * k) in
              ref_set rm a (ref_long rs a)
            done
        done;
        name (p * pb);
        true
      | P_read a ->
        name a;
        read_ok a)
    ops
  && List.for_all read_ok !named

let print_pop = function
  | P_long (a, v) -> Printf.sprintf "long 0x%x=%d" a v
  | P_quad (a, v) -> Printf.sprintf "quad 0x%x=%d" a v
  | P_float (a, x) -> Printf.sprintf "float 0x%x=%h" a x
  | P_byte (a, v) -> Printf.sprintf "byte 0x%x=%d" a v
  | P_fill (a, l, v) -> Printf.sprintf "fill 0x%x+%d=%d" a l v
  | P_src_long (a, v) -> Printf.sprintf "src long 0x%x=%d" a v
  | P_src_fill (a, l, v) -> Printf.sprintf "src fill 0x%x+%d=%d" a l v
  | P_copy (p, n) -> Printf.sprintf "copy pages %d+%d" p n
  | P_read a -> Printf.sprintf "read 0x%x" a

(* Memory against one little-endian byte array.  Writes of every width
   and fills land in the model byte by byte; every read, at every width,
   must equal the model's bytes assembled low byte first, as on the
   Alpha.  Addresses span three pages and both halves of each, so a
   wrong page mask aliases bytes the model keeps apart.  [copy_pages]
   copies the source pages that hold data: those a write or fill
   touched (the source is never read). *)
type lop =
  | L_byte of int * int
  | L_long of int * int
  | L_quad of int * int
  | L_float of int * float
  | L_fill of int * int * int
  | L_fill_long of int * int * int
  | L_src_quad of int * int
  | L_src_fill of int * int * int
  | L_src_fill_long of int * int * int
  | L_copy of int * int (* first page, pages *)
  | L_read of int

let lop_gen =
  let open QCheck2.Gen in
  let addr = int_bound (window - 1) in
  let fill k =
    map3
      (fun a l v -> k a (min l (window - a)) v)
      addr
      (oneof [ int_bound 16; int_bound 256; int_range (pb - 8) (pb + 8) ])
      (int_bound 255)
  in
  let long =
    oneof
      [ return Shasta.Layout.flag_pattern; int_bound 0xFFFF;
        map (fun v -> v land 0xFFFFFFFF) int ]
  in
  let long_fill k =
    map3
      (fun a l v ->
        let a = a land lnot 3 in
        k a (min (l land lnot 3) (window - a)) v)
      addr
      (oneof [ int_bound 16; int_bound 256; int_range (pb - 8) (pb + 8) ])
      long
  in
  let quad =
    oneof [ return (-253); int_range (-1000) 1000; int; return min_int;
            return max_int ]
  in
  oneof
    [ map2 (fun a v -> L_byte (a, v)) addr (int_bound 255);
      map2 (fun a v -> L_long (a land lnot 3, v)) addr long;
      map2 (fun a v -> L_quad (a land lnot 7, v)) addr quad;
      map2 (fun a x -> L_float (a land lnot 7, x)) addr float;
      fill (fun a l v -> L_fill (a, l, v));
      long_fill (fun a l v -> L_fill_long (a, l, v));
      map2 (fun a v -> L_src_quad (a land lnot 7, v)) addr quad;
      fill (fun a l v -> L_src_fill (a, l, v));
      long_fill (fun a l v -> L_src_fill_long (a, l, v));
      map2
        (fun p n -> L_copy (p, min n (window_pages - p)))
        (int_bound (window_pages - 1)) (int_range 1 window_pages);
      map (fun a -> L_read a) addr ]

let print_lop = function
  | L_byte (a, v) -> Printf.sprintf "byte 0x%x=%d" a v
  | L_long (a, v) -> Printf.sprintf "long 0x%x=0x%x" a v
  | L_quad (a, v) -> Printf.sprintf "quad 0x%x=%d" a v
  | L_float (a, x) -> Printf.sprintf "float 0x%x=%h" a x
  | L_fill (a, l, v) -> Printf.sprintf "fill 0x%x+%d=%d" a l v
  | L_fill_long (a, l, v) -> Printf.sprintf "fill longs 0x%x+%d=0x%x" a l v
  | L_src_quad (a, v) -> Printf.sprintf "src quad 0x%x=%d" a v
  | L_src_fill (a, l, v) -> Printf.sprintf "src fill 0x%x+%d=%d" a l v
  | L_src_fill_long (a, l, v) ->
    Printf.sprintf "src fill longs 0x%x+%d=0x%x" a l v
  | L_copy (p, n) -> Printf.sprintf "copy pages %d+%d" p n
  | L_read a -> Printf.sprintf "read 0x%x" a

(* [n] model bytes from [a], low byte first, as an Int64 *)
let le_get model a n =
  let r = ref 0L in
  for i = n - 1 downto 0 do
    let b = Char.code (Bytes.get model (a + i)) in
    r := Int64.(logor (shift_left !r 8) (of_int b))
  done;
  !r

let le_set model a n (v : int64) =
  for i = 0 to n - 1 do
    Bytes.set model (a + i)
      (Char.chr Int64.(to_int (logand (shift_right_logical v (8 * i)) 0xFFL)))
  done

let prop_le_model ops =
  let m = Memory.create () and src = Memory.create () in
  let model = Bytes.make window '\000' and smodel = Bytes.make window '\000' in
  let held = Array.make window_pages false in
  let hold a len = for q = a / pb to (a + len - 1) / pb do held.(q) <- true done in
  let model_longs model a len v =
    for k = 0 to (len / 4) - 1 do
      le_set model (a + (4 * k)) 4 (Int64.of_int v)
    done
  in
  let read_ok a =
    let l = a land lnot 3 and q = a land lnot 7 in
    let long = Int64.to_int (le_get model l 4) and quad = le_get model q 8 in
    Memory.read_byte m a = Int64.to_int (le_get model a 1)
    && Memory.read_long_u m l = long
    && Memory.read_long m l = Memory.sext32 long
    && Memory.read_quad m q = Int64.to_int quad
    && Memory.read_quad_unaligned m a = Int64.to_int quad
    && Int64.equal (Memory.read_quad_bits m q) quad
    && Int64.equal (Int64.bits_of_float (read_float m q)) quad
    && Memory.blit_out m ~addr:q ~nlongs:2
       = [| Int64.to_int (le_get model q 4);
            Int64.to_int (le_get model (q + 4) 4) |]
  in
  List.for_all
    (fun op ->
      match op with
      | L_byte (a, v) ->
        Memory.write_byte m a v;
        le_set model a 1 (Int64.of_int v);
        true
      | L_long (a, v) ->
        Memory.write_long_u m a v;
        le_set model a 4 (Int64.of_int v);
        true
      | L_quad (a, v) ->
        Memory.write_quad m a v;
        le_set model a 8 (Int64.of_int v);
        true
      | L_float (a, x) ->
        write_float m a x;
        le_set model a 8 (Int64.bits_of_float x);
        true
      | L_fill (a, len, v) ->
        Memory.fill_bytes m ~addr:a ~len v;
        Bytes.fill model a len (Char.chr v);
        true
      | L_fill_long (a, len, v) ->
        Memory.fill_longs m ~addr:a ~len v;
        model_longs model a len v;
        true
      | L_src_quad (a, v) ->
        Memory.write_quad src a v;
        le_set smodel a 8 (Int64.of_int v);
        hold a 8;
        true
      | L_src_fill (a, len, v) ->
        Memory.fill_bytes src ~addr:a ~len v;
        Bytes.fill smodel a len (Char.chr v);
        if len > 0 then hold a len;
        true
      | L_src_fill_long (a, len, v) ->
        Memory.fill_longs src ~addr:a ~len v;
        model_longs smodel a len v;
        if len > 0 then hold a len;
        true
      | L_copy (p, n) ->
        Memory.copy_pages ~src ~dst:m ~addr:(p * pb) ~len:(n * pb);
        for q = p to p + n - 1 do
          if held.(q) then Bytes.blit smodel (q * pb) model (q * pb) pb
        done;
        true
      | L_read a -> read_ok a)
    ops
  &&
  let rec go a = a >= window || (read_ok a && go (a + 1)) in
  go 0

let t_blit () =
  let m = Memory.create () in
  Memory.blit_in m ~addr:0x8000 [| 1; 2; 3; 4 |];
  Alcotest.(check (array int)) "blit roundtrip" [| 1; 2; 3; 4 |]
    (Memory.blit_out m ~addr:0x8000 ~nlongs:4)

(* --- caches --- *)

let t_cache_basics () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 16);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  (* direct-mapped conflict: 0 and 1024 map to the same set *)
  Alcotest.(check bool) "conflict evicts" false (Cache.access c 1024);
  Alcotest.(check bool) "original evicted" false (Cache.access c 0)

let t_cache_invalidate () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 in
  ignore (Cache.access c 64);
  Cache.invalidate_range c ~addr:64 ~len:4;
  Alcotest.(check bool) "invalidated line misses" false (Cache.access c 64)

let t_hierarchy () =
  let h = Cache.alpha_hierarchy () in
  let first = Cache.daccess h 0x1000 in
  Alcotest.(check bool) "cold access costs" true (first > 0);
  Alcotest.(check int) "warm access free" 0 (Cache.daccess h 0x1000);
  (* L2 hit after L1 conflict eviction costs the L1 penalty only *)
  ignore (Cache.daccess h (0x1000 + (16 * 1024)));
  Alcotest.(check int) "l2 hit penalty" h.l1_miss_cycles
    (Cache.daccess h 0x1000)

(* The model test: the chunked, shift/mask cache against a copy of the
   flat tag array it replaced, which finds the set with [/] and [mod].
   Every step's hit or miss and the running miss count must agree. *)

type flat = { line : int; nsets : int; tags : int array; mutable fmisses : int }

let flat_create ~size_bytes ~line_bytes =
  let nsets = size_bytes / line_bytes in
  { line = line_bytes; nsets; tags = Array.make nsets (-1); fmisses = 0 }

let flat_access t addr =
  let block = addr / t.line in
  let set = block mod t.nsets in
  if t.tags.(set) = block then true
  else begin
    t.fmisses <- t.fmisses + 1;
    t.tags.(set) <- block;
    false
  end

let flat_invalidate t ~addr ~len =
  let first = addr / t.line and last = (addr + len - 1) / t.line in
  for block = first to last do
    let set = block mod t.nsets in
    if t.tags.(set) = block then t.tags.(set) <- -1
  done

type cop = Access of int | Inval of int * int

(* Addresses within a few lines of a chunk boundary (512 sets), with
   one of four tags per set so that accesses conflict. *)
let cop_gen ~size_bytes ~line_bytes =
  let open QCheck2.Gen in
  let span = 512 * line_bytes in
  let nchunks = max 1 (size_bytes / span) in
  let addr =
    map3
      (fun tag chunk d -> max 0 ((tag * size_bytes) + (chunk * span) + d))
      (int_bound 3)
      (oneof [ int_bound 1; int_bound nchunks ])
      (int_range (-3 * line_bytes) (3 * line_bytes))
  in
  let len = oneof [ int_range 1 8; int_range 1 (4 * line_bytes); int_range 1 (2 * span) ] in
  frequency
    [ (3, map (fun a -> Access a) addr); (1, map2 (fun a l -> Inval (a, l)) addr len) ]

let print_cop = function
  | Access a -> Printf.sprintf "access 0x%x" a
  | Inval (a, l) -> Printf.sprintf "invalidate 0x%x+%d" a l

let prop_cache_model ~size_bytes ~line_bytes ~make ops =
  let c = make () and r = flat_create ~size_bytes ~line_bytes in
  List.for_all
    (fun op ->
      (match op with
       | Access a -> Cache.access c a = flat_access r a
       | Inval (addr, len) ->
         Cache.invalidate_range c ~addr ~len;
         flat_invalidate r ~addr ~len;
         true)
      && Cache.misses c = r.fmisses)
    ops

let cache_model_test ~name ~size_bytes ~line_bytes ~make =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:200
       ~print:QCheck2.Print.(list print_cop)
       QCheck2.Gen.(list_size (int_range 1 200) (cop_gen ~size_bytes ~line_bytes))
       (prop_cache_model ~size_bytes ~line_bytes ~make))

let t_cache_lazy () =
  let h = Cache.alpha_hierarchy () in
  List.iter
    (fun (name, c) -> Alcotest.(check int) (name ^ " fresh") 0 (Cache.allocated_bytes c))
    [ ("l1i", h.l1i); ("l1d", h.l1d); ("l2", h.l2) ];
  let c = Cache.create ~size_bytes:(64 * 1024) ~line_bytes:32 in
  ignore (Cache.access c 0x1000);
  Alcotest.(check int) "one access, one chunk" 4096 (Cache.allocated_bytes c);
  Cache.invalidate_range c ~addr:0x8000 ~len:0x8000;
  Alcotest.(check int) "invalidate allocates nothing" 4096 (Cache.allocated_bytes c);
  Alcotest.(check bool) "other chunk still misses" false (Cache.access c 0x8000);
  Alcotest.(check int) "second chunk" 8192 (Cache.allocated_bytes c)

let t_cache_pow2 () =
  Alcotest.check_raises "3 KB cache"
    (Invalid_argument "Cache.create: sizes must be powers of two, line <= size")
    (fun () -> ignore (Cache.create ~size_bytes:3072 ~line_bytes:32))

let () =
  Alcotest.run "memory"
    [ ( "memory",
        [ Alcotest.test_case "longwords" `Quick t_long_roundtrip;
          Alcotest.test_case "quad aliasing" `Quick t_quad_longword_aliasing;
          Alcotest.test_case "negative quads" `Quick t_negative_quad;
          Alcotest.test_case "bytes" `Quick t_bytes;
          Alcotest.test_case "floats" `Quick t_floats;
          Alcotest.test_case "flag longword" `Quick t_flag_longword;
          Alcotest.test_case "alignment" `Quick t_unaligned_rejected;
          Alcotest.test_case "ldq_u" `Quick t_ldq_u_alignment;
          Alcotest.test_case "copy pages" `Quick t_copy_pages;
          Alcotest.test_case "blit" `Quick t_blit;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"page cache equals a longword table"
               ~count:100 ~print:QCheck2.Print.(list print_pop)
               QCheck2.Gen.(list_size (int_range 1 200) pop_gen)
               prop_page_cache);
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"equals a little-endian byte array"
               ~count:100 ~print:QCheck2.Print.(list print_lop)
               QCheck2.Gen.(list_size (int_range 1 100) lop_gen)
               prop_le_model) ] );
      ( "fill",
        [ Alcotest.test_case "lazy" `Quick t_fill_lazy;
          Alcotest.test_case "materialized page" `Quick t_fill_materialized;
          Alcotest.test_case "write after fill" `Quick t_fill_then_write;
          Alcotest.test_case "oldest first" `Quick t_fill_order;
          Alcotest.test_case "copy pending" `Quick t_copy_pending;
          Alcotest.test_case "longwords lazy" `Quick t_fill_longs_lazy;
          Alcotest.test_case "longwords on a materialized page" `Quick
            t_fill_longs_materialized;
          Alcotest.test_case "longwords unaligned" `Quick
            t_fill_longs_unaligned;
          Alcotest.test_case "copy pending longwords" `Quick
            t_copy_pending_longs;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"equals a write_byte loop" ~count:100
               QCheck2.Gen.(list_size (int_range 1 12) op_gen)
               prop_fill_model) ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick t_cache_basics;
          Alcotest.test_case "invalidate" `Quick t_cache_invalidate;
          Alcotest.test_case "hierarchy" `Quick t_hierarchy;
          Alcotest.test_case "tags allocated on first miss" `Quick t_cache_lazy;
          Alcotest.test_case "power-of-two geometry" `Quick t_cache_pow2;
          cache_model_test ~name:"equals a flat tag array (64 KB, 4 chunks)"
            ~size_bytes:(64 * 1024) ~line_bytes:32
            ~make:(fun () -> Cache.create ~size_bytes:(64 * 1024) ~line_bytes:32);
          cache_model_test ~name:"equals a flat tag array (alpha L2)"
            ~size_bytes:(4 * 1024 * 1024) ~line_bytes:64
            ~make:(fun () -> (Cache.alpha_hierarchy ()).l2) ] )
    ]
