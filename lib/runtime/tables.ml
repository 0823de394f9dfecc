(* State-table, exclusive-table and flag maintenance.

   These write the very memory the inline checks read: the byte-per-line
   state table at addr >> line_shift, the bit-per-line exclusive table
   (Section 3.3), and the -253 flag longwords of invalid lines
   (Section 3.2).  All handler-side writes invalidate the corresponding
   hardware cache lines, since on a real machine the protocol code's
   stores would displace/update them behind the checks. *)

open Shasta_machine
open Shasta

let line_bytes ~ls = 1 lsl ls

(* --- state table ---------------------------------------------------- *)

let set_state (node : Node.t) ~ls addr st =
  let saddr = addr lsr ls in
  Memory.write_byte node.mem saddr st;
  Cache.dinvalidate node.caches ~addr:saddr ~len:1

let get_state (node : Node.t) ~ls addr =
  Memory.read_byte node.mem (addr lsr ls)

let set_state_range (node : Node.t) ~ls ~addr ~len st =
  let lb = line_bytes ~ls in
  let first = addr land lnot (lb - 1) in
  let last = addr + len - 1 in
  let n = ((last - first) / lb) + 1 in
  for k = 0 to n - 1 do
    Memory.write_byte node.mem ((first + (k * lb)) lsr ls) st
  done;
  Cache.dinvalidate node.caches ~addr:(first lsr ls) ~len:(max n 1)

(* --- exclusive table -------------------------------------------------- *)

let set_excl (node : Node.t) ~ls addr v =
  let byte_addr = addr lsr (ls + 3) in
  let bit = (addr lsr ls) land 7 in
  let b = Memory.read_byte node.mem byte_addr in
  let b' = if v then b lor (1 lsl bit) else b land lnot (1 lsl bit) in
  if b' <> b then begin
    Memory.write_byte node.mem byte_addr b';
    Cache.dinvalidate node.caches ~addr:byte_addr ~len:1
  end

let set_excl_range (node : Node.t) ~ls ~addr ~len v =
  let lb = line_bytes ~ls in
  let first = addr land lnot (lb - 1) in
  let last = addr + len - 1 in
  let n = ((last - first) / lb) + 1 in
  for k = 0 to n - 1 do
    set_excl node ~ls (first + (k * lb)) v
  done

(* Mark a whole private region exclusive in the table so that store
   checks without the range check (the paper's last Table 2 column)
   succeed on private data. *)
let mark_private_exclusive (node : Node.t) ~ls ~addr ~len =
  let lb = line_bytes ~ls in
  (* whole bytes of the exclusive table (8 lines each); the byte address
     for line L is simply L / 8 *)
  let first = addr / lb / 8 and last = (addr + len - 1) / lb / 8 in
  Memory.fill_bytes node.mem ~addr:first ~len:(last - first + 1) 0xFF

(* --- flags ------------------------------------------------------------ *)

(* Store the flag value into every longword of [addr, addr+len) except
   those in [keep] (pending written longwords must survive, Section
   4.1). *)
let flag_range ?(keep = []) (node : Node.t) ~addr ~len =
  let n = len / 4 in
  for k = 0 to n - 1 do
    let a = addr + (4 * k) in
    if not (List.mem a keep) then
      Memory.write_long_u node.mem a Layout.flag_pattern
  done;
  Cache.dinvalidate node.caches ~addr ~len

(* --- block-level transitions ----------------------------------------- *)

let make_exclusive (node : Node.t) ~ls ~addr ~len =
  set_state_range node ~ls ~addr ~len Layout.st_exclusive;
  set_excl_range node ~ls ~addr ~len true

let make_shared (node : Node.t) ~ls ~addr ~len =
  set_state_range node ~ls ~addr ~len Layout.st_shared;
  set_excl_range node ~ls ~addr ~len false

let make_invalid (node : Node.t) ~ls ~addr ~len =
  set_state_range node ~ls ~addr ~len Layout.st_invalid;
  set_excl_range node ~ls ~addr ~len false;
  flag_range node ~addr ~len

let make_pending (node : Node.t) ~ls ~addr ~len ~shared =
  set_state_range node ~ls ~addr ~len
    (if shared then Layout.st_pending_shared else Layout.st_pending_invalid);
  set_excl_range node ~ls ~addr ~len false

(* Copy a block's longwords out of a node's memory (for data replies). *)
let read_block (node : Node.t) ~addr ~len =
  Memory.blit_out node.mem ~addr ~nlongs:(len / 4)

(* Write each (address, value) of [written] that lies in the block
   [addr, addr+len). *)
let rec overlay (node : Node.t) ~addr ~len = function
  | [] -> ()
  | (a, mine) :: rest ->
    if a >= addr && a < addr + len && (a - addr) land 3 = 0 then
      Memory.write_long_u node.mem a mine;
    overlay node ~addr ~len rest

(* Merge reply data into memory, then overlay the longwords the node
   wrote while the block was pending (non-stalling stores, Section 4.1:
   "merge the reply data with the newly written data").  [written] holds
   each address once, so the order of the overlay does not matter. *)
let merge_block_data (node : Node.t) ~addr ~(written : (int * int) list)
    (data : int array) =
  let len = 4 * Array.length data in
  for k = 0 to Array.length data - 1 do
    Memory.write_long_u node.mem (addr + (4 * k)) data.(k)
  done;
  overlay node ~addr ~len written;
  Cache.dinvalidate node.caches ~addr ~len
