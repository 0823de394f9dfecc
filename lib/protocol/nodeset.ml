(* Sets of node ids under a configurable directory organization.

   The pure protocol core historically represented every node set — a
   directory entry's sharer vector, the barrier-arrival mask, the
   crashed/halted masks — as one OCaml [int] bitmask, which caps the
   simulator at [Sys.int_size - 2] processors and charges every
   directory entry the full-map storage cost the paper's critics point
   at.  This module abstracts the representation behind two classic
   directory organizations:

   - [Full]: the exact full-map bit vector (the seed behaviour, and the
     default — byte-identical traces).
   - [Limited k]: k exact pointers; adding a (k+1)-th distinct member
     overflows to broadcast, i.e. the set becomes the SUPERSET of all
     nodes.  Correct because the protocol only ever uses sharer sets to
     send invalidations, and a spurious invalidation is acknowledged
     and absorbed at every receiver state.

   The inexact broadcast form still supports exact [remove] (needed by
   crash recovery, which must strike a dead node from every set): it
   carries an explicit exclusion list.

   The masks that must stay exact whatever the mode (barrier arrivals,
   crashed, halted) are one int mask up to [max_bits] nodes and a word
   mask above: an immutable array of 32-bit words whose length is fixed
   by nprocs, so membership stays O(1) at any P.

   All list components are kept sorted and word masks are never
   trimmed, so structurally equal values denote equal sets reached by
   any operation order — required by the model checker's
   canonical-string state dedup. *)

(* Bits usable in one int mask: one bit reserved for the sign, one kept
   free so [(1 lsl n) - 1] style arithmetic in callers can never hit
   the sign bit. *)
let max_bits = Sys.int_size - 2

type mode = Full | Limited of int

type t =
  | Bits of int (* exact bitmask *)
  | Ptrs of { k : int; n : int; ps : int list }
    (* exact sorted pointer list, |ps| <= k *)
  | Bcast of { n : int; excl : int list }
    (* limited-pointer overflow: {0..n-1} minus the sorted exclusions *)
  | Words of int array
    (* exact mask beyond [max_bits] nodes: node x is bit
       [x land word_mask] of word [x lsr word_shift]; never mutated *)

(* --- bit iteration (popcount-style, no O(nprocs) scan) -------------- *)

(* Number of trailing zeros of a one-hot word, by binary search. *)
let ntz m =
  let k = ref 0 and m = ref m in
  if !m land 0xFFFFFFFF = 0 then begin k := !k + 32; m := !m lsr 32 end;
  if !m land 0xFFFF = 0 then begin k := !k + 16; m := !m lsr 16 end;
  if !m land 0xFF = 0 then begin k := !k + 8; m := !m lsr 8 end;
  if !m land 0xF = 0 then begin k := !k + 4; m := !m lsr 4 end;
  if !m land 0x3 = 0 then begin k := !k + 2; m := !m lsr 2 end;
  if !m land 0x1 = 0 then incr k;
  !k

(* Visit the set bits of [m] in ascending order, peeling the lowest set
   bit each round — cost proportional to the population count, not to
   nprocs. *)
let iter_bits f m =
  let m = ref m in
  while !m <> 0 do
    let low = !m land (- !m) in
    f (ntz low);
    m := !m lxor low
  done

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

(* --- word masks ------------------------------------------------------ *)

(* A node's word and bit are a shift and a mask away.  The word-mask
   arms below all call these out-of-line helpers, so the [Bits] arms
   the small-P paths run stay as compact as before. *)
let word_shift = 5
let word_mask = (1 lsl word_shift) - 1

let[@inline never] words_mem a x =
  let i = x lsr word_shift in
  i < Array.length a && a.(i) land (1 lsl (x land word_mask)) <> 0

let[@inline never] words_cardinal a =
  let c = ref 0 in
  for i = 0 to Array.length a - 1 do
    c := !c + popcount a.(i)
  done;
  !c

(* No member in the words from [i] on. *)
let rec words_zero_from a i =
  i >= Array.length a || (a.(i) = 0 && words_zero_from a (i + 1))

let[@inline never] words_iter f a =
  for i = 0 to Array.length a - 1 do
    let m = ref a.(i) and base = i lsl word_shift in
    while !m <> 0 do
      let low = !m land (- !m) in
      f (base + ntz low);
      m := !m lxor low
    done
  done

(* [add] and [remove] copy the words, and return the set itself when
   they would change nothing. *)
let[@inline never] words_add t a x =
  if words_mem a x then t
  else begin
    let a = Array.copy a and i = x lsr word_shift in
    a.(i) <- a.(i) lor (1 lsl (x land word_mask));
    Words a
  end

let[@inline never] words_remove t a x =
  if not (words_mem a x) then t
  else begin
    let a = Array.copy a and i = x lsr word_shift in
    a.(i) <- a.(i) land lnot (1 lsl (x land word_mask));
    Words a
  end

(* Some member at or above [n] ([n >= 0]). *)
let[@inline never] words_beyond a n =
  let i = n lsr word_shift in
  i < Array.length a
  && (a.(i) lsr (n land word_mask) <> 0 || not (words_zero_from a (i + 1)))

(* The least member in the words from [i] on, or -1. *)
let rec words_first_from a i =
  if i >= Array.length a then -1
  else
    let m = a.(i) in
    if m = 0 then words_first_from a (i + 1)
    else (i lsl word_shift) + ntz (m land -m)

(* The least member at or above [x] ([x >= 0]), or -1. *)
let[@inline never] words_next a x =
  let i = x lsr word_shift in
  if i >= Array.length a then -1
  else
    let m = a.(i) land (-1 lsl (x land word_mask)) in
    if m <> 0 then (i lsl word_shift) + ntz (m land -m)
    else words_first_from a (i + 1)

(* Word [i] of a mask, 0 past its end. *)
let word_at a i = if i < Array.length a then a.(i) else 0

let rec words_subset_from x y i =
  i >= Array.length x
  || (x.(i) land lnot (word_at y i) = 0 && words_subset_from x y (i + 1))

let rec words_disjoint_from x y i =
  i >= Array.length x
  || (x.(i) land word_at y i = 0 && words_disjoint_from x y (i + 1))

(* Low word first, in hex, comma-separated, then the closing
   parenthesis.  The word count is fixed by nprocs, so equal sets over
   the same nodes render equal. *)
let[@inline never] words_into b a =
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_char b ',';
    Keybuf.add_hex b a.(i)
  done;
  Buffer.add_char b ')'

(* --- sorted-list helpers -------------------------------------------- *)

let rec sorted_insert x = function
  | [] -> [ x ]
  | y :: _ as l when x < y -> x :: l
  | y :: _ as l when x = y -> l
  | y :: rest -> y :: sorted_insert x rest

(* --- construction ---------------------------------------------------- *)

let empty mode ~nprocs =
  match mode with
  | Full -> Bits 0
  | Limited k -> Ptrs { k; n = nprocs; ps = [] }

(* An exact set regardless of directory mode — for the masks that must
   never over-approximate (barrier arrivals, crashed, halted): one int
   mask up to [max_bits] nodes, a word mask above. *)
let exact_empty ~nprocs =
  if nprocs <= max_bits then Bits 0
  else Words (Array.make (((nprocs - 1) lsr word_shift) + 1) 0)

(* --- queries --------------------------------------------------------- *)

let mem t x =
  match t with
  | Bits m -> m land (1 lsl x) <> 0
  | Ptrs { ps; _ } -> List.mem x ps
  | Bcast { n; excl } -> x >= 0 && x < n && not (List.mem x excl)
  | Words a -> words_mem a x

let cardinal t =
  match t with
  | Bits m -> popcount m
  | Ptrs { ps; _ } -> List.length ps
  | Bcast { n; excl } -> n - List.length excl
  | Words a -> words_cardinal a

let is_empty t =
  match t with
  | Bits m -> m = 0
  | Ptrs { ps; _ } -> ps = []
  | Bcast _ -> cardinal t = 0
  | Words a -> words_zero_from a 0

(* Members in ascending order. *)
let iter f t =
  match t with
  | Bits m -> iter_bits f m
  | Ptrs { ps; _ } -> List.iter f ps
  | Bcast { n; excl } ->
    for x = 0 to n - 1 do
      if not (List.mem x excl) then f x
    done
  | Words a -> words_iter f a

let fold f t acc =
  let acc = ref acc in
  iter (fun x -> acc := f x !acc) t;
  !acc

let to_list t = List.rev (fold (fun x l -> x :: l) t [])

(* --- updates --------------------------------------------------------- *)

let add t x =
  match t with
  | Bits m -> Bits (m lor (1 lsl x))
  | Ptrs { k; n; ps } ->
    if List.mem x ps then t
    else if List.length ps < k then Ptrs { k; n; ps = sorted_insert x ps }
    else Bcast { n; excl = [] } (* i-pointer overflow => broadcast *)
  | Bcast { n; excl } ->
    if List.mem x excl then Bcast { n; excl = List.filter (( <> ) x) excl }
    else t
  | Words a -> words_add t a x

let remove t x =
  match t with
  | Bits m -> Bits (m land lnot (1 lsl x))
  | Ptrs { k; n; ps } -> Ptrs { k; n; ps = List.filter (( <> ) x) ps }
  | Bcast { n; excl } ->
    if x >= 0 && x < n && not (List.mem x excl) then
      Bcast { n; excl = sorted_insert x excl }
    else t
  | Words a -> words_remove t a x

let singleton mode ~nprocs x = add (empty mode ~nprocs) x

(* [true] when some member of [t] lies outside [0, n).  Builds no
   list: the invariant checker probes every sharer set per state. *)
let rec list_beyond n = function
  | [] -> false
  | x :: l -> x < 0 || x >= n || list_beyond n l

let rec range_beyond x m excl =
  x < m && ((not (List.mem x excl)) || range_beyond (x + 1) m excl)

let beyond t n =
  match t with
  | Bits m -> n < Sys.int_size && m lsr n <> 0
  | Ptrs { ps; _ } -> list_beyond n ps
  | Bcast { n = m; excl } -> range_beyond (max n 0) m excl
  | Words a -> words_beyond a (max n 0)

(* The least member at or above [x], or -1 when there is none: a walk
   over the members in ascending order that builds no list and no
   closure (the home's invalidation fan-out). *)
let rec list_next x = function
  | [] -> -1
  | y :: l -> if y >= x then y else list_next x l

let rec range_next x n excl =
  if x >= n then -1
  else if List.mem x excl then range_next (x + 1) n excl
  else x

let next t x =
  let x = max x 0 in
  match t with
  | Bits m ->
    let m = if x >= Sys.int_size then 0 else m land (-1 lsl x) in
    if m = 0 then -1 else ntz (m land -m)
  | Ptrs { ps; _ } -> list_next x ps
  | Bcast { n; excl } -> range_next x n excl
  | Words a -> words_next a x

(* --- relations ------------------------------------------------------- *)

(* Some member [x] of the walked set has [mem b x = v], found in place
   with no list and no closure: the invariant checker relates the crash
   and barrier masks on every state.  [bits_find] walks the members
   [base + i] of one word's set bits [i]. *)
let rec bits_find b v base m =
  m <> 0
  &&
  let low = m land -m in
  mem b (base + ntz low) = v || bits_find b v base (m lxor low)

let rec words_find b v a i =
  i < Array.length a
  && (bits_find b v (i lsl word_shift) a.(i) || words_find b v a (i + 1))

let rec list_find b v = function
  | [] -> false
  | x :: l -> mem b x = v || list_find b v l

let rec range_find b v x n excl =
  x < n
  && (((not (List.mem x excl)) && mem b x = v) || range_find b v (x + 1) n excl)

let find a b v =
  match a with
  | Bits m -> bits_find b v 0 m
  | Ptrs { ps; _ } -> list_find b v ps
  | Bcast { n; excl } -> range_find b v 0 n excl
  | Words a -> words_find b v a 0

let subset a b =
  match (a, b) with
  | Bits x, Bits y -> x land lnot y = 0
  | Words x, Words y -> words_subset_from x y 0
  | _ -> not (find a b false)

let disjoint a b =
  match (a, b) with
  | Bits x, Bits y -> x land y = 0
  | Words x, Words y -> words_disjoint_from x y 0
  | _ -> not (find a b true)

(* --- representation probes ------------------------------------------ *)

(* [true] when membership is exact (no over-approximation possible). *)
let is_exact = function
  | Bits _ | Ptrs _ | Words _ -> true
  | Bcast _ -> false

(* Collapse to an int bitmask.  A member at or past [Sys.int_size] has
   no bit ([1 lsl 63] is 0, and wider shifts wrap onto low bits), so it
   is refused rather than dropped. *)
let mask_bit x m =
  if x >= Sys.int_size then
    invalid_arg
      (Printf.sprintf "Nodeset.to_mask: node %d has no bit in a %d-bit mask"
         x Sys.int_size);
  m lor (1 lsl x)

let to_mask t = match t with Bits m -> m | _ -> fold mask_bit t 0

(* Canonical rendering: equal strings <=> structurally equal values.
   The leading character disambiguates representations so the model
   checker's visited set never conflates them. *)
(* Comma-separated, then the closing parenthesis. *)
let rec ints_into b = function
  | [] -> Buffer.add_char b ')'
  | [ x ] -> Keybuf.add_int b x; Buffer.add_char b ')'
  | x :: l -> Keybuf.add_int b x; Buffer.add_char b ','; ints_into b l

let to_buffer b t =
  match t with
  | Bits m -> Keybuf.add_hex b m
  | Ptrs { ps; _ } ->
    Buffer.add_string b "P(";
    ints_into b ps
  | Bcast { excl; _ } ->
    Buffer.add_string b "*(-";
    ints_into b excl
  | Words a ->
    Buffer.add_string b "W(";
    words_into b a

let to_string t =
  let b = Buffer.create 16 in
  to_buffer b t;
  Buffer.contents b

(* --- mode plumbing --------------------------------------------------- *)

let mode_name = function
  | Full -> "full"
  | Limited k -> Printf.sprintf "limited:%d" k

let mode_of_string s =
  let parse_param name p default =
    match p with
    | None -> Ok default
    | Some p -> (
      match int_of_string_opt p with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (Printf.sprintf "%s parameter must be a positive int" name))
  in
  let base, param =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  match base with
  | "full" -> (
    match param with
    | None -> Ok Full
    | Some _ -> Error "full takes no parameter")
  | "limited" ->
    Result.map (fun k -> Limited k) (parse_param "limited" param 4)
  | _ ->
    Error
      (Printf.sprintf
         "unknown directory mode %S (expected full or limited[:K])" s)

(* Reject configurations whose node sets cannot represent all of
   [nprocs] — the guard for the historical silent int-mask wraparound. *)
let validate mode ~nprocs =
  if nprocs < 1 then Error (Printf.sprintf "nprocs must be >= 1, got %d" nprocs)
  else
    match mode with
    | Full when nprocs > max_bits ->
      Error
        (Printf.sprintf
           "nprocs %d exceeds the full-map directory capacity of %d \
            (an int bitmask); use --dir-mode limited[:K]"
           nprocs max_bits)
    | Limited k when k < 1 ->
      Error (Printf.sprintf "limited-pointer count must be >= 1, got %d" k)
    | _ -> Ok ()
