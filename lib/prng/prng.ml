(* Splitmix64 (Steele, Lea & Flood 2014): a tiny, fast, well-mixed
   generator whose whole state is one 64-bit word advanced by the
   golden-ratio increment.  Chosen over [Random] because its output is
   fixed by the algorithm alone — bit-identical everywhere, forever —
   which is what the pinned trace hashes and replay demand. *)

type t = { mutable s : int64 }

let gamma = 0x9E3779B97F4A7C15L

let finalize z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.s <- Int64.add t.s gamma;
  finalize t.s

let create seed = { s = finalize (Int64.of_int seed) }

let of_list seeds =
  let t = { s = 0L } in
  List.iter
    (fun seed -> t.s <- finalize (Int64.add t.s (Int64.of_int seed)))
    seeds;
  t

let copy t = { s = t.s }

(* OCaml's native int is 63 bits with a sign, so the largest uniform
   non-negative draw keeps 62 value bits: [Int64.to_int] of a 63-bit
   unsigned quantity would wrap negative half the time. *)
let bits63 t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  bits63 t mod bound

let float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next64 t) 11))
  *. (1.0 /. 9007199254740992.0)

let mix a b =
  Int64.to_int
    (Int64.shift_right_logical
       (finalize (Int64.add (finalize (Int64.of_int a)) (Int64.of_int b)))
       1)
