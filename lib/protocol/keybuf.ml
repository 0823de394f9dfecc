(* Printf-free integer writers for canonical strings.  See keybuf.mli. *)

(* Digits of a non-positive [n], most significant first; working on the
   negative side covers [min_int]. *)
let rec add_neg b n =
  if n <= -10 then add_neg b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg b n
  end
  else add_neg b (-n)

let digits = "0123456789abcdef"

let rec add_hex b n =
  if n lsr 4 <> 0 then add_hex b (n lsr 4);
  Buffer.add_char b (String.unsafe_get digits (n land 15))
