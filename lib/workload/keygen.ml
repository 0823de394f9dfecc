(* Exact Zipfian over ranks via the cumulative harmonic sums
   H_theta(k); the table form trades a little tail resolution for a
   constant-time integer sampler the MiniC driver can afford. *)

type zipf = {
  n : int;
  cdf : float array; (* cdf.(k) = mass of ranks 0..k-1; cdf.(n) = 1 *)
}

let zipf ~n ~theta =
  if n <= 0 then invalid_arg "Keygen.zipf: n must be positive";
  if not (theta >= 0.0 && theta < 1.0) then
    invalid_arg "Keygen.zipf: theta must be in [0, 1)";
  let cdf = Array.make (n + 1) 0.0 in
  let h = ref 0.0 in
  for k = 1 to n do
    h := !h +. (1.0 /. (float_of_int k ** theta));
    cdf.(k) <- !h
  done;
  let hn = !h in
  for k = 1 to n - 1 do
    cdf.(k) <- cdf.(k) /. hn
  done;
  cdf.(n) <- 1.0;
  { n; cdf }

let draw z u =
  if u < 0.0 || u >= 1.0 then invalid_arg "Keygen.draw: u must be in [0, 1)";
  (* largest k with cdf.(k) <= u; rank k's mass is (cdf.(k), cdf.(k+1)] *)
  let lo = ref 0 and hi = ref z.n in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) <= u then lo := mid else hi := mid
  done;
  !lo

let pmf z k =
  if k < 0 || k >= z.n then invalid_arg "Keygen.pmf: rank out of range";
  z.cdf.(k + 1) -. z.cdf.(k)

let quantile_table ~n ~theta ~quanta =
  if quanta < 2 then invalid_arg "Keygen.quantile_table: quanta < 2";
  let z = zipf ~n ~theta in
  Array.init (quanta + 1) (fun q ->
    if q = 0 then 0
    else if q = quanta then n
    else begin
      let target = float_of_int q /. float_of_int quanta in
      (* smallest k with cdf.(k) >= target *)
      let lo = ref 0 and hi = ref n in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if z.cdf.(mid) >= target then hi := mid else lo := mid
      done;
      !hi
    end)
