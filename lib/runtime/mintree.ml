(* Tournament tree over [n] integer keys: the argmin in O(1), a re-key
   in O(log n), ties to the lowest index.  Leaves sit at
   [size + i] for the power of two [size] >= n; the padding leaves
   hold [max_int], so they never beat a real index (a tie goes left).
   Internal node [j] holds the winner of its children [2j] and
   [2j + 1]; node 1 is the overall winner. *)

type t = { size : int; key : int array; win : int array }

let create n =
  if n < 1 then invalid_arg "Mintree.create: needs at least one key";
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  let size = !size in
  let win = Array.make (2 * size) 0 in
  for i = 0 to size - 1 do
    win.(size + i) <- i
  done;
  (* every key is [max_int], so each internal node's winner is the
     leftmost leaf below it *)
  for j = size - 1 downto 1 do
    win.(j) <- win.(2 * j)
  done;
  { size; key = Array.make size max_int; win }

let update t i k =
  t.key.(i) <- k;
  let j = ref ((t.size + i) lsr 1) in
  while !j >= 1 do
    let l = t.win.(2 * !j) and r = t.win.((2 * !j) + 1) in
    t.win.(!j) <- (if t.key.(r) < t.key.(l) then r else l);
    j := !j lsr 1
  done

let winner t = t.win.(1)
let key t i = t.key.(i)
