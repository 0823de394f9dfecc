(* Persistent maps over int keys: the protocol core's and the model
   checker's per-block, per-node and per-channel tables.

   This is the standard library's [Map.Make (Int)] with the key
   comparison written inline.  Without flambda a functor's body calls
   [Ord.compare] through a closure at every node it visits; here each
   visit is two integer compares.  The algorithms are [Map]'s, step
   for step: the same AVL height rule in [create]/[bal]/[join]/[concat],
   the same in-order traversals, and the same physical returns (an
   [add] of the value already bound, a [remove] of an absent key and a
   [filter] that keeps everything return their argument).  So a sequence
   of operations builds the same tree shapes, allocates the same words
   and iterates in the same order as [Map.Make (Int)] did. *)

type key = int

type 'a t = Empty | Node of { l : 'a t; v : key; d : 'a; r : 'a t; h : int }

let height = function Empty -> 0 | Node { h; _ } -> h

let create l x d r =
  let hl = height l and hr = height r in
  Node { l; v = x; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let singleton x d = Node { l = Empty; v = x; d; r = Empty; h = 1 }

(* Rebuild a node whose subtrees' heights differ by at most 3, with at
   most one single or double rotation. *)
let bal l x d r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Empty -> invalid_arg "Imap.bal"
    | Node { l = ll; v = lv; d = ld; r = lr; _ } -> (
      if height ll >= height lr then create ll lv ld (create lr x d r)
      else
        match lr with
        | Empty -> invalid_arg "Imap.bal"
        | Node { l = lrl; v = lrv; d = lrd; r = lrr; _ } ->
          create (create ll lv ld lrl) lrv lrd (create lrr x d r))
  else if hr > hl + 2 then
    match r with
    | Empty -> invalid_arg "Imap.bal"
    | Node { l = rl; v = rv; d = rd; r = rr; _ } -> (
      if height rr >= height rl then create (create l x d rl) rv rd rr
      else
        match rl with
        | Empty -> invalid_arg "Imap.bal"
        | Node { l = rll; v = rlv; d = rld; r = rlr; _ } ->
          create (create l x d rll) rlv rld (create rlr rv rd rr))
  else Node { l; v = x; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let empty = Empty
let is_empty = function Empty -> true | Node _ -> false

let rec add (x : key) data = function
  | Empty -> Node { l = Empty; v = x; d = data; r = Empty; h = 1 }
  | Node { l; v; d; r; h } as m ->
    if x = v then if d == data then m else Node { l; v = x; d = data; r; h }
    else if x < v then
      let ll = add x data l in
      if l == ll then m else bal ll v d r
    else
      let rr = add x data r in
      if r == rr then m else bal l v d rr

let rec find (x : key) = function
  | Empty -> raise Not_found
  | Node { l; v; d; r; _ } ->
    if x = v then d else find x (if x < v then l else r)

let rec find_opt (x : key) = function
  | Empty -> None
  | Node { l; v; d; r; _ } ->
    if x = v then Some d else find_opt x (if x < v then l else r)

let rec mem (x : key) = function
  | Empty -> false
  | Node { l; v; r; _ } -> x = v || mem x (if x < v then l else r)

let rec min_binding = function
  | Empty -> raise Not_found
  | Node { l = Empty; v; d; _ } -> (v, d)
  | Node { l; _ } -> min_binding l

let rec remove_min_binding = function
  | Empty -> invalid_arg "Imap.remove_min_binding"
  | Node { l = Empty; r; _ } -> r
  | Node { l; v; d; r; _ } -> bal (remove_min_binding l) v d r

(* Two trees whose keys all order [t1] before [t2], heights within
   balance of each other. *)
let merge_balanced t1 t2 =
  match (t1, t2) with
  | Empty, t | t, Empty -> t
  | _ ->
    let x, d = min_binding t2 in
    bal t1 x d (remove_min_binding t2)

let rec remove (x : key) = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } as m ->
    if x = v then merge_balanced l r
    else if x < v then
      let ll = remove x l in
      if l == ll then m else bal ll v d r
    else
      let rr = remove x r in
      if r == rr then m else bal l v d rr

let rec iter f = function
  | Empty -> ()
  | Node { l; v; d; r; _ } ->
    iter f l;
    f v d;
    iter f r

let rec mapi f = function
  | Empty -> Empty
  | Node { l; v; d; r; h } ->
    let l' = mapi f l in
    let d' = f v d in
    let r' = mapi f r in
    Node { l = l'; v; d = d'; r = r'; h }

let rec fold f m acc =
  match m with
  | Empty -> acc
  | Node { l; v; d; r; _ } -> fold f r (f v d (fold f l acc))

let rec for_all p = function
  | Empty -> true
  | Node { l; v; d; r; _ } -> p v d && for_all p l && for_all p r

(* [add_min_binding] and [add_max_binding] take a key strictly below
   (above) every key in the tree; only [join] calls them. *)
let rec add_min_binding k x = function
  | Empty -> singleton k x
  | Node { l; v; d; r; _ } -> bal (add_min_binding k x l) v d r

let rec add_max_binding k x = function
  | Empty -> singleton k x
  | Node { l; v; d; r; _ } -> bal l v d (add_max_binding k x r)

(* [l], [v] and [r] in key order, heights unconstrained. *)
let rec join l v d r =
  match (l, r) with
  | Empty, _ -> add_min_binding v d r
  | _, Empty -> add_max_binding v d l
  | ( Node { l = ll; v = lv; d = ld; r = lr; h = lh },
      Node { l = rl; v = rv; d = rd; r = rr; h = rh } ) ->
    if lh > rh + 2 then bal ll lv ld (join lr v d r)
    else if rh > lh + 2 then bal (join l v d rl) rv rd rr
    else create l v d r

(* [t1] before [t2] in key order, heights unconstrained. *)
let concat t1 t2 =
  match (t1, t2) with
  | Empty, t | t, Empty -> t
  | _ ->
    let x, d = min_binding t2 in
    join t1 x d (remove_min_binding t2)

let concat_or_join t1 v d t2 =
  match d with Some d -> join t1 v d t2 | None -> concat t1 t2

let rec split (x : key) = function
  | Empty -> (Empty, None, Empty)
  | Node { l; v; d; r; _ } ->
    if x = v then (l, Some d, r)
    else if x < v then
      let ll, pres, rl = split x l in
      (ll, pres, join rl v d r)
    else
      let lr, pres, rr = split x r in
      (join l v d lr, pres, rr)

let rec merge f s1 s2 =
  match (s1, s2) with
  | Empty, Empty -> Empty
  | Node { l = l1; v = v1; d = d1; r = r1; h = h1 }, _ when h1 >= height s2 ->
    let l2, d2, r2 = split v1 s2 in
    concat_or_join (merge f l1 l2) v1 (f v1 (Some d1) d2) (merge f r1 r2)
  | _, Node { l = l2; v = v2; d = d2; r = r2; _ } ->
    let l1, d1, r1 = split v2 s1 in
    concat_or_join (merge f l1 l2) v2 (f v2 d1 (Some d2)) (merge f r1 r2)
  | _ -> assert false

let rec union f s1 s2 =
  match (s1, s2) with
  | Empty, s | s, Empty -> s
  | ( Node { l = l1; v = v1; d = d1; r = r1; h = h1 },
      Node { l = l2; v = v2; d = d2; r = r2; h = h2 } ) -> (
    if h1 >= h2 then
      let l2, d2, r2 = split v1 s2 in
      let l = union f l1 l2 and r = union f r1 r2 in
      match d2 with
      | None -> join l v1 d1 r
      | Some d2 -> concat_or_join l v1 (f v1 d1 d2) r
    else
      let l1, d1, r1 = split v2 s1 in
      let l = union f l1 l2 and r = union f r1 r2 in
      match d1 with
      | None -> join l v2 d2 r
      | Some d1 -> concat_or_join l v2 (f v2 d1 d2) r)

(* [filter] and [filter_map] call their function in key order. *)
let rec filter p = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } as m ->
    let l' = filter p l in
    let pvd = p v d in
    let r' = filter p r in
    if pvd then if l == l' && r == r' then m else join l' v d r'
    else concat l' r'

let rec filter_map f = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } -> (
    let l' = filter_map f l in
    let fvd = f v d in
    let r' = filter_map f r in
    match fvd with Some d' -> join l' v d' r' | None -> concat l' r')

let rec cardinal = function
  | Empty -> 0
  | Node { l; r; _ } -> cardinal l + 1 + cardinal r

let rec bindings_aux acc = function
  | Empty -> acc
  | Node { l; v; d; r; _ } -> bindings_aux ((v, d) :: bindings_aux acc r) l

let bindings m = bindings_aux [] m
let of_seq s = Seq.fold_left (fun m (k, v) -> add k v m) empty s
