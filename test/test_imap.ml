(* Imap laws: the protocol core's int map against the standard library's
   [Map.Make (Int)] as the reference model.  QCheck runs random
   programs of the exposed operations over a small key range that
   includes negative keys, applying each operation to both maps, and
   after every step requires:

   - equal [bindings], [cardinal] and [is_empty], and equal [find],
     [find_opt] and [mem] results on every key in range;
   - the same visiting order from [fold] and [iter];
   - the same tree: both types are [Empty | Node {l; v; d; r; h}], so
     structural equality of their representations compares shapes,
     which is what keeps allocation and iteration order as they were;
   - the same physical return as the reference for the operation just
     run, and the no-op returns the core relies on: [add] of the bound
     value, [remove] of an absent key and a keep-all [filter] return
     the map itself. *)

open QCheck2
module Imap = Shasta_protocol.Transitions.Imap
module M = Map.Make (Int)

let lo = -8
let hi = 8

type op =
  | Add of int * string
  | Readd of int (* add back the value already bound, if any *)
  | Remove of int
  | Filter of int (* drop keys congruent to r mod 3; r = 3 keeps all *)
  | Filter_map of int
  | Mapi
  | Union of (int * string) list
  | Merge of (int * string) list
  | Of_seq of (int * string) list

let show_kvs kvs =
  String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d,%s" k v) kvs)

let show_op = function
  | Add (k, v) -> Printf.sprintf "add %d %s" k v
  | Readd k -> Printf.sprintf "readd %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Filter r -> Printf.sprintf "filter %d" r
  | Filter_map r -> Printf.sprintf "filter_map %d" r
  | Mapi -> "mapi"
  | Union kvs -> Printf.sprintf "union [%s]" (show_kvs kvs)
  | Merge kvs -> Printf.sprintf "merge [%s]" (show_kvs kvs)
  | Of_seq kvs -> Printf.sprintf "of_seq [%s]" (show_kvs kvs)

let key_gen = Gen.int_range lo hi
let val_gen = Gen.map (Printf.sprintf "v%d") (Gen.int_range 0 9)
let kvs_gen = Gen.(list_size (int_range 0 8) (pair key_gen val_gen))

let op_gen =
  Gen.(
    frequency
      [ (6, map2 (fun k v -> Add (k, v)) key_gen val_gen);
        (2, map (fun k -> Readd k) key_gen);
        (4, map (fun k -> Remove k) key_gen);
        (1, map (fun r -> Filter r) (int_range 0 3));
        (1, map (fun r -> Filter_map r) (int_range 0 3));
        (1, pure Mapi);
        (1, map (fun l -> Union l) kvs_gen);
        (1, map (fun l -> Merge l) kvs_gen);
        (1, map (fun l -> Of_seq l) kvs_gen) ])

let prog_gen = Gen.(list_size (int_range 1 40) op_gen)

let keep r k _ = r = 3 || ((k mod 3) + 3) mod 3 <> r

(* [union] keeps the right value except on keys divisible by 4, which
   it drops; [merge] prefers the right side and drops keys divisible by
   5 bound on both. *)
let pick k a b = if k mod 4 = 0 then None else Some (if k > 0 then a else b)

let merge_f k a b =
  match (a, b) with
  | Some _, Some _ when k mod 5 = 0 -> None
  | _, Some b -> Some b
  | a, None -> a

(* Run [op] on both maps; the last component says whether each returned
   its argument physically. *)
let step (m, r) op =
  let m', r' =
    match op with
    | Add (k, v) -> (Imap.add k v m, M.add k v r)
    | Readd k -> (
      (* each map's own value: [mapi] and [filter_map] give the two
         maps equal but distinct strings *)
      match (Imap.find_opt k m, M.find_opt k r) with
      | Some v, Some w -> (Imap.add k v m, M.add k w r)
      | _ -> (m, r))
    | Remove k -> (Imap.remove k m, M.remove k r)
    | Filter n -> (Imap.filter (keep n) m, M.filter (keep n) r)
    | Filter_map n ->
      let f k v = if keep n k v then Some (v ^ "'") else None in
      (Imap.filter_map f m, M.filter_map f r)
    | Mapi ->
      let f k v = Printf.sprintf "%s@%d" v k in
      (Imap.mapi f m, M.mapi f r)
    | Union kvs ->
      (Imap.union pick m (Imap.of_seq (List.to_seq kvs)),
       M.union pick r (M.of_seq (List.to_seq kvs)))
    | Merge kvs ->
      (Imap.merge merge_f m (Imap.of_seq (List.to_seq kvs)),
       M.merge merge_f r (M.of_seq (List.to_seq kvs)))
    | Of_seq kvs ->
      (Imap.of_seq (List.to_seq kvs), M.of_seq (List.to_seq kvs))
  in
  ((m', r'), (m' == m, r' == r))

let fold_order m = Imap.fold (fun k v acc -> (k, v) :: acc) m []
let ref_fold_order r = M.fold (fun k v acc -> (k, v) :: acc) r []

let iter_order iter m =
  let acc = ref [] in
  iter (fun k v -> acc := (k, v) :: !acc) m;
  !acc

let agrees (m, r) =
  let keys = List.init (hi - lo + 3) (fun i -> lo - 1 + i) in
  Imap.bindings m = M.bindings r
  && Imap.cardinal m = M.cardinal r
  && Imap.is_empty m = M.is_empty r
  && List.for_all
       (fun k ->
         Imap.find_opt k m = M.find_opt k r
         && Imap.mem k m = M.mem k r
         &&
         match (Imap.find k m, M.find k r) with
         | a, b -> a = b
         | exception Not_found -> not (M.mem k r))
       keys
  && fold_order m = ref_fold_order r
  && iter_order Imap.iter m = iter_order M.iter r
  && Imap.for_all (fun k _ -> k <> 0) m = M.for_all (fun k _ -> k <> 0) r
  && Obj.repr m = Obj.repr r

(* The no-op returns, checked on every key in range. *)
let no_op_returns m =
  Imap.filter (fun _ _ -> true) m == m
  && List.for_all
       (fun k ->
         match Imap.find_opt k m with
         | Some v -> Imap.add k v m == m
         | None -> Imap.remove k m == m)
       (List.init (hi - lo + 1) (fun i -> lo + i))

let law prog =
  let rec go st = function
    | [] -> true
    | op :: ops ->
      let st', (same, ref_same) = step st op in
      if not (same = ref_same && agrees st' && no_op_returns (fst st')) then
        Test.fail_reportf "diverged after %s" (show_op op)
      else go st' ops
  in
  go (Imap.empty, M.empty) prog

let t_law =
  QCheck_alcotest.to_alcotest
    (Test.make ~name:"Imap matches Map.Make (Int)" ~count:500
       ~print:(fun p -> String.concat "\n" (List.map show_op p))
       prog_gen law)

(* Directed: the three no-op returns on a map built by hand, and a
   merge with a map of another value type. *)
let t_physical () =
  let v = "x" in
  let m = Imap.add (-3) v (Imap.add 5 "y" (Imap.singleton 0 "z")) in
  Alcotest.(check bool) "add of the bound value" true (Imap.add (-3) v m == m);
  Alcotest.(check bool) "add of an equal copy rebuilds" false
    (Imap.add (-3) (String.concat "" [ "x" ]) m == m);
  Alcotest.(check bool) "remove of an absent key" true (Imap.remove 7 m == m);
  Alcotest.(check bool) "keep-all filter" true
    (Imap.filter (fun _ _ -> true) m == m);
  let lens =
    Imap.merge
      (fun _ a b ->
        match (a, b) with
        | Some s, _ -> Some (String.length s)
        | None, b -> b)
      m (Imap.singleton 9 42)
  in
  Alcotest.(check (list (pair int int))) "merge across value types"
    [ (-3, 1); (0, 1); (5, 1); (9, 42) ]
    (Imap.bindings lens)

let () =
  Alcotest.run "imap"
    [ ( "laws",
        [ t_law; Alcotest.test_case "no-op returns" `Quick t_physical ] ) ]
