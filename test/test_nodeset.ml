(* Nodeset laws: the directory organizations behind the protocol's node
   sets.  QCheck drives random add/remove programs against a reference
   [Set.Make(Int)] model and checks, per representation:

   - exact representations (full map; limited pointers before overflow)
     agree with the model exactly;
   - the inexact representation (overflowed broadcast) is a SUPERSET
     of the model — the protocol only uses sharer sets to
     fan out invalidations, and a spurious invalidation is absorbed, so
     over-approximation is sound while under-approximation would lose a
     sharer;
   - the structural accessors (mem / cardinal / iter / to_list /
     is_empty) are mutually consistent and [iter] ascends;
   - the word masks that hold exact sets above [max_bits] nodes agree
     with a bool-array model in every operation, render canonically
     and are never mutated.

   Directed tests pin the limited-pointer overflow step, exact removal
   via exclusion lists, and the nprocs-vs-capacity validation (including the runtime config error
   message users actually see at P=64). *)

open QCheck2
module Ns = Shasta_protocol.Nodeset
module IntSet = Set.Make (Int)

let qtest name ?(count = 200) ~print gen prop =
  QCheck_alcotest.to_alcotest (Test.make ~name ~count ~print gen prop)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- generators ------------------------------------------------------ *)

type op = Add of int | Remove of int

let show_mode = function
  | Ns.Full -> "full"
  | Ns.Limited k -> Printf.sprintf "limited:%d" k

let show_op = function
  | Add n -> Printf.sprintf "add %d" n
  | Remove n -> Printf.sprintf "rem %d" n

let case_gen =
  let mode =
    Gen.oneof
      [ Gen.pure Ns.Full;
        Gen.map (fun k -> Ns.Limited k) (Gen.int_range 1 3) ]
  in
  let case =
    Gen.bind (Gen.pair mode (Gen.int_range 1 16)) (fun (mode, nprocs) ->
      let op =
        Gen.map2
          (fun add n -> if add then Add n else Remove n)
          Gen.bool
          (Gen.int_bound (nprocs - 1))
      in
      Gen.map
        (fun ops -> (mode, nprocs, ops))
        (Gen.list_size (Gen.int_range 0 24) op))
  in
  case

(* Two sets over the same processors, each in its own organization, so
   every pairing of full maps, exact pointers and overflowed broadcasts
   comes up. *)
let pair_gen =
  let mode =
    Gen.oneof
      [ Gen.pure Ns.Full;
        Gen.map (fun k -> Ns.Limited k) (Gen.int_range 1 3) ]
  in
  Gen.bind (Gen.int_range 1 16) (fun nprocs ->
    let op =
      Gen.map2
        (fun add n -> if add then Add n else Remove n)
        Gen.bool
        (Gen.int_bound (nprocs - 1))
    in
    let ops = Gen.list_size (Gen.int_range 0 24) op in
    Gen.map2
      (fun (ma, a) (mb, b) -> ((ma, nprocs, a), (mb, nprocs, b)))
      (Gen.pair mode ops) (Gen.pair mode ops))

let print_case (mode, nprocs, ops) =
  Printf.sprintf "%s P=%d [%s]" (show_mode mode) nprocs
    (String.concat "; " (List.map show_op ops))

let apply_ops mode ~nprocs ops =
  List.fold_left
    (fun (s, m) op ->
      match op with
      | Add x -> (Ns.add s x, IntSet.add x m)
      | Remove x -> (Ns.remove s x, IntSet.remove x m))
    (Ns.empty mode ~nprocs, IntSet.empty)
    ops

(* --- the laws -------------------------------------------------------- *)

let prop_model_agreement (mode, nprocs, ops) =
  let s, model = apply_ops mode ~nprocs ops in
  let members = Ns.to_list s in
  (* never under-approximate: every model member is a member *)
  IntSet.for_all (fun x -> Ns.mem s x) model
  (* never invent out-of-range nodes *)
  && List.for_all (fun x -> x >= 0 && x < nprocs) members
  (* exact representations agree with the model exactly *)
  && ((not (Ns.is_exact s))
      || (IntSet.equal model (IntSet.of_list members)
          && Ns.cardinal s = IntSet.cardinal model))

let prop_accessors_consistent (mode, nprocs, ops) =
  let s, _ = apply_ops mode ~nprocs ops in
  let members = Ns.to_list s in
  let iterated = ref [] in
  Ns.iter (fun x -> iterated := x :: !iterated) s;
  let iterated = List.rev !iterated in
  iterated = members
  && List.sort_uniq compare members = members (* sorted, duplicate-free *)
  && Ns.cardinal s = List.length members
  && Ns.is_empty s = (members = [])
  && List.for_all (fun x -> Ns.mem s x) members
  && Ns.fold (fun _ acc -> acc + 1) s 0 = List.length members

(* removal is exact in EVERY representation (crash recovery strikes a
   dead node from every set, inexact or not) *)
let prop_remove_exact (mode, nprocs, ops) =
  let s, _ = apply_ops mode ~nprocs ops in
  List.for_all
    (fun x -> not (Ns.mem (Ns.remove s x) x))
    (List.init nprocs Fun.id)

(* an overflowed limited-pointer entry is a superset of what a full map
   would hold after the same program *)
let prop_overflow_superset (_, nprocs, ops) =
  let s, model = apply_ops (Ns.Limited 1) ~nprocs ops in
  IntSet.for_all (fun x -> Ns.mem s x) model

(* [subset], [disjoint] and [beyond] walk the sets in place; each
   equals its definition over [to_list]. *)
let prop_relations_reference (ca, cb) =
  let mode_a, nprocs, ops_a = ca and mode_b, _, ops_b = cb in
  let a, _ = apply_ops mode_a ~nprocs ops_a in
  let b, _ = apply_ops mode_b ~nprocs ops_b in
  let la = Ns.to_list a in
  Ns.subset a b = List.for_all (Ns.mem b) la
  && Ns.disjoint a b = not (List.exists (Ns.mem b) la)
  && List.for_all
       (fun n -> Ns.beyond a n = List.exists (fun x -> x < 0 || x >= n) la)
       (List.init (nprocs + 2) Fun.id)

(* [next] steps through the members in ascending order: from every
   start it finds the least member at or above it. *)
let prop_next_reference (mode, nprocs, ops) =
  let s, _ = apply_ops mode ~nprocs ops in
  let l = Ns.to_list s in
  List.for_all
    (fun x ->
      Ns.next s x
      = match List.find_opt (fun m -> m >= x) l with Some m -> m | None -> -1)
    (List.init (nprocs + 2) (fun x -> x - 1))

(* --- directed cases -------------------------------------------------- *)

let t_limited_overflow_step () =
  let nprocs = 6 in
  let s0 = Ns.empty (Ns.Limited 2) ~nprocs in
  let s1 = Ns.add (Ns.add s0 1) 4 in
  Alcotest.(check bool) "below k stays exact" true (Ns.is_exact s1);
  Alcotest.(check (list int)) "exact members" [ 1; 4 ] (Ns.to_list s1);
  let s2 = Ns.add s1 2 in
  Alcotest.(check bool) "k+1th member overflows" false (Ns.is_exact s2);
  Alcotest.(check (list int)) "broadcast covers everyone" [ 0; 1; 2; 3; 4; 5 ]
    (Ns.to_list s2);
  let s3 = Ns.remove s2 3 in
  Alcotest.(check bool) "exclusion removes exactly" false (Ns.mem s3 3);
  Alcotest.(check int) "cardinal tracks exclusions" 5 (Ns.cardinal s3);
  (* re-adding an excluded node cancels the exclusion *)
  Alcotest.(check bool) "re-add cancels exclusion" true
    (Ns.mem (Ns.add s3 3) 3)

let t_singleton_masks () =
  List.iter
    (fun mode ->
      let s = Ns.singleton mode ~nprocs:8 3 in
      Alcotest.(check bool)
        (show_mode mode ^ " singleton member") true (Ns.mem s 3))
    [ Ns.Full; Ns.Limited 1 ];
  (* full-map singletons are the historical one-hot masks *)
  Alcotest.(check int) "one-hot" (1 lsl 3)
    (Ns.to_mask (Ns.singleton Ns.Full ~nprocs:8 3));
  (* an int mask has bits for nodes 0..62 only: node 63 is refused,
     not dropped *)
  let wide = Ns.exact_empty ~nprocs:64 in
  Alcotest.(check int) "node 62 is the top bit" min_int
    (Ns.to_mask (Ns.add wide 62));
  match Ns.to_mask (Ns.add wide 63) with
  | m -> Alcotest.failf "node 63 collapsed to mask %d" m
  | exception Invalid_argument _ -> ()

let t_capacity_validation () =
  (match Ns.validate Ns.Full ~nprocs:8 with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Ns.validate Ns.Full ~nprocs:64 with
   | Ok () -> Alcotest.fail "full map must reject 64 processors"
   | Error e ->
     Alcotest.(check bool) "error names the capacity" true
       (contains ~affix:"capacity" e));
  match Ns.validate (Ns.Limited 4) ~nprocs:64 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* the error users actually hit: a 64-processor cluster under the
   default full-map directory must fail fast, with the fix in the
   message, and succeed under limited pointers *)
let t_config_capacity_regression () =
  let module State = Shasta_runtime.State in
  (try
     ignore (State.default_config ~nprocs:64 ());
     Alcotest.fail "default_config accepted 64 procs on a full map"
   with Invalid_argument e ->
     Alcotest.(check bool) "message suggests --dir-mode" true
       (contains ~affix:"dir-mode" e));
  let c = State.default_config ~nprocs:64 ~dir_mode:(Ns.Limited 4) () in
  Alcotest.(check int) "limited accepts 64" 64 c.State.nprocs

let t_mode_of_string () =
  let ok s m =
    match Ns.mode_of_string s with
    | Ok m' -> Alcotest.(check string) s (show_mode m) (show_mode m')
    | Error e -> Alcotest.fail e
  in
  ok "full" Ns.Full;
  ok "limited" (Ns.Limited 4);
  ok "limited:2" (Ns.Limited 2);
  List.iter
    (fun s ->
      match Ns.mode_of_string s with
      | Ok _ -> Alcotest.fail (s ^ " accepted")
      | Error _ -> ())
    [ "sparse"; "coarse:4" ]

(* The canonical rendering keeps the bytes of its former Printf
   implementation, which the model checker's state keys depend on. *)
let ref_to_string (t : Ns.t) =
  let ints l = String.concat "," (List.map string_of_int l) in
  match t with
  | Ns.Bits m -> Printf.sprintf "%x" m
  | Ns.Ptrs { ps; _ } -> Printf.sprintf "P(%s)" (ints ps)
  | Ns.Bcast { excl; _ } -> Printf.sprintf "*(-%s)" (ints excl)
  | Ns.Words a ->
    Printf.sprintf "W(%s)"
      (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%x") a)))

let prop_to_string_reference (mode, nprocs, ops) =
  let s, _ = apply_ops mode ~nprocs ops in
  Ns.to_string s = ref_to_string s

(* --- word masks (exact sets above [max_bits] nodes) ------------------- *)

(* Three programs over one node count beyond an int mask: [a] and [b]
   run on [exact_empty], [c] on limited pointers (which may overflow to
   broadcast), so both the word-by-word and the member-walking paths of
   [subset]/[disjoint] come up.  Half the time [b] first re-adds [a]'s
   final members in descending order, so equal sets reached by
   different programs are common. *)
let words_gen =
  Gen.bind (Gen.oneofl [ 62; 64; 100; 130 ]) (fun n ->
    let op =
      Gen.map2
        (fun add x -> if add then Add x else Remove x)
        Gen.bool (Gen.int_bound (n - 1))
    in
    let ops = Gen.list_size (Gen.int_range 0 40) op in
    Gen.map4
      (fun a b c same -> (n, a, b, c, same))
      ops (Gen.list_size (Gen.int_range 0 2) op) ops Gen.bool)

let print_words (n, a, b, c, same) =
  let ops l = String.concat "; " (List.map show_op l) in
  Printf.sprintf "P=%d a=[%s] b=[%s]%s c=[%s]" n (ops a) (ops b)
    (if same then " after a's members" else "")
    (ops c)

(* Run [ops] from [s0] against a bool-array model, keeping every
   intermediate set with a copy of its model. *)
let run_words s0 init ops =
  let model = Array.copy init in
  let s, snaps =
    List.fold_left
      (fun (s, snaps) op ->
        let s =
          match op with
          | Add x -> model.(x) <- true; Ns.add s x
          | Remove x -> model.(x) <- false; Ns.remove s x
        in
        (s, (s, Array.copy model) :: snaps))
      (s0, [ (s0, Array.copy init) ])
      ops
  in
  (s, model, snaps)

let model_list m =
  List.filter (fun x -> m.(x)) (List.init (Array.length m) Fun.id)

let prop_words_model (n, ops_a, ops_b, ops_c, same) =
  let empty = Ns.exact_empty ~nprocs:n in
  let none = Array.make n false in
  let a, ma, snaps = run_words empty none ops_a in
  let b0, mb0 =
    if same then
      let b0, mb0, _ =
        run_words empty none (List.rev_map (fun x -> Add x) (model_list ma))
      in
      (b0, mb0)
    else (empty, none)
  in
  let b, mb, _ = run_words b0 mb0 ops_b in
  let c, _ = apply_ops (Ns.Limited 2) ~nprocs:n ops_c in
  let la = model_list ma and lb = model_list mb and lc = Ns.to_list c in
  let iterated = ref [] in
  Ns.iter (fun x -> iterated := x :: !iterated) a;
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let next_ref x =
    match List.find_opt (fun m -> m >= x) la with Some m -> m | None -> -1
  in
  (match a with Ns.Words _ -> true | _ -> false)
  && Ns.is_exact a
  && List.for_all (fun x -> Ns.mem a x = (x >= 0 && x < n && ma.(x)))
       (range (-2) (n + 40))
  && Ns.cardinal a = List.length la
  && Ns.is_empty a = (la = [])
  && List.rev !iterated = la
  && Ns.to_list a = la
  && Ns.fold (fun _ k -> k + 1) a 0 = List.length la
  && List.for_all (fun x -> Ns.next a x = next_ref x) (range (-2) (n + 40))
  && List.for_all
       (fun k -> Ns.beyond a k = List.exists (fun x -> x >= k) la)
       (range (-2) (n + 40))
  (* word by word against a second word mask *)
  && Ns.subset a b = List.for_all (fun x -> mb.(x)) la
  && Ns.disjoint a b = not (List.exists (fun x -> mb.(x)) la)
  && Ns.subset b a = List.for_all (fun x -> ma.(x)) lb
  (* member walks against another representation, both ways round *)
  && Ns.subset a c = List.for_all (Ns.mem c) la
  && Ns.disjoint a c = not (List.exists (Ns.mem c) la)
  && Ns.subset c a = List.for_all (Ns.mem a) lc
  && Ns.disjoint c a = not (List.exists (Ns.mem a) lc)
  (* canonical: equal strings exactly when the members are equal *)
  && (Ns.to_string a = Ns.to_string b) = (la = lb)
  && Ns.to_string a = ref_to_string a
  (* never mutated: every intermediate set still holds its members *)
  && List.for_all (fun (s, m) -> Ns.to_list s = model_list m) snaps

let () =
  Alcotest.run "nodeset"
    [ ( "laws",
        [ qtest "model agreement (exact = equal, inexact = superset)"
            ~print:print_case case_gen prop_model_agreement;
          qtest "accessors mutually consistent, iter ascends"
            ~print:print_case case_gen prop_accessors_consistent;
          qtest "remove is exact in every representation" ~print:print_case
            case_gen prop_remove_exact;
          qtest "limited-pointer overflow is a superset" ~print:print_case
            case_gen prop_overflow_superset;
          qtest "to_string matches the Printf reference" ~print:print_case
            case_gen prop_to_string_reference;
          qtest "subset, disjoint and beyond match their list definitions"
            ~count:500
            ~print:(fun (a, b) -> print_case a ^ " / " ^ print_case b)
            pair_gen prop_relations_reference;
          qtest "next matches its list definition" ~print:print_case case_gen
            prop_next_reference;
          qtest "word masks above max_bits agree with a bool-array model"
            ~count:500 ~print:print_words words_gen prop_words_model ] );
      ( "directed",
        [ Alcotest.test_case "limited overflow step" `Quick
            t_limited_overflow_step;
          Alcotest.test_case "singletons" `Quick t_singleton_masks;
          Alcotest.test_case "capacity validation" `Quick
            t_capacity_validation;
          Alcotest.test_case "P=64 config error is actionable" `Quick
            t_config_capacity_regression;
          Alcotest.test_case "mode parsing" `Quick t_mode_of_string ] ) ]
