(* Property-based tests (qcheck): memory model vs a reference map,
   instruction semantics, granularity algebra, network FIFO order, and
   randomized data-race-free parallel programs whose results must match
   an OCaml model exactly. *)

open QCheck2

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (Test.make ~name ~count gen prop)

(* --- memory vs model ------------------------------------------------ *)

let mem_ops_gen =
  let addr = Gen.map (fun a -> a * 4) (Gen.int_range 0 4095) in
  let op =
    Gen.oneof
      [ Gen.map2 (fun a v -> `Long (a, v land 0xFFFFFFFF)) addr
          (Gen.int_bound 0x3FFFFFFF);
        Gen.map2
          (fun a v -> `Quad (a land lnot 7, v - 0x20000000))
          addr (Gen.int_bound 0x3FFFFFFF);
        Gen.map2 (fun a v -> `Byte (a, v land 0xFF)) addr (Gen.int_bound 255)
      ]
  in
  Gen.list_size (Gen.int_range 1 200) op

let prop_memory_model ops =
  let m = Shasta_machine.Memory.create () in
  let model = Hashtbl.create 64 in
  (* model at byte granularity *)
  let model_get a =
    match Hashtbl.find_opt model a with Some v -> v | None -> 0
  in
  let model_set_long a v =
    for k = 0 to 3 do
      Hashtbl.replace model (a + k) ((v lsr (8 * k)) land 0xFF)
    done
  in
  List.iter
    (fun op ->
      match op with
      | `Long (a, v) ->
        Shasta_machine.Memory.write_long_u m a v;
        model_set_long a v
      | `Quad (a, v) ->
        Shasta_machine.Memory.write_quad m a v;
        model_set_long a (v land 0xFFFFFFFF);
        model_set_long (a + 4) ((v asr 32) land 0xFFFFFFFF)
      | `Byte (a, v) ->
        Shasta_machine.Memory.write_byte m a v;
        Hashtbl.replace model a v)
    ops;
  (* every byte agrees *)
  List.for_all
    (fun op ->
      let a =
        match op with `Long (a, _) | `Quad (a, _) | `Byte (a, _) -> a
      in
      Shasta_machine.Memory.read_byte m a = model_get a)
    ops

(* --- instruction semantics ------------------------------------------ *)

let gen_int_pm = Gen.int_range (-1000000) 1000000

let prop_addl_sign_extends (a, b) =
  let r = Shasta_runtime.Exec.eval_iop Shasta_isa.Insn.Addl a b in
  r >= -0x80000000 && r <= 0x7FFFFFFF
  && (r - (a + b)) mod 0x1_0000_0000 = 0

let prop_div_rem (a, b) =
  let b = if b = 0 then 1 else b in
  let q = Shasta_runtime.Exec.eval_iop Shasta_isa.Insn.Divq a b in
  let r = Shasta_runtime.Exec.eval_iop Shasta_isa.Insn.Remq a b in
  (q * b) + r = a && abs r < abs b

let prop_cmp_trichotomy (a, b) =
  let v op = Shasta_runtime.Exec.eval_iop op a b in
  let lt = v Shasta_isa.Insn.Cmplt
  and eq = v Shasta_isa.Insn.Cmpeq
  and le = v Shasta_isa.Insn.Cmple in
  le = (lt lor eq) && lt land eq = 0

let prop_shifts (a, n) =
  let n = n land 63 in
  let a = abs a in
  Shasta_runtime.Exec.eval_iop Shasta_isa.Insn.Srl a n = a lsr n
  && Shasta_runtime.Exec.eval_iop Shasta_isa.Insn.Sll a n = a lsl n

(* --- granularity algebra -------------------------------------------- *)

let prop_legalize size =
  let b = Shasta_protocol.Granularity.legalize ~line_bytes:64 size in
  b >= 64 && b <= 8192 && b land (b - 1) = 0

let prop_heuristic size =
  let g = Shasta_protocol.Granularity.create ~line_bytes:64 () in
  let b = Shasta_protocol.Granularity.heuristic_block g ~size in
  if size > 1024 then b = 64 else b >= 64 && b >= min size 64

let prop_block_base addr_and_size =
  let page, off, bsize_pow = addr_and_size in
  let g = Shasta_protocol.Granularity.create ~line_bytes:64 () in
  let bsize = 64 lsl bsize_pow in
  Shasta_protocol.Granularity.set_page_block g ~page ~block_bytes:bsize;
  let addr = (page * 8192) + off in
  let base = Shasta_protocol.Granularity.block_base g addr in
  base mod bsize = 0 && base <= addr && addr < base + bsize

(* --- network FIFO ---------------------------------------------------- *)

let prop_network_fifo payloads =
  let net =
    Shasta_network.Network.create ~nprocs:2
      Shasta_network.Network.memory_channel
  in
  List.iteri
    (fun k p ->
      ignore
        (Shasta_network.Network.send net ~src:0 ~dst:1 ~now:(k * 3)
           ~payload_longs:p k))
    payloads;
  let rec drain acc =
    match Shasta_network.Network.recv net ~dst:1 ~now:max_int with
    | Some (_, m) -> drain (m :: acc)
    | None -> List.rev acc
  in
  drain [] = List.mapi (fun k _ -> k) payloads

(* --- randomized data-race-free parallel programs --------------------- *)

(* Each round: every processor writes a random value into each of its
   own slots, barrier, every processor reads a random selection of all
   slots into a private accumulator, barrier.  At the end each
   accumulator lands in a per-processor result slot and processor 0
   prints them all.  Any stale read, lost write, or protocol violation
   changes the output.  The OCaml model computes the expected result. *)
type rw_case = {
  nprocs : int;
  slots_per : int;
  rounds : (int array * int array) list;
      (* (value per slot owner-major, reads: slot index per processor) *)
}

let rw_gen =
  let open Gen in
  int_range 2 4 >>= fun nprocs ->
  int_range 1 3 >>= fun slots_per ->
  let nslots = nprocs * slots_per in
  list_size (int_range 1 4)
    (pair
       (array_size (return nslots) (int_bound 1000))
       (array_size (return (nprocs * 2)) (int_bound (nslots - 1))))
  >>= fun rounds -> return { nprocs; slots_per; rounds }

let build_rw_program c =
  let open Shasta_minic.Builder in
  let nslots = c.nprocs * c.slots_per in
  let work =
    [ let_i "acc" (i 0) ]
    @ List.concat_map
        (fun (values, reads) ->
          (* writes: each processor updates its own slots *)
          List.concat
            (List.init c.nprocs (fun p ->
                 [ Shasta_minic.Ast.If
                     ( Shasta_minic.Ast.Bin (Eq, Pid, i p),
                       List.init c.slots_per (fun k ->
                           let slot = (p * c.slots_per) + k in
                           sti (g "data") (i slot) (i values.(slot))),
                       [] )
                 ]))
          @ [ barrier ]
          @ (* reads: processor p reads its two assigned slots *)
          List.concat
            (List.init c.nprocs (fun p ->
                 [ Shasta_minic.Ast.If
                     ( Shasta_minic.Ast.Bin (Eq, Pid, i p),
                       [ set "acc"
                           (v "acc"
                            +% ldi (g "data") (i reads.((2 * p)))
                            +% ldi (g "data") (i reads.((2 * p) + 1)));
                         set "acc" (v "acc" %% i 1000003)
                       ],
                       [] )
                 ]))
          @ [ barrier ])
        c.rounds
    @ [ sti (g "res") Pid (v "acc");
        barrier;
        when_ (Pid ==% i 0)
          [ for_ "p" (i 0) Nprocs [ print_int (ldi (g "res") (v "p")) ] ]
      ]
  in
  prog
    ~globals:[ ("data", I); ("res", I) ]
    [ proc "appinit"
        [ gset "data" (Gmalloc (i (8 * nslots)));
          gset "res" (Gmalloc_b (i (8 * c.nprocs), i 64)) ];
      proc "work" work
    ]

let model_rw c =
  let nslots = c.nprocs * c.slots_per in
  let data = Array.make nslots 0 in
  let acc = Array.make c.nprocs 0 in
  List.iter
    (fun (values, reads) ->
      Array.blit values 0 data 0 nslots;
      for p = 0 to c.nprocs - 1 do
        acc.(p) <-
          (acc.(p) + data.(reads.(2 * p)) + data.(reads.((2 * p) + 1)))
          mod 1000003
      done)
    c.rounds;
  String.concat "" (List.init c.nprocs (fun p -> string_of_int acc.(p) ^ "\n"))

let prop_drf_program c =
  let p = build_rw_program c in
  let got, _ = Test_support.Support.run ~nprocs:c.nprocs p in
  got = model_rw c

(* the same programs over the slower network and with 128-byte lines *)
let prop_drf_program_atm c =
  let p = build_rw_program c in
  let got, _ =
    Test_support.Support.run ~nprocs:c.nprocs
      ~net:Shasta_network.Network.atm p
  in
  got = model_rw c

let () =
  Alcotest.run "props"
    [ ( "memory",
        [ qtest "memory agrees with byte model" ~count:100 mem_ops_gen
            prop_memory_model ] );
      ( "semantics",
        [ qtest "addl sign extension" ~count:200
            (Gen.pair gen_int_pm gen_int_pm)
            prop_addl_sign_extends;
          qtest "div/rem identity" ~count:200
            (Gen.pair gen_int_pm gen_int_pm)
            prop_div_rem;
          qtest "comparison trichotomy" ~count:200
            (Gen.pair gen_int_pm gen_int_pm)
            prop_cmp_trichotomy;
          qtest "logical shifts" ~count:200
            (Gen.pair gen_int_pm (Gen.int_bound 63))
            prop_shifts ] );
      ( "granularity",
        [ qtest "legalize" ~count:200 (Gen.int_range 1 100000) prop_legalize;
          qtest "heuristic" ~count:200 (Gen.int_range 1 100000) prop_heuristic;
          qtest "block base" ~count:200
            Gen.(triple (int_range 0 1000) (int_range 0 8191) (int_range 0 7))
            prop_block_base ] );
      ( "network",
        [ qtest "fifo order" ~count:100
            Gen.(list_size (int_range 1 30) (int_bound 200))
            prop_network_fifo ] );
      ( "coherence",
        [ qtest "random DRF programs match the model" ~count:40 rw_gen
            prop_drf_program;
          qtest "random DRF programs over ATM" ~count:15 rw_gen
            prop_drf_program_atm ] )
    ]
