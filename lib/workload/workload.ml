(* YCSB-style drive-program generator.

   The run-phase driver is written twice: once as MiniC (the simulated
   benchmark) and once in OCaml (plan), drawing from the same seeded
   63-bit multiplicative congruential generator.  Register arithmetic
   in the simulator is native OCaml int arithmetic and quadword memory
   round-trips OCaml ints exactly, so the two stay bit-identical as
   long as they perform the same operations in the same order — which
   is what lets the tests predict a run's operation stream without
   running the simulator. *)

open Shasta_minic.Builder
open Shasta_minic.Ast

type mix = A | B | C | E | M
type dist = Uniform | Zipfian of float

type spec = {
  nkeys : int;
  ops : int;
  mix : mix;
  dist : dist;
  seed : int;
  scan_len : int;
  quanta : int;
  disjoint : bool;
}

let spec ?(ops = 100_000) ?(mix = B) ?(dist = Zipfian 0.99) ?(seed = 42)
    ?(scan_len = 4) ?(quanta = 1024) ?(disjoint = false) ~nkeys () =
  if nkeys <= 0 then invalid_arg "Workload.spec: nkeys must be positive";
  { nkeys; ops; mix; dist; seed; scan_len; quanta; disjoint }

let mix_of_string s =
  match String.lowercase_ascii s with
  | "a" -> A
  | "b" -> B
  | "c" -> C
  | "e" -> E
  | "m" -> M
  | s ->
    invalid_arg
      ("Workload.mix_of_string: unknown mix " ^ s
     ^ " (expected a, b, c, e or m)")

let mix_name = function A -> "a" | B -> "b" | C -> "c" | E -> "e" | M -> "m"

let dist_name = function
  | Uniform -> "uniform"
  | Zipfian t -> Printf.sprintf "zipfian(%.2f)" t

(* per-10000 (read, update, delete, scan) *)
let shares = function
  | A -> (5000, 5000, 0, 0)
  | B -> (9500, 500, 0, 0)
  | C -> (10000, 0, 0, 0)
  | E -> (0, 500, 0, 9500)
  | M -> (4000, 4000, 1000, 1000)

type table = {
  t_globals : (string * ty) list;
  t_procs : proc list;
  t_init : stmt list;
  t_get : expr -> expr;
  t_put : expr -> expr;
  t_del : expr -> expr;
  t_scan : expr -> expr;
  t_finish : stmt list;
}

(* ------------------------------------------------------------------ *)
(* The driver PRNG: x <- x*M + A mod 2^63, deviate = x >> 12.          *)
(* Full period (M = 5 mod 8, A odd); constants fit OCaml int literals. *)
(* ------------------------------------------------------------------ *)

let lcg_m = 0x2545F4914F6CDD1D
let lcg_a = 1442695040888963407
let seed_gamma = 0x9E3779B97F4A7C1

let magic = 711_317

(* Per-operation latency buckets: bucket j holds dt <= 2^(7+j)-1, the
   last is overflow; the driver computes j by shifting dt>>7 to zero. *)
let nb_lat = 16
let lat_bounds = Array.init (nb_lat - 1) (fun j -> (1 lsl (7 + j)) - 1)

(* Per-node stats region layout (one 256-byte block per node): *)
let off_ops = 0
let off_tstart = 8
let off_tend = 16
let off_load = 24
let off_get = 32
let off_put = 40
let off_del = 48
let off_scan = 56
let off_err = 64
let off_lsum = 72
let off_lmax = 80
let off_hist = 88 (* nb_lat slots: 88 .. 88 + 8*nb_lat - 1 = 215 *)

(* ------------------------------------------------------------------ *)
(* MiniC driver                                                        *)
(* ------------------------------------------------------------------ *)

let program s table =
  let tr, tu, td, _ts =
    let r, u, d, sc = shares s.mix in
    (r, r + u, r + u + d, sc)
  in
  let advance = set "sd" ((v "sd" *% i lcg_m) +% i lcg_a) in
  let key_stmts =
    (* consumes deviates u2 and u3 (u3 possibly unused but always
       drawn, so the draw count per op is constant) *)
    (match s.dist with
     | Uniform -> [ let_i "key" (v "u2" %% i s.nkeys) ]
     | Zipfian _ ->
       [ let_i "q" (v "u2" %% i s.quanta);
         let_i "klo" (ldi (g "wl_ztab") (v "q"));
         let_i "kw" (ldi (g "wl_ztab") (v "q" +% i 1) -% v "klo");
         let_i "key" (v "klo");
         when_ (v "kw" >% i 1) [ set "key" (v "klo" +% (v "u3" %% v "kw")) ];
         when_ (v "key" >=% i s.nkeys) [ set "key" (i (s.nkeys - 1)) ]
       ])
    @
    if s.disjoint then
      [ set "key" (v "key" -% (v "key" %% Nprocs) +% Pid);
        when_ (v "key" >=% i s.nkeys) [ set "key" (v "key" -% Nprocs) ]
      ]
    else []
  in
  let ztab_init =
    match s.dist with
    | Uniform -> []
    | Zipfian theta ->
      let tab =
        Keygen.quantile_table ~n:s.nkeys ~theta ~quanta:s.quanta
      in
      gset "wl_ztab" (Gmalloc_b (i ((s.quanta + 1) * 8), i 1024))
      :: List.concat
           (List.init (s.quanta + 1) (fun q ->
              [ sti (g "wl_ztab") (i q) (i tab.(q)) ]))
  in
  let ztab_global =
    match s.dist with Uniform -> [] | Zipfian _ -> [ ("wl_ztab", I) ]
  in
  (* node 0 prints the sum over nodes of one stats field *)
  let print_total off =
    [ let_i "tt" (i 0);
      for_ "p" (i 0) Nprocs
        [ set "tt"
            (v "tt" +% fld_i (g "wl_stats" +% (v "p" <<% i 8)) off)
        ];
      print_int (v "tt")
    ]
  in
  let print_max off =
    [ let_i "tt" (i 0);
      for_ "p" (i 0) Nprocs
        [ let_i "pv" (fld_i (g "wl_stats" +% (v "p" <<% i 8)) off);
          when_ (v "pv" >% v "tt") [ set "tt" (v "pv") ]
        ];
      print_int (v "tt")
    ]
  in
  let appinit =
    proc "appinit"
      ([ gset "wl_stats" (Gmalloc_b (Nprocs *% i 256, i 256)) ]
       @ ztab_init @ table.t_init)
  in
  let work =
    proc "work"
      ([ let_i "sb" (g "wl_stats" +% (Pid <<% i 8));
         (* ---- load phase: partition the key space, insert once ---- *)
         let_i "nl" (i 0);
         for_ "k" (i 0) (i s.nkeys)
           [ when_ ((v "k" %% Nprocs) ==% Pid)
               [ let_i "lr" (table.t_put (v "k"));
                 set "nl" ((v "nl" +% i 1) +% (v "lr" *% i 0))
               ]
           ];
         set_fld_i (v "sb") off_load (v "nl");
         barrier;
         (* ---- run phase ---- *)
         let_i "hb" (Pmalloc (i (nb_lat * 8)));
         for_ "j" (i 0) (i nb_lat) [ sti (v "hb") (v "j") (i 0) ];
         let_i "sd" (i s.seed +% ((Pid +% i 1) *% i seed_gamma));
         advance;
         advance;
         let_i "opsn" (i s.ops /% Nprocs);
         let_i "ng" (i 0);
         let_i "np" (i 0);
         let_i "nd" (i 0);
         let_i "ns" (i 0);
         let_i "ne" (i 0);
         let_i "lsum" (i 0);
         let_i "lmax" (i 0);
         set_fld_i (v "sb") off_tstart now;
         for_ "op" (i 0) (v "opsn")
           ([ advance;
              let_i "u1" (v "sd" >>% i 12);
              advance;
              let_i "u2" (v "sd" >>% i 12);
              advance;
              let_i "u3" (v "sd" >>% i 12);
              let_i "r" (v "u1" %% i 10000)
            ]
            @ key_stmts
            @ [ let_i "t0" now;
                let_i "rr" (i 0);
                if_ (v "r" <% i tr)
                  [ set "rr" (table.t_get (v "key"));
                    when_ (v "rr" <% i 0) [ set "ne" (v "ne" +% i 1) ];
                    set "ng" (v "ng" +% i 1)
                  ]
                  [ if_ (v "r" <% i tu)
                      [ set "rr" (table.t_put (v "key"));
                        set "np" (v "np" +% i 1)
                      ]
                      [ if_ (v "r" <% i td)
                          [ set "rr" (table.t_del (v "key"));
                            set "nd" (v "nd" +% i 1)
                          ]
                          [ set "rr" (table.t_scan (v "key"));
                            set "ne" (v "ne" +% v "rr");
                            set "ns" (v "ns" +% i 1)
                          ]
                      ]
                  ];
                let_i "dt" (now -% v "t0");
                set "lsum" (v "lsum" +% v "dt");
                when_ (v "dt" >% v "lmax") [ set "lmax" (v "dt") ];
                let_i "tb" (v "dt" >>% i 7);
                let_i "bj" (i 0);
                while_ ((v "tb" >% i 0) &% (v "bj" <% i (nb_lat - 1)))
                  [ set "tb" (v "tb" >>% i 1);
                    set "bj" (v "bj" +% i 1)
                  ];
                sti (v "hb") (v "bj") (ldi (v "hb") (v "bj") +% i 1)
              ])
         ;
         set_fld_i (v "sb") off_tend now;
         set_fld_i (v "sb") off_ops (v "opsn");
         set_fld_i (v "sb") off_get (v "ng");
         set_fld_i (v "sb") off_put (v "np");
         set_fld_i (v "sb") off_del (v "nd");
         set_fld_i (v "sb") off_scan (v "ns");
         set_fld_i (v "sb") off_err (v "ne");
         set_fld_i (v "sb") off_lsum (v "lsum");
         set_fld_i (v "sb") off_lmax (v "lmax");
         for_ "j" (i 0) (i nb_lat)
           [ sti (v "sb" +% i off_hist) (v "j") (ldi (v "hb") (v "j")) ];
         barrier
       ]
       @ [ when_ (Pid ==% i 0)
             ([ print_int (i magic);
                print_int Nprocs;
                print_int (i s.nkeys)
              ]
              @ print_total off_ops @ print_total off_load
              @ print_total off_get @ print_total off_put
              @ print_total off_del @ print_total off_scan
              @ print_total off_err @ print_total off_lsum
              @ print_max off_lmax
              @ List.concat
                  (List.init nb_lat (fun j ->
                     print_total (off_hist + (8 * j))))
              @ [ for_ "p" (i 0) Nprocs
                    [ let_i "pb" (g "wl_stats" +% (v "p" <<% i 8));
                      print_int (fld_i (v "pb") off_ops);
                      print_int (fld_i (v "pb") off_tstart);
                      print_int (fld_i (v "pb") off_tend)
                    ]
                ]
              @ table.t_finish)
         ])
  in
  prog
    ~globals:([ ("wl_stats", I) ] @ ztab_global @ table.t_globals)
    [ appinit; work ] |> fun p ->
  { p with procs = p.procs @ table.t_procs }

(* ------------------------------------------------------------------ *)
(* OCaml mirror of the run-phase driver                                *)
(* ------------------------------------------------------------------ *)

type op = Get of int | Put of int | Del of int | Scan of int

let plan s ~nprocs =
  let tr, tu, td, _ =
    let r, u, d, sc = shares s.mix in
    (r, r + u, r + u + d, sc)
  in
  let ztab =
    match s.dist with
    | Uniform -> None
    | Zipfian theta ->
      Some (Keygen.quantile_table ~n:s.nkeys ~theta ~quanta:s.quanta)
  in
  let opsn = s.ops / nprocs in
  Array.init nprocs (fun p ->
    let sd = ref (s.seed + ((p + 1) * seed_gamma)) in
    let advance () = sd := (!sd * lcg_m) + lcg_a in
    let draw () =
      advance ();
      !sd lsr 12
    in
    advance ();
    advance ();
    Array.init opsn (fun _ ->
      let u1 = draw () in
      let u2 = draw () in
      let u3 = draw () in
      let r = u1 mod 10000 in
      let key =
        match ztab with
        | None -> u2 mod s.nkeys
        | Some tab ->
          let q = u2 mod s.quanta in
          let klo = tab.(q) in
          let kw = tab.(q + 1) - klo in
          let k = if kw > 1 then klo + (u3 mod kw) else klo in
          if k >= s.nkeys then s.nkeys - 1 else k
      in
      let key =
        if s.disjoint then begin
          let k = key - (key mod nprocs) + p in
          if k >= s.nkeys then k - nprocs else k
        end
        else key
      in
      if r < tr then Get key
      else if r < tu then Put key
      else if r < td then Del key
      else Scan key))

let plan_counts plans =
  let g = ref 0 and p = ref 0 and d = ref 0 and s = ref 0 in
  Array.iter
    (Array.iter (function
      | Get _ -> incr g
      | Put _ -> incr p
      | Del _ -> incr d
      | Scan _ -> incr s))
    plans;
  (!g, !p, !d, !s)
