(* Versioned BENCH_*.json records: one schema for every benchmark
   artifact in the tree.

   A BENCH file is JSON Lines — one record per line, append-friendly so
   each bench section can add its rows as it finishes.  Every record
   carries the schema version, the identifying key (workload, nprocs,
   line, opts) and the simulated metrics of the run (sim_cycles,
   messages, misses, plus workload-specific [extra] fields such as the
   KV latency percentiles).  A record is a pure function of the
   simulated run, so two runs of the same configuration emit
   byte-identical lines and [gate] compares every metric exactly.  Host
   timings live in the perfbench suite, not here.

   Emit and parse live together here so that one module defines the
   wire format: the KV --bench-out writer, the bench harness --json-out
   emitter, the regression gate and the tests all go through it.  The
   parser reads exactly what [emit] writes — one flat JSON object whose
   values are strings or numbers — with no external JSON dependency. *)

type num = Int of int | Float of float

type t = {
  schema : int;
  workload : string;
  nprocs : int;
  line : int;  (* coherence line size in bytes *)
  opts : string;  (* instrumentation option set, e.g. "full" *)
  sim_cycles : int;
  messages : int;
  misses : int;
  extra : (string * num) list;
      (* workload-specific simulated metrics (KV percentiles, op and
         error counts, ...) — gated with exact equality like the fixed
         simulated fields *)
}

let schema_version = 2

let make ~workload ~nprocs ?(line = 64) ?(opts = "full") ~sim_cycles
    ?(messages = 0) ?(misses = 0) ?(extra = []) () =
  { schema = schema_version; workload; nprocs; line; opts; sim_cycles;
    messages; misses; extra }

(* The identifying key: records in a baseline and a candidate file are
   matched on it. *)
let key r = (r.workload, r.nprocs, r.line, r.opts)

let key_str r = Printf.sprintf "%s p=%d line=%d %s" r.workload r.nprocs r.line r.opts

(* ------------------------------------------------------------------ *)
(* Emit                                                                *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shortest decimal rendering that round-trips the float exactly, so
   emit/parse is lossless and two emissions of the same value are
   byte-identical. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let num_str = function Int i -> string_of_int i | Float f -> float_str f

(* One record as a single JSON object line.  Keys are emitted as
   ["key": value] (space after the colon) — CI greps such as
   '"errors": 0' key on that shape. *)
let emit r =
  let b = Buffer.create 256 in
  let first = ref true in
  let field k v =
    if !first then first := false else Buffer.add_string b ", ";
    Buffer.add_string b (Printf.sprintf "\"%s\": %s" (escape k) v)
  in
  Buffer.add_char b '{';
  field "schema" (string_of_int r.schema);
  field "workload" (Printf.sprintf "\"%s\"" (escape r.workload));
  field "nprocs" (string_of_int r.nprocs);
  field "line" (string_of_int r.line);
  field "opts" (Printf.sprintf "\"%s\"" (escape r.opts));
  field "sim_cycles" (string_of_int r.sim_cycles);
  field "messages" (string_of_int r.messages);
  field "misses" (string_of_int r.misses);
  List.iter (fun (k, v) -> field k (num_str v)) r.extra;
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

(* A record line is one flat JSON object; each value is a string or a
   number.  Nested objects, arrays and literals are malformed. *)
type value = Str of string | Num of num

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let to_int name = function
  | Num (Int i) -> i
  | Num (Float f) when Float.is_integer f -> int_of_float f
  | _ -> malformed "field %s: expected an integer" name

(* The version is checked as soon as it is read (emit writes it first),
   so a stale line reports its schema rather than whatever older shape
   follows it. *)
let check_schema v =
  let schema = to_int "schema" v in
  if schema <> schema_version then
    malformed
      "schema %d is not the supported schema %d; regenerate the file with \
       bench --json-out"
      schema schema_version

let parse_object s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> malformed "expected '%c', found '%c' at %d" c c' !pos
    | None -> malformed "expected '%c', found end of input" c
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> malformed "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some 'n' -> Buffer.add_char buf '\n'
         | Some 't' -> Buffer.add_char buf '\t'
         | Some 'r' -> Buffer.add_char buf '\r'
         | Some 'b' -> Buffer.add_char buf '\b'
         | Some 'f' -> Buffer.add_char buf '\012'
         | Some 'u' ->
           if !pos + 4 >= n then malformed "truncated \\u escape";
           let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
           pos := !pos + 4;
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else Buffer.add_char buf '?'
         | Some c -> Buffer.add_char buf c
         | None -> malformed "truncated escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let raw = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') raw then
      match float_of_string_opt raw with
      | Some f -> Float f
      | None -> malformed "bad number %S" raw
    else
      match int_of_string_opt raw with
      | Some i -> Int i
      | None -> (
        (* an integer literal too large for an OCaml int *)
        match float_of_string_opt raw with
        | Some f -> Float f
        | None -> malformed "bad number %S" raw)
  in
  let parse_value k =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c ->
      malformed "field %s: expected a string or a number, found '%c'" k c
    | None -> malformed "field %s: no value" k
  in
  skip_ws ();
  expect '{';
  skip_ws ();
  let fields = ref [] in
  if peek () = Some '}' then advance ()
  else begin
    let rec members () =
      skip_ws ();
      let k = parse_string () in
      skip_ws ();
      expect ':';
      let v = parse_value k in
      if k = "schema" then check_schema v;
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        members ()
      | Some '}' -> advance ()
      | _ -> malformed "expected ',' or '}' at %d" !pos
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then malformed "trailing input at %d" !pos;
  List.rev !fields

let to_str name = function
  | Str s -> s
  | Num _ -> malformed "field %s: expected a string" name

let of_fields fields =
  let find k = List.assoc_opt k fields in
  let int k d = match find k with Some v -> to_int k v | None -> d in
  let str k d = match find k with Some v -> to_str k v | None -> d in
  if find "schema" = None then malformed "record has no \"schema\" field";
  let known =
    [ "schema"; "workload"; "nprocs"; "line"; "opts"; "sim_cycles";
      "messages"; "misses" ]
  in
  let extra =
    List.filter_map
      (fun (k, v) ->
        if List.mem k known then None
        else match v with Num num -> Some (k, num) | Str _ -> None)
      fields
  in
  { schema = schema_version;
    workload = str "workload" "";
    nprocs = int "nprocs" 0;
    line = int "line" 64;
    opts = str "opts" "";
    sim_cycles = int "sim_cycles" 0;
    messages = int "messages" 0;
    misses = int "misses" 0;
    extra }

let parse line =
  try of_fields (parse_object line)
  with Malformed m -> failwith ("Benchjson.parse: " ^ m)

(* A whole BENCH file: JSON Lines, blank lines ignored.  A malformed
   line fails with its 1-based line number. *)
let load_string contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")
  |> List.map (fun (n, l) ->
    try of_fields (parse_object l)
    with Malformed m -> failwith (Printf.sprintf "line %d: %s" n m))

let load_file path =
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try In_channel.input_all ic
        with Sys_error m -> raise (Sys_error (path ^ ": " ^ m)))
  in
  try load_string contents
  with Failure m -> failwith (Printf.sprintf "%s: %s" path m)

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Every metric in a record comes from a deterministic simulator, so
   the only acceptable delta is zero. *)

type status = Ok | Regression | Missing | New

type check = {
  c_key : string;  (* record key, [key_str] form *)
  c_metric : string;
  c_base : num option;
  c_cand : num option;
  c_ok : bool;
  c_status : status;
  c_note : string;
}

let num_value = function Int i -> float_of_int i | Float f -> f

let metrics r =
  [ ("sim_cycles", Int r.sim_cycles);
    ("messages", Int r.messages);
    ("misses", Int r.misses) ]
  @ r.extra

let check_record (base : t) (cand : t) =
  let k = key_str base in
  let cand_m = metrics cand and base_m = metrics base in
  let compared =
    List.map
      (fun (name, bv) ->
        match List.assoc_opt name cand_m with
        | None ->
          { c_key = k; c_metric = name; c_base = Some bv; c_cand = None;
            c_ok = false; c_status = Missing;
            c_note = "metric missing from candidate" }
        | Some cv ->
          let ok =
            match (bv, cv) with
            | Int b, Int c -> b = c (* a trace hash has 60 bits *)
            | _ -> num_value bv = num_value cv
          in
          { c_key = k; c_metric = name; c_base = Some bv; c_cand = Some cv;
            c_ok = ok;
            c_status = (if ok then Ok else Regression);
            c_note =
              (if ok then "exact" else "simulated metric must match exactly") })
      base_m
  in
  let added =
    List.filter_map
      (fun (name, cv) ->
        if List.mem_assoc name base_m then None
        else
          Some
            { c_key = k; c_metric = name; c_base = None; c_cand = Some cv;
              c_ok = true; c_status = New; c_note = "no baseline value" })
      cand_m
  in
  compared @ added

let gate ~baseline ~candidate =
  let checks =
    List.concat_map
      (fun (b : t) ->
        match List.find_opt (fun c -> key c = key b) candidate with
        | Some c -> check_record b c
        | None ->
          [ { c_key = key_str b; c_metric = "record";
              c_base = Some (Int b.sim_cycles); c_cand = None; c_ok = false;
              c_status = Missing;
              c_note = "record missing from candidate" } ])
      baseline
  in
  let news =
    List.filter_map
      (fun (c : t) ->
        if List.exists (fun b -> key b = key c) baseline then None
        else
          Some
            { c_key = key_str c; c_metric = "record"; c_base = None;
              c_cand = Some (Int c.sim_cycles); c_ok = true; c_status = New;
              c_note = "no baseline record" })
      candidate
  in
  let all = checks @ news in
  (all, List.for_all (fun c -> c.c_ok) all)

let status_str = function
  | Ok -> "ok"
  | Regression -> "REGRESSION"
  | Missing -> "MISSING"
  | New -> "new"
