(* json_check FILE: exit 0 when FILE holds exactly one JSON value
   (RFC 8259), else print the byte offset of the first error and exit 1.
   A recognizer only: it builds nothing, so it checks a large Chrome
   trace in one pass. *)

exception Bad of int * string

let check s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  (* the byte at the cursor; NUL past the end, which no rule accepts *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then begin incr pos; digits () end;
    match peek () with
    | 'e' | 'E' ->
      incr pos;
      (match peek () with '+' | '-' -> incr pos | _ -> ());
      digits ()
    | _ -> ()
  in
  let hex () =
    match peek () with
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> incr pos
    | _ -> fail "expected a hex digit"
  in
  let rec chars () =
    if !pos >= n then fail "unterminated string";
    match s.[!pos] with
    | '"' -> incr pos
    | '\\' ->
      incr pos;
      (match peek () with
       | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> incr pos
       | 'u' -> incr pos; hex (); hex (); hex (); hex ()
       | _ -> fail "bad escape");
      chars ()
    | c when Char.code c < 0x20 -> fail "control character in a string"
    | _ -> incr pos; chars ()
  in
  let string () = expect '"'; chars () in
  let rec value () =
    ws ();
    (match peek () with
     | '{' -> incr pos; ws (); if peek () = '}' then incr pos else members ()
     | '[' -> incr pos; ws (); if peek () = ']' then incr pos else elements ()
     | '"' -> string ()
     | 't' -> String.iter expect "true"
     | 'f' -> String.iter expect "false"
     | 'n' -> String.iter expect "null"
     | '-' | '0' .. '9' -> number ()
     | _ -> fail "expected a value");
    ws ()
  and members () =
    ws (); string (); ws (); expect ':'; value ();
    match peek () with
    | ',' -> incr pos; members ()
    | '}' -> incr pos
    | _ -> fail "expected ',' or '}'"
  and elements () =
    value ();
    match peek () with
    | ',' -> incr pos; elements ()
    | ']' -> incr pos
    | _ -> fail "expected ',' or ']'"
  in
  value ();
  if !pos < n then fail "data after the value"

let () =
  match Sys.argv with
  | [| _; file |] -> (
    match check (In_channel.with_open_bin file In_channel.input_all) with
    | () -> ()
    | exception Bad (at, msg) ->
      Printf.eprintf "%s: byte %d: %s\n" file at msg;
      exit 1)
  | _ ->
    prerr_endline "usage: json_check FILE";
    exit 2
