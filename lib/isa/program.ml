(* Executable representation: a set of named procedures, each a flat
   instruction list with embedded labels, exactly the view a binary
   rewriter such as ATOM has of a linked program.  The instrumenter
   transforms these lists; the interpreter later freezes them to arrays
   with resolved label indices. *)

type proc = { pname : string; body : Insn.t list }

type t = { procs : proc list; entry : string }

let proc_exn t name =
  match List.find_opt (fun p -> p.pname = name) t.procs with
  | Some p -> p
  | None -> invalid_arg ("Program.proc_exn: unknown procedure " ^ name)

let entry_proc t = proc_exn t t.entry

(* Map a transformation over every procedure body. *)
let map_procs f t =
  { t with procs = List.map (fun p -> { p with body = f p }) t.procs }

(* --- source-location markers ---------------------------------------- *)

(* Zero-byte labels the MiniC compiler plants in front of every
   statement: "$src:<proc>:<n>".  They survive instrumentation like any
   other label (checks are inserted around them, never into them), are
   never branch targets, and let [Image.freeze] rebuild a statement
   table over the rewritten code so profiler sites render as fn:line. *)

let src_prefix = "$src:"

let src_marker ~pname n = Printf.sprintf "%s%s:%d" src_prefix pname n

let src_of_label l =
  let pl = String.length src_prefix in
  if String.length l > pl && String.sub l 0 pl = src_prefix then
    Some (String.sub l pl (String.length l - pl))
  else None

let text_bytes_proc p =
  List.fold_left (fun a i -> a + Insn.bytes i) 0 p.body

let text_bytes t =
  List.fold_left (fun a p -> a + text_bytes_proc p) 0 t.procs

(* Assign a text address to every procedure, starting at [base].
   Returns an association list proc-name -> start address. *)
let layout_text ~base t =
  let _, acc =
    List.fold_left
      (fun (addr, acc) p ->
        let next = addr + text_bytes_proc p in
        (* round each procedure start to a 64-byte boundary *)
        let next = (next + 63) land lnot 63 in
        (next, (p.pname, addr) :: acc))
      (base, []) t.procs
  in
  List.rev acc

(* Counts used by the instrumentation statistics (Table 3). *)
type counts = { loads : int; stores : int; insns : int }

let count_accesses t =
  List.fold_left
    (fun c p ->
      List.fold_left
        (fun c i ->
          { loads = (c.loads + if Insn.is_load i then 1 else 0);
            stores = (c.stores + if Insn.is_store i then 1 else 0);
            insns = (c.insns + if Insn.bytes i > 0 then 1 else 0) })
        c p.body)
    { loads = 0; stores = 0; insns = 0 }
    t.procs

(* Verify structural sanity: labels unique within a procedure, every
   branch target defined in the same procedure, every Jsr target a known
   procedure.  Returns each procedure's label table (label -> index of
   the label in its body), in [procs] order.  Raises [Invalid_argument]
   describing the first problem. *)
let label_tables t =
  let proc_names = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace proc_names p.pname ()) t.procs;
  if not (Hashtbl.mem proc_names t.entry) then
    invalid_arg ("Program.validate: missing entry " ^ t.entry);
  List.map
    (fun p ->
      let nlabels =
        List.fold_left
          (fun n i -> match i with Insn.Lab _ -> n + 1 | _ -> n)
          0 p.body
      in
      let labels = Hashtbl.create nlabels in
      List.iteri
        (fun k i ->
          match i with
          | Insn.Lab l ->
            if Hashtbl.mem labels l then
              invalid_arg
                (Printf.sprintf "Program.validate: duplicate label %s in %s" l
                   p.pname);
            Hashtbl.add labels l k
          | _ -> ())
        p.body;
      let defined l =
        if not (Hashtbl.mem labels l) then
          invalid_arg
            (Printf.sprintf "Program.validate: undefined label %s in %s" l
               p.pname)
      in
      List.iter
        (fun i ->
          List.iter defined (Insn.branch_targets i);
          match i with
          | Insn.Jsr callee ->
            if not (Hashtbl.mem proc_names callee) then
              invalid_arg
                (Printf.sprintf
                   "Program.validate: call to unknown procedure %s from %s"
                   callee p.pname)
          | _ -> ())
        p.body;
      labels)
    t.procs

let validate t =
  ignore (label_tables t);
  t
