(* Frozen executable: label and call targets resolved to indices so the
   interpreter's hot loop never touches a hash table, each instruction's
   timing decoded once for the pipeline model, plus text-layout byte
   offsets for the I-cache model. *)

open Shasta_isa
open Shasta_machine

type fproc = {
  fname : string;
  code : Insn.t array;
  timing : int array; (* [Pipeline.decode] of each instruction *)
  target : int array;
      (* branch target index; for a [Call_store_miss] that does not
         perform its store, the index of the store it guards; else -1 *)
  callee : int array; (* callee procedure index for Jsr, or -1 *)
  offset : int array; (* byte offset of each instruction in the text *)
  base : int; (* text base address of this procedure *)
  src : string array;
      (* source location ("proc:stmt") of each instruction, rebuilt from
         the compiler's zero-byte "$src:" marker labels; "" before the
         first marker (prologue) or in hand-written code *)
}

type t = {
  fprocs : fproc array;
  index : (string, int) Hashtbl.t;
}

(* The store a non-scheduled store check guards: the first instruction
   after the check that is not a label, if it is a store; else -1. *)
let rec guarded_store (code : Insn.t array) i =
  if i >= Array.length code then -1
  else
    match code.(i) with
    | Lab _ -> guarded_store code (i + 1)
    | Stl _ | Stq _ | Stt _ -> i
    | _ -> -1

let freeze ~pipe (prog : Program.t) =
  ignore (Program.validate prog);
  let index = Hashtbl.create 16 in
  List.iteri (fun i (p : Program.proc) -> Hashtbl.add index p.pname i)
    prog.procs;
  let next_base = ref Shasta.Layout.text_base in
  let fprocs =
    List.map
      (fun (p : Program.proc) ->
        let code = Array.of_list p.body in
        let labels = Hashtbl.create 16 in
        Array.iteri
          (fun i insn ->
            match insn with
            | Insn.Lab l -> Hashtbl.replace labels l i
            | _ -> ())
          code;
        let n = Array.length code in
        let target = Array.make n (-1) in
        let callee = Array.make n (-1) in
        let offset = Array.make n 0 in
        let src = Array.make n "" in
        let base = !next_base in
        let off = ref 0 in
        let cur_src = ref "" in
        Array.iteri
          (fun i insn ->
            offset.(i) <- !off;
            off := !off + Insn.bytes insn;
            (* instructions inherit the latest source marker: checks
               inserted for a statement's accesses sit between its
               marker and the next one *)
            (match insn with
             | Insn.Lab l ->
               (match Program.src_of_label l with
                | Some s -> cur_src := s
                | None -> ())
             | _ -> ());
            src.(i) <- !cur_src;
            (match Insn.branch_targets insn with
             | [ l ] -> target.(i) <- Hashtbl.find labels l
             | _ -> ());
            match insn with
            | Insn.Jsr callee_name ->
              callee.(i) <- Hashtbl.find index callee_name
            | Insn.Call_store_miss { store_done = false; _ } ->
              target.(i) <- guarded_store code (i + 1)
            | _ -> ())
          code;
        next_base := (base + !off + 63) land lnot 63;
        { fname = p.pname; code;
          timing = Array.map (Pipeline.decode pipe) code;
          target; callee; offset; base; src })
      prog.procs
    |> Array.of_list
  in
  { fprocs; index }

let proc_index t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> invalid_arg ("Image.proc_index: unknown procedure " ^ name)

let nprocs t = Array.length t.fprocs

(* --- site naming (for the profiler's reports) ----------------------- *)

let proc_name t p =
  if p >= 0 && p < Array.length t.fprocs then t.fprocs.(p).fname else "?"

(* "proc:stmt" when the compiler planted markers, "proc+idx" otherwise
   (hand-assembled executables have no source table). *)
let site_name t ~proc ~pc =
  if proc < 0 || proc >= Array.length t.fprocs then
    Printf.sprintf "?%d+%d" proc pc
  else
    let fp = t.fprocs.(proc) in
    if pc < 0 || pc >= Array.length fp.code then fp.fname
    else
      match fp.src.(pc) with
      | "" -> Printf.sprintf "%s+%d" fp.fname pc
      | s -> s
