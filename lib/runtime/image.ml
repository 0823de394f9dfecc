(* Frozen executable: every instruction compiled once into an op.

   [freeze] resolves what an instruction needs beyond its own operands
   (a branch's target index, a call's procedure index, the store a
   non-scheduled store check guards) and hands the instruction, its
   [Pipeline.decode]d timing word and that link to a compiler, which
   returns the op the interpreter runs for it.  Identical instructions
   share one op, except branches and store checks that guard a store,
   whose ops depend on where they sit; so an image holds a few thousand
   distinct ops however long its text.  An op reads its instruction's
   text address (for the I-cache model) from the per-procedure [addr]
   array rather than holding it, which is what lets it be shared.

   The image is polymorphic in the op type because ops call into the
   runtime, which holds the image: [State] instantiates it. *)

open Shasta_isa
open Shasta_machine

(* What [freeze] resolves for an instruction beyond its own operands. *)
type link =
  | Plain
  | Target of { target : int; backward : bool }
      (* a branch: its target's index in the procedure, and whether that
         is at or before the branch *)
  | Callee of int (* a call: the callee's procedure index *)
  | Guards of Insn.t
      (* a store check that does not perform its store: the store it
         guards, the first instruction after the check that is not a
         label, if it is a store *)

type 'op fproc = {
  fname : string;
  ops : 'op array;
  addr : int array; (* text address of each instruction *)
  src : string array;
      (* source location ("proc:stmt") of each instruction, rebuilt from
         the compiler's zero-byte "$src:" marker labels; "" before the
         first marker (prologue) or in hand-written code *)
}

type 'op t = {
  fprocs : 'op fproc array;
  index : (string, int) Hashtbl.t;
}

(* The link of a store check that does not perform its store, whose
   body continues with [rest]. *)
let rec guarded_store (rest : Insn.t list) =
  match rest with
  | Lab _ :: rest -> guarded_store rest
  | ((Stl _ | Stq _ | Stt _) as s) :: _ -> Guards s
  | _ -> Plain

(* [compile i w link] builds the op of instruction [i], whose decoded
   timing word is [w]. *)
let freeze ~pipe ~compile (prog : Program.t) =
  let label_tables = Program.label_tables prog in
  let index = Hashtbl.create 16 in
  List.iteri (fun i (p : Program.proc) -> Hashtbl.add index p.pname i)
    prog.procs;
  (* A branch's or a store check's op depends on where it sits, and
     nearly all of them are distinct anyway; every other instruction's
     link follows from the instruction, so identical ones share an op. *)
  let shared = Hashtbl.create 1024 in
  (* A label does nothing.  Its op, which the interpreter allocates once
     statically, is also the initial element of the op arrays: creating
     a large array around a freshly allocated op would force a minor
     collection. *)
  let label = Insn.Lab "" in
  let label_op = compile label (Pipeline.decode pipe label) Plain in
  let op insn link =
    match (insn, link) with
    | Insn.Lab _, _ -> label_op
    | _, (Target _ | Guards _) ->
      compile insn (Pipeline.decode pipe insn) link
    | _, (Plain | Callee _) ->
      (match Hashtbl.find shared insn with
       | o -> o
       | exception Not_found ->
         let o = compile insn (Pipeline.decode pipe insn) link in
         Hashtbl.add shared insn o;
         o)
  in
  let next_base = ref Shasta.Layout.text_base in
  let fprocs =
    List.map2
      (fun (p : Program.proc) labels ->
        let n = List.length p.body in
        let ops = Array.make n label_op in
        let addr = Array.make n 0 in
        let src = Array.make n "" in
        let base = !next_base in
        let rec walk i off cur_src = function
          | [] -> off
          | insn :: rest ->
            addr.(i) <- base + off;
            (* instructions inherit the latest source marker: checks
               inserted for a statement's accesses sit between its marker
               and the next one *)
            let cur_src =
              match insn with
              | Insn.Lab l ->
                Option.value (Program.src_of_label l) ~default:cur_src
              | _ -> cur_src
            in
            src.(i) <- cur_src;
            ops.(i) <-
              op insn
                (match (Insn.branch_targets insn, insn) with
                 | [ l ], _ ->
                   let target = Hashtbl.find labels l in
                   Target { target; backward = target <= i }
                 | _, Jsr callee -> Callee (Hashtbl.find index callee)
                 | _, Call_store_miss { store_done = false; _ } ->
                   guarded_store rest
                 | _ -> Plain);
            walk (i + 1) (off + Insn.bytes insn) cur_src rest
        in
        let bytes = walk 0 0 "" p.body in
        next_base := (base + bytes + 63) land lnot 63;
        { fname = p.pname; ops; addr; src })
      prog.procs label_tables
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
    if pc < 0 || pc >= Array.length fp.ops then fp.fname
    else
      match fp.src.(pc) with
      | "" -> Printf.sprintf "%s+%d" fp.fname pc
      | s -> s
