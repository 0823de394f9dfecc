(** Executable representation: named procedures, each a flat instruction
    list with embedded labels — the view a binary rewriter such as ATOM
    has of a linked program. *)

type proc = { pname : string; body : Insn.t list }
type t = { procs : proc list; entry : string }

val proc_exn : t -> string -> proc
val entry_proc : t -> proc

val map_procs : (proc -> Insn.t list) -> t -> t
(** Rewrite every procedure body (how instrumentation passes apply). *)

val src_marker : pname:string -> int -> string
(** Label text of the [n]-th source-location marker of procedure
    [pname] — a zero-byte [Lab] the MiniC compiler plants before every
    statement so sites survive instrumentation. *)

val src_of_label : string -> string option
(** ["proc:line"] if the label is a source marker, [None] otherwise. *)

val text_bytes_proc : proc -> int
val text_bytes : t -> int

val layout_text : base:int -> t -> (string * int) list
(** Assign 64-byte-aligned text addresses to procedures. *)

type counts = { loads : int; stores : int; insns : int }

val count_accesses : t -> counts

val validate : t -> t
(** Check structural sanity (unique labels, defined branch targets,
    known callees, existing entry); raises [Invalid_argument]. *)

val label_tables : t -> (string, int) Hashtbl.t list
(** [validate]'s checks, returning each procedure's label table (label
    to its index in the body), in [procs] order. *)
