(* Protocol message types (Sections 2.1 and 4 of the paper).

   Three request kinds (read, read-exclusive, upgrade), forwarded
   requests and replies with piggybacked invalidation-ack counts, and
   message-based synchronization.  The variants are transparent: both
   the pure transition core and the runtime interpreter pattern-match
   on them. *)

type coherence =
  | Read_req (* requester -> home *)
  | Readex_req
  | Upgrade_req
  | Fwd_read of { requester : int } (* home -> owner *)
  | Fwd_readex of { requester : int; acks : int }
  | Data_reply of { data : int array; exclusive : bool; acks : int }
    (* owner/home -> requester; [data] holds the block's longwords *)
  | Upgrade_ack of { acks : int } (* home -> requester *)
  | Inv of { requester : int }
    (* home -> sharer; [addr] names the block; ack goes to [requester] *)
  | Inv_ack (* sharer -> requester *)

type sync =
  | Lock_req
  | Lock_grant
  | Unlock_msg
  | Barrier_arrive
  | Barrier_release
  | Flag_set_msg
  | Flag_wait_req
  | Flag_wake

type kind = Coh of coherence | Sync of sync

type t = {
  src : int;
  addr : int; (* block base address, or lock/barrier/flag id for Sync *)
  kind : kind;
}

(* Payload size in longwords, used by the network cost model. *)
val payload_longs : t -> int

(* Short, stable kind name — the label typed observability events and
   trace tracks carry. *)
val kind_name : t -> string

val describe_into : Buffer.t -> t -> unit
(** Append the display form, e.g. ["[0] data_reply(excl,a1,4B) @0x2000"]
    (a data reply shows its size, not its payload). *)

val describe : t -> string
(** [describe_into] into a fresh string. *)
