(* Protocol message types (Sections 2.1 and 4 of the paper).

   Design points carried over from the paper:
   - three request types: read, read-exclusive and exclusive (upgrade);
   - all directory state changes complete when a request first reaches
     the home, so there are no confirmation messages back to the home;
   - the number of invalidation acknowledgements a requester should
     expect is piggybacked on the data/upgrade reply rather than sent
     separately, and sharers acknowledge directly to the requester;
   - synchronization (locks, barriers, event flags) is message-based. *)

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

(* Payload size in longwords, used by the network cost model.  Control
   messages are small; data replies carry the block. *)
let payload_longs m =
  match m.kind with
  | Coh (Data_reply { data; _ }) -> 4 + Array.length data
  | _ -> 4

(* Short, stable kind name — the label typed observability events and
   trace tracks carry. *)
let kind_name m =
  match m.kind with
  | Coh Read_req -> "read_req"
  | Coh Readex_req -> "readex_req"
  | Coh Upgrade_req -> "upgrade_req"
  | Coh (Fwd_read _) -> "fwd_read"
  | Coh (Fwd_readex _) -> "fwd_readex"
  | Coh (Data_reply _) -> "data_reply"
  | Coh (Upgrade_ack _) -> "upgrade_ack"
  | Coh (Inv _) -> "inv"
  | Coh Inv_ack -> "inv_ack"
  | Sync Lock_req -> "lock_req"
  | Sync Lock_grant -> "lock_grant"
  | Sync Unlock_msg -> "unlock"
  | Sync Barrier_arrive -> "barrier_arrive"
  | Sync Barrier_release -> "barrier_release"
  | Sync Flag_set_msg -> "flag_set"
  | Sync Flag_wait_req -> "flag_wait"
  | Sync Flag_wake -> "flag_wake"

(* Display form, e.g. ["[0] data_reply(excl,a1,4B) @0x2000"]: counterexample
   traces and the model checker's visited-set keys. *)
let describe_into b m =
  Buffer.add_char b '[';
  Keybuf.add_int b m.src;
  Buffer.add_string b "] ";
  (match m.kind with
   | Coh (Fwd_read { requester }) ->
     Buffer.add_string b "fwd_read(r";
     Keybuf.add_int b requester;
     Buffer.add_char b ')'
   | Coh (Fwd_readex { requester; acks }) ->
     Buffer.add_string b "fwd_readex(r";
     Keybuf.add_int b requester;
     Buffer.add_string b ",a";
     Keybuf.add_int b acks;
     Buffer.add_char b ')'
   | Coh (Data_reply { exclusive; acks; data }) ->
     Buffer.add_string b
       (if exclusive then "data_reply(excl,a" else "data_reply(shared,a");
     Keybuf.add_int b acks;
     Buffer.add_char b ',';
     Keybuf.add_int b (4 * Array.length data);
     Buffer.add_string b "B)"
   | Coh (Upgrade_ack { acks }) ->
     Buffer.add_string b "upgrade_ack(a";
     Keybuf.add_int b acks;
     Buffer.add_char b ')'
   | Coh (Inv { requester }) ->
     Buffer.add_string b "inv(ack->";
     Keybuf.add_int b requester;
     Buffer.add_char b ')'
   | _ -> Buffer.add_string b (kind_name m));
  Buffer.add_string b " @0x";
  Keybuf.add_hex b m.addr

let describe m =
  let b = Buffer.create 48 in
  describe_into b m;
  Buffer.contents b
