(* Node-level crash/recovery schedules (shasta_run --node-faults).

   A spec is a deterministic timetable: each entry halts or restarts one
   node at a fixed parallel-phase cycle.  Crashes are crash-stop — the
   victim's program dies and never resumes; a later [recover] only
   rejoins the node to protocol duties (serving directory/home traffic
   again).  Detection is not scheduled here: the cluster derives it from
   the liveness lease horizon ([lease]) over the victim's last observed
   send, so a chatty victim is detected [lease] cycles after its last
   frame, deterministically.

   Spec syntax (comma-separated, like --net-faults):

     crash=NODE@CYCLE     halt NODE at parallel-phase CYCLE (repeatable;
                          NODE may be [*] — pick a victim from [seed])
     recover=NODE@CYCLE   rejoin NODE at CYCLE (protocol duties only)
     lease=CYCLES         liveness lease horizon (default 20000)
     seed=S               victim selection seed for [crash=*@...]

   Retransmission belongs to the wire (--net-faults), which retries a
   dropped frame until a copy survives.
   "none" parses to [None].  A spec with no crash/recover events is
   semantically OFF: the cluster must behave byte-identically to not
   passing --node-faults at all (test_crash compares the two traces). *)

type what =
  | Crash
  | Recover
  | Detect
      (* internal: inserted by the scheduler when a crash fires, at the
         liveness lease expiry over the victim's last observed send;
         never produced by [of_string] *)

type event = { at : int; node : int; what : what }

type t = {
  events : event list; (* sorted by [at], stable *)
  lease : int; (* liveness lease horizon in cycles *)
  seed : int;
}

let default_lease = 20_000

let empty = { events = []; lease = default_lease; seed = 0 }

let is_off t = t.events = []

(* Deterministic victim pick for [crash=*@T]: a tiny splitmix over
   (seed, index) — no global RNG state, so specs replay exactly. *)
let pick_victim ~seed ~index ~nprocs =
  if nprocs <= 1 then 0
  else begin
    let z = ref (seed * 0x9E3779B9 + (index * 0x85EBCA6B)) in
    z := (!z lxor (!z lsr 16)) * 0x045D9F3B;
    z := (!z lxor (!z lsr 16)) * 0x045D9F3B;
    z := !z lxor (!z lsr 16);
    (* never node 0: it hosts the barrier and prints the report, which
       keeps demo runs readable; an explicit [crash=0@T] still works *)
    1 + (abs !z mod (nprocs - 1))
  end

(* [v] parsed as an int, or an error naming the whole entry [kv] *)
let int_of kv v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "node-faults: bad number in %S" kv)

let of_string s : t option =
  match String.lowercase_ascii (String.trim s) with
  | "" | "none" | "off" -> None
  | s ->
    let t = ref empty in
    let wild = ref [] in (* (at, what, index) for crash=*@T entries *)
    let widx = ref 0 in
    let ev what kv v =
      match String.index_opt v '@' with
      | None ->
        invalid_arg
          (Printf.sprintf "node-faults: expected NODE@CYCLE, got %S" v)
      | Some i ->
        let node_s = String.sub v 0 i in
        let at = int_of kv (String.sub v (i + 1) (String.length v - i - 1)) in
        if at < 0 then invalid_arg "node-faults: negative cycle";
        if node_s = "*" then begin
          wild := (at, what, !widx) :: !wild;
          incr widx
        end
        else begin
          let node = int_of kv node_s in
          if node < 0 then invalid_arg "node-faults: negative node";
          t := { !t with events = { at; node; what } :: !t.events }
        end
    in
    String.split_on_char ',' s
    |> List.iter (fun kv ->
      match String.index_opt kv '=' with
      | None -> invalid_arg (Printf.sprintf "node-faults: bad entry %S" kv)
      | Some i ->
        let k = String.trim (String.sub kv 0 i) in
        let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        (match k with
         | "crash" -> ev Crash kv v
         | "recover" -> ev Recover kv v
         | "lease" ->
           let l = int_of kv v in
           if l <= 0 then invalid_arg "node-faults: lease must be positive";
           t := { !t with lease = l }
         | "seed" -> t := { !t with seed = int_of kv v }
         | _ -> invalid_arg (Printf.sprintf "node-faults: unknown key %S" k)));
    (* wildcard victims resolve at [resolve] time (they need nprocs);
       park them as node = -(index+1) *)
    let events =
      !t.events
      @ List.map (fun (at, what, i) -> { at; node = -(i + 1); what }) !wild
    in
    let events = List.stable_sort (fun a b -> compare a.at b.at) events in
    Some { !t with events }

(* Bind wildcard victims to concrete nodes for an [nprocs]-node run. *)
let resolve t ~nprocs =
  { t with
    events =
      List.map
        (fun e ->
          if e.node >= 0 then e
          else
            { e with
              node = pick_victim ~seed:t.seed ~index:(-e.node - 1) ~nprocs })
        t.events }

let describe t =
  if is_off t then "none"
  else
    String.concat ","
      (List.map
         (fun e ->
           Printf.sprintf "%s=%d@%d"
             (match e.what with
              | Crash -> "crash"
              | Recover -> "recover"
              | Detect -> "detect")
             e.node e.at)
         t.events)
    ^ Printf.sprintf ",lease=%d" t.lease
