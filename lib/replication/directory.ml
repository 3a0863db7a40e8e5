type member_info = {
  mi_role : Proto.Types.role;
  mi_notify : bool;
  mi_server : Smsg.server_id;
}

(* A member's slot in [e_table]. [s_member] is the record [members] lists,
   built once per join rather than once per list. *)
type slot = { s_member : Proto.Types.member; s_info : member_info }

(* The dead slot, compared physically by the table. *)
let dead =
  {
    s_member = { member = ""; role = Proto.Types.Observer };
    s_info = { mi_role = Proto.Types.Observer; mi_notify = false; mi_server = "" };
  }

type entry = {
  e_group : Proto.Types.group_id;
  e_persistent : bool;
  mutable e_next_seqno : int;
  e_table : slot Corona.Slot_table.t; (* members, join order *)
  e_at : (Smsg.server_id, int ref) Hashtbl.t;
      (* members served by each server, only servers with at least one *)
  mutable e_holders : Smsg.server_id list; (* first = oldest *)
  mutable e_replicas : Smsg.server_id list;
      (* holders + servers with members, sorted; recomputed only when one of
         those two sets changes, so [replicas_of] — read once per sequenced
         fan-out — is a field read, not a sort/append (R8). *)
  e_locks : Corona.Locks.t;
}

type t = {
  entries : (Proto.Types.group_id, entry) Hashtbl.t;
  lock_table : Proto.Types.group_id -> Corona.Locks.event -> unit;
}

let create ~lock_table = { entries = Hashtbl.create 16; lock_table }

let find t group = Hashtbl.find_opt t.entries group

let group e = e.e_group

let persistent e = e.e_persistent

let next_seqno e = e.e_next_seqno

let holders e = e.e_holders

let members e = Corona.Slot_table.fold_live e.e_table (fun s l -> s.s_member :: l) []

let member_info e m =
  let s = Corona.Slot_table.get e.e_table m in
  if s == dead then None else Some s.s_info

let locks e = e.e_locks

(* Mutation-time only, and only when the holder set or the set of servers
   with members changed: never on the per-broadcast fan-out path. *)
let recompute_replicas e =
  e.e_replicas <-
    List.sort_uniq String.compare (Hashtbl.fold (fun s _ acc -> s :: acc) e.e_at e.e_holders)

let replicas_of e = e.e_replicas

(* [count_in] / [count_out] keep [e_at]; each returns [true] when the
   server gained its first member or lost its last. *)
let count_in e server =
  match Hashtbl.find_opt e.e_at server with
  | Some n ->
      incr n;
      false
  | None ->
      Hashtbl.replace e.e_at server (ref 1);
      true

let count_out e server =
  match Hashtbl.find_opt e.e_at server with
  | Some n when !n > 1 ->
      decr n;
      false
  | Some _ | None ->
      Hashtbl.remove e.e_at server;
      true

(* Record (or re-record) a member at [server]; [true] when the set of
   servers with members changed. A rejoin keeps the member's slot. *)
let record e (m : Proto.Types.member) ~notify ~server =
  let info = { mi_role = m.role; mi_notify = notify; mi_server = server } in
  match Corona.Slot_table.set e.e_table { s_member = m; s_info = info } with
  | None -> count_in e server
  | Some old when String.equal old.s_info.mi_server server -> false
  | Some old ->
      let emptied = count_out e old.s_info.mi_server in
      count_in e server || emptied

let add_group t ~group ~persistent ~first_holder =
  if Hashtbl.mem t.entries group then `Exists
  else begin
    let e =
      {
        e_group = group;
        e_persistent = persistent;
        e_next_seqno = 0;
        e_table = Corona.Slot_table.create ~size:8 ~dead ~key:(fun s -> s.s_member.member);
        e_at = Hashtbl.create 8;
        e_holders = [ first_holder ];
        e_replicas = [ first_holder ];
        e_locks = Corona.Locks.create ~on_event:(t.lock_table group);
      }
    in
    Hashtbl.replace t.entries group e;
    `Ok e
  end

let remove_group t group = Hashtbl.remove t.entries group

let join t ~group ~member ~role ~notify ~server =
  match find t group with
  | None -> `No_group
  | Some e ->
      let moved = record e { member; role } ~notify ~server in
      if List.mem server e.e_holders then begin
        if moved then recompute_replicas e;
        `Ok (e, None)
      end
      else begin
        let source = match e.e_holders with h :: _ -> Some h | [] -> None in
        e.e_holders <- e.e_holders @ [ server ];
        recompute_replicas e;
        `Ok (e, source)
      end

let leave t ~group ~member =
  match find t group with
  | None -> `No_group
  | Some e -> (
      match Corona.Slot_table.remove e.e_table member with
      | None -> `Not_member
      | Some old ->
          if count_out e old.s_info.mi_server then recompute_replicas e;
          `Ok e)

let sequence e =
  let n = e.e_next_seqno in
  e.e_next_seqno <- n + 1;
  n

let bump_seqno e n = if n > e.e_next_seqno then e.e_next_seqno <- n

let add_holder e server =
  if not (List.mem server e.e_holders) then begin
    e.e_holders <- e.e_holders @ [ server ];
    recompute_replicas e
  end

let remove_server t server =
  let lost_members = ref [] in
  let need_copy = ref [] in
  Hashtbl.iter
    (fun group e ->
      let served_here = Hashtbl.mem e.e_at server in
      if served_here then begin
        let members_here =
          Corona.Slot_table.fold_unordered e.e_table
            (fun s acc ->
              if String.equal s.s_info.mi_server server then s.s_member.member :: acc else acc)
            []
        in
        List.iter (fun m -> ignore (Corona.Slot_table.remove e.e_table m)) members_here;
        Hashtbl.remove e.e_at server;
        lost_members := (group, List.rev members_here) :: !lost_members
      end;
      let held_here = List.mem server e.e_holders in
      if held_here then begin
        e.e_holders <- List.filter (fun s -> not (String.equal s server)) e.e_holders;
        if List.length e.e_holders < 2 then
          need_copy :=
            (group, (match e.e_holders with h :: _ -> Some h | [] -> None))
            :: !need_copy
      end;
      if served_here || held_here then recompute_replicas e)
    t.entries;
  (List.rev !lost_members, List.rev !need_copy)

let rebuild t reports =
  List.iter
    (fun (server, (r : Smsg.dir_report)) ->
      let e =
        match find t r.dr_group with
        | Some e -> e
        | None -> (
            match
              add_group t ~group:r.dr_group ~persistent:r.dr_persistent
                ~first_holder:server
            with
            | `Ok e -> e
            | `Exists -> Option.get (find t r.dr_group))
      in
      bump_seqno e r.dr_next_seqno;
      add_holder e server;
      let moved =
        List.fold_left
          (fun moved (m, notify) -> record e m ~notify ~server || moved)
          false r.dr_members
      in
      if moved then recompute_replicas e)
    reports
