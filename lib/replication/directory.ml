type member_info = {
  mi_role : Proto.Types.role;
  mi_notify : bool;
  mi_server : Smsg.server_id;
}

type entry = {
  e_group : Proto.Types.group_id;
  e_persistent : bool;
  mutable e_next_seqno : int;
  e_members : (Proto.Types.member_id, member_info) Hashtbl.t;
  mutable e_order : Proto.Types.member_id list; (* join order *)
  mutable e_holders : Smsg.server_id list; (* first = oldest *)
  mutable e_replicas : Smsg.server_id list;
      (* holders + servers with members, sorted; maintained eagerly at every
         membership/holder mutation so [replicas_of] — read once per
         sequenced fan-out — is a field read, not a sort/append (R8). *)
  e_locks : Corona.Locks.t;
}

type t = {
  entries : (Proto.Types.group_id, entry) Hashtbl.t;
  lock_table : Proto.Types.group_id -> Corona.Locks.event -> unit;
}

let create ~lock_table = { entries = Hashtbl.create 16; lock_table }

let group_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.entries [] |> List.sort String.compare

let find t group = Hashtbl.find_opt t.entries group

let group e = e.e_group

let persistent e = e.e_persistent

let next_seqno e = e.e_next_seqno

let holders e = e.e_holders

let members e =
  List.filter_map
    (fun m ->
      Option.map
        (fun info -> { Proto.Types.member = m; role = info.mi_role })
        (Hashtbl.find_opt e.e_members m))
    e.e_order

let member_info e m = Hashtbl.find_opt e.e_members m

let locks e = e.e_locks

let servers_with_members e =
  Hashtbl.fold
    (fun _ info acc -> if List.mem info.mi_server acc then acc else info.mi_server :: acc)
    e.e_members []
  |> List.sort String.compare

(* Mutation-time only: every caller runs on a membership/holder change
   (join, leave, failover), never on the per-broadcast fan-out path. *)
let recompute_replicas e =
  e.e_replicas <- List.sort_uniq String.compare (e.e_holders @ servers_with_members e)

let replicas_of e = e.e_replicas

let add_group t ~group ~persistent ~first_holder =
  if Hashtbl.mem t.entries group then `Exists
  else begin
    let e =
      {
        e_group = group;
        e_persistent = persistent;
        e_next_seqno = 0;
        e_members = Hashtbl.create 8;
        e_order = [];
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
      if not (Hashtbl.mem e.e_members member) then e.e_order <- e.e_order @ [ member ];
      Hashtbl.replace e.e_members member
        { mi_role = role; mi_notify = notify; mi_server = server };
      if List.mem server e.e_holders then begin
        recompute_replicas e;
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
  | Some e ->
      if not (Hashtbl.mem e.e_members member) then `Not_member
      else begin
        Hashtbl.remove e.e_members member;
        e.e_order <- List.filter (fun m -> m <> member) e.e_order;
        recompute_replicas e;
        `Ok e
      end

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
      let members_here =
        Hashtbl.fold
          (fun m info acc -> if info.mi_server = server then m :: acc else acc)
          e.e_members []
      in
      List.iter (fun m -> Hashtbl.remove e.e_members m) members_here;
      e.e_order <- List.filter (fun m -> not (List.mem m members_here)) e.e_order;
      if members_here <> [] then lost_members := (group, List.rev members_here) :: !lost_members;
      if List.mem server e.e_holders then begin
        e.e_holders <- List.filter (fun s -> s <> server) e.e_holders;
        if List.length e.e_holders < 2 then
          need_copy :=
            (group, (match e.e_holders with h :: _ -> Some h | [] -> None))
            :: !need_copy
      end;
      recompute_replicas e)
    t.entries;
  (List.rev !lost_members, List.rev !need_copy)

let notify_targets e =
  List.filter_map
    (fun m ->
      match Hashtbl.find_opt e.e_members m with
      | Some info when info.mi_notify -> Some (m, info.mi_server)
      | Some _ | None -> None)
    e.e_order

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
      List.iter
        (fun ((m : Proto.Types.member), notify) ->
          if not (Hashtbl.mem e.e_members m.member) then
            e.e_order <- e.e_order @ [ m.member ];
          Hashtbl.replace e.e_members m.member
            { mi_role = m.role; mi_notify = notify; mi_server = server })
        r.dr_members;
      recompute_replicas e)
    reports
