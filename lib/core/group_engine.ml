(* The client-facing half of a Corona server, shared by the single server
   and the replicated node: which connection serves which member, sending
   replies, fan-out through the relay hub, membership notifications, join
   acceptance from the snapshot cache, and the relay-tier registrations.

   Encode-once invariant: every path that sends one logical message to
   several recipients serializes it exactly once and shares the encoding.
   Control replies ([responses_sent]) are tallied apart from sequenced-update
   deliveries ([deliveries_sent]). *)

module T = Proto.Types
module M = Proto.Message

type counters = {
  responses_sent : int;
  deliveries_sent : int;
  relay_frames_sent : int;
  state_transfer_bytes : int;
}

type t = {
  engine : Sim.Engine.t;
  (* each member's connection cell, the same cell its group entries hold,
     so [bind] reaches every group and a fan-out follows a pointer. A cell
     lives while the member is bound or in some group. *)
  conn_of_member : (T.member_id, Membership.cell) Hashtbl.t;
  (* reverse index of [conn_of_member], keyed by connection id, so a
     disconnect touches only the members of that connection *)
  members_of_conn : (int, (T.member_id, unit) Hashtbl.t) Hashtbl.t;
  (* which groups a member currently belongs to, so a disconnect touches
     only those instead of scanning every group *)
  groups_of_member : (T.member_id, (T.group_id, unit) Hashtbl.t) Hashtbl.t;
  (* every accepted connection, keyed by [Net.Tcp.id] (assigned in accept
     order), so a disconnect removes one entry instead of a list walk *)
  client_conns : (int, Net.Tcp.conn) Hashtbl.t;
  transfer_cache : Transfer.cache;
  relay_hub : Relay_hub.t;
  fan_batch : Net.Tcp.batch; (* fan-out fill buffer, refilled per fan-out *)
  (* Counters as mutable fields: the hot loop bumps a counter with a field
     store instead of re-allocating a record per event. *)
  mutable responses_sent : int;
  mutable deliveries_sent : int;
  mutable relay_frames_sent : int;
  mutable state_transfer_bytes : int;
}

let create engine =
  {
    engine;
    conn_of_member = Hashtbl.create 64;
    members_of_conn = Hashtbl.create 64;
    groups_of_member = Hashtbl.create 64;
    client_conns = Hashtbl.create 64;
    transfer_cache = Transfer.create_cache ();
    relay_hub = Relay_hub.create ();
    fan_batch = Net.Tcp.batch_create ();
    responses_sent = 0;
    deliveries_sent = 0;
    relay_frames_sent = 0;
    state_transfer_bytes = 0;
  }

let counters t =
  {
    responses_sent = t.responses_sent;
    deliveries_sent = t.deliveries_sent;
    relay_frames_sent = t.relay_frames_sent;
    state_transfer_bytes = t.state_transfer_bytes;
  }

let add_deliveries t ~count = t.deliveries_sent <- t.deliveries_sent + count

let transfer_cache t = t.transfer_cache

(* --- connections ------------------------------------------------------- *)

let accept t conn = Hashtbl.replace t.client_conns (Net.Tcp.id conn) conn

(* Newest first, as the connections were accepted in id order. *)
let close_clients t =
  let conns = Hashtbl.fold (fun id c acc -> (id, c) :: acc) t.client_conns [] in
  List.iter
    (fun (_, c) -> if Net.Tcp.is_open c then Net.Tcp.close c)
    (List.sort (fun (a, _) (b, _) -> Int.compare b a) conns);
  Hashtbl.reset t.client_conns

(* --- sending ------------------------------------------------------------ *)

let send_encoded t conn e =
  t.responses_sent <- t.responses_sent + 1;
  M.send_encoded conn e

let send t conn response = send_encoded t conn (M.pre_encode (M.Response response))

let send_member t member response =
  match Hashtbl.find_opt t.conn_of_member member with
  | Some { conn = Some conn } when Net.Tcp.is_open conn -> send t conn response
  | Some _ | None -> ()

let fail t conn group reason = send t conn (M.Request_failed { group; reason })

(* --- member / connection indexes ---------------------------------------- *)

(* Add [x] to the set indexed under [key]. *)
let index tbl key x =
  let set =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace tbl key s;
        s
  in
  Hashtbl.replace set x ()

let cell t member =
  match Hashtbl.find t.conn_of_member member with
  | c -> c
  | exception Not_found ->
      let c = { Membership.conn = None } in
      Hashtbl.replace t.conn_of_member member c;
      c

(* Forget the member's cell once nothing holds it: no connection, and no
   group entry (every entry's group is in [groups_of_member]). *)
let release_cell t member (c : Membership.cell) =
  if Option.is_none c.conn && not (Hashtbl.mem t.groups_of_member member) then
    Hashtbl.remove t.conn_of_member member

let bind t member conn =
  let c = cell t member in
  (match c.conn with
  | Some old when Net.Tcp.id old <> Net.Tcp.id conn -> (
      (* rejoin over a new connection: unhook from the old one's set *)
      match Hashtbl.find_opt t.members_of_conn (Net.Tcp.id old) with
      | Some set -> Hashtbl.remove set member
      | None -> ())
  | Some _ | None -> ());
  c.conn <- Some conn;
  index t.members_of_conn (Net.Tcp.id conn) member

let unindex t member group =
  match Hashtbl.find_opt t.groups_of_member member with
  | Some set ->
      Hashtbl.remove set group;
      if Hashtbl.length set = 0 then begin
        Hashtbl.remove t.groups_of_member member;
        match Hashtbl.find_opt t.conn_of_member member with
        | Some c -> release_cell t member c
        | None -> ()
      end
  | None -> ()

let add_member t ms ~group ~member ~role ~notify =
  Membership.add ms ~member ~role ~notify ~joined_at:(Sim.Engine.now t.engine)
    ~cell:(cell t member);
  index t.groups_of_member member group

let remove_member t ms ~group member =
  let present = Membership.remove ms member in
  if present then unindex t member group;
  present

let forget_group t ms ~group =
  List.iter (fun (m : Membership.entry) -> unindex t m.member group) (Membership.entries ms)

(* --- fan-out ------------------------------------------------------------- *)

let no_skip (_ : T.member_id) = false

(* The open connections of a group's members in join order, minus [exclude],
   anything [skip] rejects and, when [notify_only], every member that did
   not subscribe to membership changes: the recipient list handed to the
   batched transmit. *)
let fill_batch t ms ~notify_only ?exclude ?(skip = no_skip) () =
  Net.Tcp.batch_clear t.fan_batch;
  Membership.iter_live ms (fun (m : Membership.entry) ->
      let excluded =
        match exclude with Some x -> String.equal x m.member | None -> false
      in
      if (m.notify || not notify_only) && not (excluded || skip m.member) then
        match m.cell.conn with
        | Some conn -> if Net.Tcp.is_open conn then Net.Tcp.batch_add t.fan_batch conn
        | None -> ())

(* Send [inner] to the filled batch: one encode shared by all direct
   recipients, one spliced [Relay_fanout] frame shared by every relay
   fronting proxied recipients. *)
let flush t ~group ?exclude inner =
  let d = Relay_hub.deliver t.relay_hub ~group ?exclude ~inner t.fan_batch in
  t.relay_frames_sent <- t.relay_frames_sent + d.Relay_hub.d_frames;
  d
[@@corona.hot]

let fan t ms ~group ?exclude ?skip inner =
  fill_batch t ms ~notify_only:false ?exclude ?skip ();
  flush t ~group ?exclude inner
[@@corona.hot]

let fan_out t ms ~group ?exclude inner =
  let d = fan t ms ~group ?exclude inner in
  t.responses_sent <- t.responses_sent + d.Relay_hub.d_direct
[@@corona.hot]

let deliver t ms ~group ?exclude ?skip inner =
  let d = fan t ms ~group ?exclude ?skip inner in
  add_deliveries t ~count:d.Relay_hub.d_direct
[@@corona.hot]

(* Subscribers minus the changed member, told the change alone: each
   rebuilds the view itself, so a frame costs O(1) bytes, not O(members).
   Without subscribers the group is not walked at all: a join storm with
   notifications off would otherwise pay O(members) per join. *)
let notify t ms ~group change =
  if Membership.notify_count ms > 0 then begin
    let exclude = T.changed_member change in
    fill_batch t ms ~notify_only:true ~exclude ();
    let d = flush t ~group ~exclude (M.Membership_changed { group; change }) in
    t.responses_sent <- t.responses_sent + d.Relay_hub.d_direct
  end
[@@corona.hot]

(* --- joins (§3.2: state transfer customized per client) ----------------- *)

let join_state t source transfer =
  let p =
    match source with
    | `Log log -> Transfer.prepare ~cache:t.transfer_cache log transfer
    | `At at -> Transfer.no_state ~at
  in
  t.state_transfer_bytes <- t.state_transfer_bytes + p.Transfer.p_bytes;
  p

(* Sizing the frame costs O(objects), not O(bytes), so a cache-served
   payload needs no pre-serialized fragment; the member list is sized from
   the caller's kept length, so a join costs O(1) in group size. *)
let accept_join t conn ~group ~members ~members_size ~multicast (p : Transfer.prepared) =
  if Net.Tcp.is_open conn then
    send_encoded t conn
      (M.pre_encode_members ~members_size
         (M.Join_accepted { group; at_seqno = p.p_at; state = p.p_state; members; multicast }))

(* --- requests every server answers the same way -------------------------- *)

let reduce_log t conn ~group log =
  if State_log.log_length log = 0 then
    send t conn (M.Log_reduced { group; upto = State_log.snapshot_seqno log })
  else
    State_log.reduce log ~on_done:(fun ~upto ->
        if Net.Tcp.is_open conn then send t conn (M.Log_reduced { group; upto }))

let serve t conn (req : M.request) =
  match req with
  | M.Ping { nonce } -> send t conn (M.Pong { nonce })
  | M.Relay_register { relay } -> Relay_hub.register t.relay_hub ~relay ~conn
  | M.Relay_proxy { relay } -> Relay_hub.register_proxy t.relay_hub ~relay ~conn
  | M.Create_group _ | M.Delete_group _ | M.Join _ | M.Leave _ | M.Get_membership _
  | M.Bcast _ | M.Acquire_lock _ | M.Release_lock _ | M.Reduce_log _ | M.Resend _ ->
      ()

(* A client connection died. A relay's proxied connections die with it, so
   the per-member cleanup handles its members, who fail over client-side
   and rejoin through a sibling relay. [k member groups] then runs for each
   member the connection served, with the groups it belonged to. *)
let disconnect t conn k =
  Relay_hub.conn_closed t.relay_hub conn;
  Hashtbl.remove t.client_conns (Net.Tcp.id conn);
  let members_on_conn =
    match Hashtbl.find_opt t.members_of_conn (Net.Tcp.id conn) with
    | Some set -> Hashtbl.fold (fun member () acc -> member :: acc) set []
    | None -> []
  in
  Hashtbl.remove t.members_of_conn (Net.Tcp.id conn);
  List.iter
    (fun member ->
      (match Hashtbl.find_opt t.conn_of_member member with
      | Some c ->
          c.conn <- None;
          release_cell t member c
      | None -> ());
      let groups =
        match Hashtbl.find_opt t.groups_of_member member with
        | Some set -> Hashtbl.fold (fun gid () acc -> gid :: acc) set []
        | None -> []
      in
      k member groups)
    members_on_conn
