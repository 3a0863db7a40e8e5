(* Edge relay of the hierarchical dissemination tier.

   A relay fronts a contiguous slice of a huge group's membership: members
   connect to the relay exactly as they would to the root (same port, same
   protocol), and the relay opens one upstream connection per member whose
   first message is [Relay_proxy] — from then on that member's request/reply
   traffic passes through verbatim in both directions, with zero
   re-serialization (the decoded payload is forwarded with its original wire
   size). The root stays the single sequencer; the relay holds no group
   state and never reorders anything.

   What the relay adds is the fan-out hop: one control connection
   ([Relay_register]) on which the root sends a single [Relay_fanout] frame
   per broadcast, which the relay re-fans locally to every member of the
   group behind it ([fan_out] below) — root transmit cost O(relays), relay
   transmit cost O(members/relay).

   Group membership is learned by snooping the proxied traffic: a [Join]
   forwarded upstream adds the member connection to the group *before* the
   root can sequence any later broadcast that includes the member, so
   optimistic snooping never under-delivers. A member's client holds what
   reaches it for a group before the join's reply: a broadcast sequenced
   before its join is dropped once the reply's state covers it, and after
   a refused join one for a group the client holds no replica of is
   dropped. [Leave] forwards, [Left] / [Group_deleted] replies and
   connection death remove the membership. *)

module M = Proto.Message

type down = {
  d_conn : Net.Tcp.conn; (* member-facing connection *)
  mutable d_up : Net.Tcp.conn option; (* proxied upstream, once connected *)
  mutable d_member : Proto.Types.member_id option; (* snooped identity *)
  d_groups : (Proto.Types.group_id, bool (* notify *)) Hashtbl.t;
  mutable d_pending : (int * Net.Payload.t) list; (* pre-upstream backlog *)
}

type t = {
  fabric : Net.Fabric.t;
  host : Net.Host.t;
  r_id : Proto.Types.member_id;
  root : Net.Host.t;
  root_port : int;
  mutable control : Net.Tcp.conn option;
  listener : Net.Tcp.listener option ref;
  downs : (int, down) Hashtbl.t; (* member conn id -> down *)
  groups : (Proto.Types.group_id, (int, down) Hashtbl.t) Hashtbl.t;
  fan_batch : Net.Tcp.batch; (* re-fan fill buffer, refilled per frame *)
  mutable alive : bool;
}

(* --- membership snooping ----------------------------------------------- *)

let group_table t g =
  match Hashtbl.find_opt t.groups g with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace t.groups g tbl;
      tbl

let remove_membership t d group =
  Hashtbl.remove d.d_groups group;
  match Hashtbl.find_opt t.groups group with
  | Some tbl ->
      Hashtbl.remove tbl (Net.Tcp.id d.d_conn);
      if Hashtbl.length tbl = 0 then Hashtbl.remove t.groups group
  | None -> ()

let drop_down t d =
  Hashtbl.remove t.downs (Net.Tcp.id d.d_conn);
  Hashtbl.iter (fun g _ -> remove_membership t d g) (Hashtbl.copy d.d_groups)

(* --- local re-fan ------------------------------------------------------- *)

(* Fill [fan_batch] with the member connections a [Relay_fanout] frame
   targets: every group member behind this relay, minus [exclude] (the
   sender of a sender-exclusive broadcast), and — for membership-change
   notifications — minus members who joined with [notify = false]. They go
   in reverse table-visit order: the order sets each member's NIC slot, so
   it fixes the relay hop's delivery times. *)
let fill_batch t ~group ~exclude ~notify_only =
  Net.Tcp.batch_clear t.fan_batch;
  match Hashtbl.find_opt t.groups group with
  | None -> ()
  | Some tbl ->
      Hashtbl.iter
        (fun _ d ->
          let excluded =
            match (exclude, d.d_member) with
            | Some x, Some m -> String.equal x m
            | Some _, None | None, _ -> false
          in
          let muted =
            notify_only
            &&
            match Hashtbl.find_opt d.d_groups group with
            | Some notify -> not notify
            | None -> true
          in
          if not (excluded || muted) then Net.Tcp.batch_add t.fan_batch d.d_conn)
        tbl;
      Net.Tcp.batch_rev t.fan_batch

let fan_out t ~group ~exclude ~inner =
  let notify_only =
    match inner with M.Membership_changed _ -> true | _ -> false
  in
  fill_batch t ~group ~exclude ~notify_only;
  if Net.Tcp.batch_length t.fan_batch > 0 then
    (* One local encode shared across the whole slice via the batched
       transmit — the relay-side half of the O(relays) encode bound. *)
    M.send_batch_encoded t.fan_batch (M.pre_encode (M.Response inner));
  match inner with
  | M.Group_deleted { group } ->
      (match Hashtbl.find_opt t.groups group with
      | Some tbl -> Hashtbl.iter (fun _ d -> Hashtbl.remove d.d_groups group) tbl
      | None -> ());
      Hashtbl.remove t.groups group
  | _ -> ()
[@@corona.hot]

(* --- proxied pass-through ---------------------------------------------- *)

let forward_up t d ~size payload =
  (match payload with
  | M.Corona (M.Request req) -> (
      match req with
      | M.Join { group; member; notify; _ } ->
          d.d_member <- Some member;
          Hashtbl.replace d.d_groups group notify;
          Hashtbl.replace (group_table t group) (Net.Tcp.id d.d_conn) d
      | M.Leave { group; member } ->
          d.d_member <- Some member;
          remove_membership t d group
      | M.Bcast { sender; _ } -> d.d_member <- Some sender
      | _ -> ())
  | _ -> ());
  match d.d_up with
  | Some up -> Net.Tcp.send up ~size payload
  | None -> d.d_pending <- (size, payload) :: d.d_pending

let forward_down t d ~size payload =
  (match payload with
  | M.Corona (M.Response resp) -> (
      match resp with
      | M.Left { group } -> remove_membership t d group
      | M.Group_deleted { group } -> remove_membership t d group
      | _ -> ())
  | _ -> ());
  Net.Tcp.send d.d_conn ~size payload

let accept_member t conn =
  if not t.alive then Net.Tcp.close conn
  else begin
    let d =
      {
        d_conn = conn;
        d_up = None;
        d_member = None;
        d_groups = Hashtbl.create 4;
        d_pending = [];
      }
    in
    Hashtbl.replace t.downs (Net.Tcp.id conn) d;
    Net.Tcp.set_receiver conn (fun ~size payload -> forward_up t d ~size payload);
    Net.Tcp.set_on_close conn (fun _ ->
        drop_down t d;
        match d.d_up with Some up -> Net.Tcp.close up | None -> ());
    Net.Tcp.connect t.fabric ~src:t.host ~dst:t.root ~port:t.root_port
      ~on_connected:(fun up ->
        if not (Net.Tcp.is_open conn) then Net.Tcp.close up
        else begin
          d.d_up <- Some up;
          M.send up (M.Request (M.Relay_proxy { relay = t.r_id }));
          Net.Tcp.set_receiver up (fun ~size payload ->
              forward_down t d ~size payload);
          Net.Tcp.set_on_close up (fun _ -> Net.Tcp.close conn);
          let backlog = List.rev d.d_pending in
          d.d_pending <- [];
          List.iter (fun (size, payload) -> Net.Tcp.send up ~size payload) backlog
        end)
      ~on_failed:(fun () -> Net.Tcp.close conn)
      ()
  end

(* --- control connection ------------------------------------------------- *)

let handle_control t msg =
  match msg with
  | M.Response (M.Relay_fanout { group; exclude; inner }) ->
      fan_out t ~group ~exclude ~inner
  | M.Response _ | M.Request _ -> ()

(* --- lifecycle ---------------------------------------------------------- *)

let create fabric host ~relay ~root ?(root_port = 7000) ?(port = 7000)
    ~on_ready ~on_failed () =
  let t =
    {
      fabric;
      host;
      r_id = relay;
      root;
      root_port;
      control = None;
      listener = ref None;
      downs = Hashtbl.create 1024;
      groups = Hashtbl.create 16;
      fan_batch = Net.Tcp.batch_create ();
      alive = true;
    }
  in
  Net.Tcp.connect fabric ~src:host ~dst:root ~port:root_port
    ~on_connected:(fun conn ->
      t.control <- Some conn;
      Net.Tcp.set_receiver conn (fun ~size:_ payload ->
          match payload with M.Corona msg -> handle_control t msg | _ -> ());
      M.send conn (M.Request (M.Relay_register { relay }));
      t.listener :=
        Some
          (Net.Tcp.listen fabric host ~port ~on_accept:(fun c ->
               accept_member t c));
      on_ready t)
    ~on_failed ();
  t

let shutdown t =
  t.alive <- false;
  (match !(t.listener) with
  | Some l -> Net.Tcp.close_listener l
  | None -> ());
  t.listener := None;
  Hashtbl.iter
    (fun _ d ->
      Net.Tcp.close d.d_conn;
      match d.d_up with Some up -> Net.Tcp.close up | None -> ())
    (Hashtbl.copy t.downs);
  Hashtbl.reset t.downs;
  Hashtbl.reset t.groups;
  match t.control with
  | Some c ->
      Net.Tcp.close c;
      t.control <- None
  | None -> ()
