module T = Proto.Types
module M = Proto.Message

type logging_mode = No_logging | Async_logging | Sync_logging

type config = {
  port : int;
  maintain_state : bool;
  logging : logging_mode;
  reduction : State_log.reduction_policy;
  access : Access_control.t;
  use_ip_multicast : bool;
      (* §5.3 hybrid mode: deliveries go out on the group's IP-multicast
         channel for capable clients, point-to-point TCP for the rest *)
  transfer_chunk_bytes : int option;
      (* QoS-adaptive transfer pacing ([11], §5.3) *)
  record_lock_journal : bool;
      (* keep per-group lock grant journals for invariant checking *)
  wal_batching : Storage.Wal.batch_config option;
      (* group commit: coalesce log appends into one physical write per
         seek; None = one write per record *)
  lean_joins : bool;
      (* omit the O(members) membership list from Join_accepted replies so a
         100k-member join storm costs the root O(1) per join; relay-tier
         deployments at that scale turn this on *)
}

let default_config =
  {
    port = 7000;
    maintain_state = true;
    logging = Async_logging;
    reduction = State_log.No_reduction;
    access = Access_control.allow_all;
    use_ip_multicast = false;
    transfer_chunk_bytes = None;
    record_lock_journal = false;
    wal_batching = None;
    lean_joins = false;
  }

type stats = {
  requests_handled : int;
  bcasts_sequenced : int;
  deliveries_sent : int;
  bytes_delivered : int;
  responses_sent : int;
  joins_served : int;
  state_transfer_bytes : int;
  relay_frames_sent : int;
}

(* Sequencer-only bookkeeping when [maintain_state = false]. *)
type keeper = Stateful of State_log.t | Stateless of { mutable next_seqno : int }

type group = {
  g_id : T.group_id;
  g_persistent : bool;
  g_keeper : keeper;
  g_members : Membership.t;
  g_locks : Locks.t;
  g_mcast_members : (T.member_id, unit) Hashtbl.t;
      (* members served via the multicast channel rather than their TCP
         connection *)
}

type t = {
  fabric : Net.Fabric.t;
  server_host : Net.Host.t;
  cfg : config;
  storage : Server_storage.t;
  groups : (T.group_id, group) Hashtbl.t;
  eng : Group_engine.t;
  (* joins paused on §6 sender-assisted recovery: completed when that
     member's Resend arrives *)
  pending_recovery : (T.group_id * T.member_id, Net.Tcp.conn * T.transfer_spec) Hashtbl.t;
  listener : Net.Tcp.listener option ref;
  mutable s_requests_handled : int;
  mutable s_bcasts_sequenced : int;
}

let now t = Sim.Engine.now (Net.Fabric.engine t.fabric)

let mcast_channel_name group = "corona-mcast:" ^ group

let host t = t.server_host

let config t = t.cfg

let stats t =
  let c = Group_engine.counters t.eng in
  {
    requests_handled = t.s_requests_handled;
    bcasts_sequenced = t.s_bcasts_sequenced;
    deliveries_sent = c.deliveries_sent;
    bytes_delivered = c.bytes_delivered;
    responses_sent = c.responses_sent;
    joins_served = c.joins_served;
    state_transfer_bytes = c.state_transfer_bytes;
    relay_frames_sent = c.relay_frames_sent;
  }

let pool_stats (_ : t) = { Proto.Pool.leases = 0; hits = 0; high_water = 0 }

let relay_hub t = Group_engine.relay_hub t.eng

let connected_clients t = Group_engine.connected_clients t.eng

(* --- queries --------------------------------------------------------- *)

let group_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.groups [] |> List.sort String.compare

let group_exists t id = Hashtbl.mem t.groups id

let group_members t id =
  match Hashtbl.find_opt t.groups id with
  | Some g -> Membership.members g.g_members
  | None -> []

let log_of t id =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> Some log
  | Some { g_keeper = Stateless _; _ } | None -> None

let group_state t id = Option.map State_log.state (log_of t id)

let group_next_seqno t id =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> Some (State_log.next_seqno log)
  | Some { g_keeper = Stateless s; _ } -> Some s.next_seqno
  | None -> None

let group_log_length t id = Option.map State_log.log_length (log_of t id)

let lock_holder t group lock =
  match Hashtbl.find_opt t.groups group with
  | Some g -> Locks.holder g.g_locks lock
  | None -> None

let lock_journal t id =
  match Hashtbl.find_opt t.groups id with
  | Some g -> Locks.journal g.g_locks
  | None -> []

let group_updates_from t id from =
  match log_of t id with Some log -> State_log.updates_from log from | None -> []

let group_base t id = Option.map State_log.base (log_of t id)

let send_to_conn t conn response = Group_engine.send t.eng conn response

(* --- group lifecycle ------------------------------------------------- *)

let make_keeper t ~group ~persistent ~initial =
  if t.cfg.maintain_state then begin
    let wal =
      match t.cfg.logging with
      | No_logging -> Storage.Wal.create_ephemeral ~name:group
      | Async_logging | Sync_logging ->
          Server_storage.wal_for t.storage ?batching:t.cfg.wal_batching group
    in
    Stateful
      (State_log.create ~group ~persistent ~wal
         ~checkpoints:(Server_storage.checkpoints t.storage)
         ~policy:t.cfg.reduction ~initial ())
  end
  else Stateless { next_seqno = 0 }

let add_group t ~group ~persistent keeper =
  Hashtbl.replace t.groups group
    {
      g_id = group;
      g_persistent = persistent;
      g_keeper = keeper;
      g_members = Membership.create ();
      g_locks = Locks.create ~record_journal:t.cfg.record_lock_journal ();
      g_mcast_members = Hashtbl.create 8;
    }

let drop_group t g =
  Transfer.invalidate (Group_engine.transfer_cache t.eng) g.g_id;
  (match g.g_keeper with
  | Stateful log -> State_log.delete_durable log
  | Stateless _ -> ());
  Group_engine.forget_group t.eng g.g_members ~group:g.g_id;
  Server_storage.drop_group t.storage g.g_id;
  Hashtbl.remove t.groups g.g_id

(* Transient groups cease to exist at null membership (§3.1); persistent
   groups keep their state. *)
let handle_empty_group t g =
  if Membership.is_empty g.g_members && not g.g_persistent then drop_group t g

(* Remove a member: shared by leave, graceful disconnect and crash. *)
let remove_member t g member ~change =
  Hashtbl.remove g.g_mcast_members member;
  if Group_engine.remove_member t.eng g.g_members ~group:g.g_id member then begin
    List.iter
      (fun (lock, next) ->
        match next with
        | Some next_holder ->
            Group_engine.send_member t.eng next_holder
              (M.Lock_granted { group = g.g_id; lock })
        | None -> ())
      (Locks.release_all g.g_locks ~member);
    Group_engine.notify t.eng g.g_members ~group:g.g_id change;
    handle_empty_group t g
  end

(* --- state transfer (§3.2: customized per client) --------------------- *)

(* Pace pre-encoded [State_chunk] frames at ~half the NIC rate so
   interactive traffic interleaves — the QoS scheduler of [11] in its
   simplest form. The frames themselves are shared: for full-snapshot
   transfers they come out of the join-state cache, sliced and serialized
   once per state version rather than per joiner per chunk. *)
let send_chunked t conn ~frames ~finish =
  let engine = Net.Fabric.engine t.fabric in
  let pace chunk_bytes =
    2.0 *. float_of_int chunk_bytes /. Net.Host.nic_bandwidth t.server_host
  in
  let rec send = function
    | [] -> finish ()
    | { Transfer.cf_frame; cf_bytes } :: rest ->
        if Net.Tcp.is_open conn then begin
          Group_engine.send_encoded t.eng conn cf_frame;
          ignore
            (Sim.Engine.schedule engine ~delay:(pace cf_bytes) (fun () -> send rest))
        end
  in
  send frames

let transfer_cache_stats t = Transfer.cache_stats (Group_engine.transfer_cache t.eng)

(* --- request handling -------------------------------------------------- *)

let fail t conn group reason = Group_engine.fail t.eng conn group reason

let with_access t conn group decision k =
  match decision with
  | Access_control.Allow -> k ()
  | Access_control.Deny reason -> fail t conn group reason

let handle_create t conn ~group ~persistent ~initial ~requester =
  with_access t conn group (t.cfg.access.can_create requester group) (fun () ->
      if Hashtbl.mem t.groups group then fail t conn group "group already exists"
      else begin
        add_group t ~group ~persistent (make_keeper t ~group ~persistent ~initial);
        send_to_conn t conn (M.Group_created { group })
      end)

let handle_delete t conn ~group ~requester =
  with_access t conn group (t.cfg.access.can_delete requester group) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g ->
          Group_engine.fan_out t.eng g.g_members ~group (M.Group_deleted { group });
          drop_group t g;
          send_to_conn t conn (M.Group_deleted { group }))

(* Outcome of the §6 recovery check inside a join. An explicit result
   rather than a [raise Exit] escape, so an unrelated [Exit] from deeper in
   the call tree can never be silently swallowed by the caller. *)
type join_outcome = Join_done | Join_deferred

let handle_join t conn ~group ~member ~role ~transfer ~notify =
  with_access t conn group (t.cfg.access.can_join member group role) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g -> (
          Group_engine.bind t.eng member conn;
          Group_engine.add_member t.eng g.g_members ~group ~member ~role ~notify;
          let outcome =
            match (g.g_keeper, transfer) with
            | Stateful log, T.Updates_since n when n > State_log.next_seqno log ->
                (* The client is ahead of our recovered log: our crash lost
                   a suffix it still holds. Retrieve it from the original
                   sender (§6) before completing the join. *)
                Hashtbl.replace t.pending_recovery (group, member)
                  (conn, T.Full_state);
                send_to_conn t conn
                  (M.Resend_request { group; from_seqno = State_log.next_seqno log });
                Group_engine.notify t.eng g.g_members ~group (T.Member_joined member);
                Join_deferred
            | (Stateful _ | Stateless _), _ -> Join_done
          in
          match outcome with
          | Join_deferred -> ()
          | Join_done ->
              let multicast =
                t.cfg.use_ip_multicast
                && Net.Host.multicast_capable (Net.Tcp.peer_host conn)
              in
              if multicast then Hashtbl.replace g.g_mcast_members member ()
              else Hashtbl.remove g.g_mcast_members member;
              let p =
                Group_engine.join_state t.eng
                  (match g.g_keeper with
                  | Stateful log -> `Log log
                  | Stateless s -> `At s.next_seqno)
                  transfer
              in
              (* [lean_joins]: the per-joiner membership list is the one
                 O(members) cost left in a join at 100k scale — elide it. *)
              let members =
                if t.cfg.lean_joins then [] else Membership.members g.g_members
              in
              let accept p =
                Group_engine.accept_join t.eng conn ~group ~members ~multicast p
              in
              (match (t.cfg.transfer_chunk_bytes, p.p_state) with
              | Some chunk, M.Snapshot { objects; log_tail }
                when p.p_bytes > chunk ->
                  let frames =
                    match g.g_keeper with
                    | Stateful log when p.p_full_snapshot ->
                        Transfer.cached_chunk_frames
                          (Group_engine.transfer_cache t.eng)
                          log ~chunk
                    | Stateful _ | Stateless _ ->
                        Transfer.chunk_frames_of ~group ~objects ~chunk
                  in
                  send_chunked t conn ~frames ~finish:(fun () ->
                      accept { p with p_state = M.Snapshot { objects = []; log_tail } })
              | (Some _ | None), _ -> accept p);
              Group_engine.notify t.eng g.g_members ~group (T.Member_joined member)))

let handle_leave t conn ~group ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some g ->
      send_to_conn t conn (M.Left { group });
      remove_member t g member ~change:(T.Member_left member)

let handle_bcast t conn ~group ~sender ~kind ~obj ~data ~mode =
  with_access t conn group (t.cfg.access.can_update sender group) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g -> (
          match Membership.role_of g.g_members sender with
          | None -> fail t conn group "sender is not a member"
          | Some T.Observer -> fail t conn group "observers may not update shared state"
          | Some T.Principal ->
              t.s_bcasts_sequenced <- t.s_bcasts_sequenced + 1;
              let exclude =
                match mode with
                | T.Sender_exclusive -> Some sender
                | T.Sender_inclusive -> None
              in
              let deliver (u : T.update) =
                let mcast_reached = Hashtbl.length g.g_mcast_members in
                if mcast_reached > 0 then begin
                  (* One NIC transmission covers every subscribed member;
                     sender exclusion for subscribed senders happens at the
                     client. Deliveries count per subscriber reached. *)
                  let e = M.pre_encode (M.Response (M.Deliver u)) in
                  let wire = M.encoded_wire_size e in
                  let chan =
                    Net.Multicast.channel t.fabric ~name:(mcast_channel_name g.g_id)
                  in
                  Group_engine.add_deliveries t.eng ~count:mcast_reached
                    ~bytes:(mcast_reached * wire);
                  Net.Multicast.send chan ~src:t.server_host ~size:wire
                    (M.Corona (M.encoded_message e))
                end;
                (* One serialization shared by every point-to-point
                   recipient; proxied recipients collapse to one spliced
                   frame per relay. *)
                Group_engine.deliver t.eng g.g_members ~group ?exclude
                  ~skip:(fun m -> Hashtbl.mem g.g_mcast_members m)
                  (M.Deliver u)
              in
              (match g.g_keeper with
              | Stateful log -> (
                  let fanned = ref false in
                  let u =
                    State_log.append log ~kind ~obj ~data ~sender ~timestamp:(now t)
                      ~on_durable:(fun u ->
                        (* Sync mode: multicast only once the log write is
                           on the platter. *)
                        match t.cfg.logging with
                        | Sync_logging when not !fanned ->
                            fanned := true;
                            deliver u
                        | Sync_logging | Async_logging | No_logging -> ())
                  in
                  match t.cfg.logging with
                  | Async_logging | No_logging -> deliver u
                  | Sync_logging -> ())
              | Stateless s ->
                  let u =
                    {
                      T.seqno = s.next_seqno;
                      group;
                      kind;
                      obj;
                      data;
                      sender;
                      timestamp = now t;
                    }
                  in
                  s.next_seqno <- s.next_seqno + 1;
                  deliver u)))
[@@corona.hot]

let handle_lock_acquire t conn ~group ~lock ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some g -> (
      match Locks.acquire g.g_locks ~lock ~member with
      | `Granted -> send_to_conn t conn (M.Lock_granted { group; lock })
      | `Busy holder -> send_to_conn t conn (M.Lock_busy { group; lock; holder }))

let handle_lock_release t conn ~group ~lock ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some g -> (
      match Locks.release g.g_locks ~lock ~member with
      | `Not_holder -> fail t conn group "not the lock holder"
      | `Released next ->
          send_to_conn t conn (M.Lock_released { group; lock });
          (match next with
          | Some next_holder ->
              Group_engine.send_member t.eng next_holder (M.Lock_granted { group; lock })
          | None -> ()))

let handle_request t conn (req : M.request) =
  t.s_requests_handled <- t.s_requests_handled + 1;
  match req with
  | M.Create_group { group; creator; persistent; initial } ->
      handle_create t conn ~group ~persistent ~initial ~requester:creator
  | M.Delete_group { group; requester } -> handle_delete t conn ~group ~requester
  | M.Join { group; member; role; transfer; notify } ->
      handle_join t conn ~group ~member ~role ~transfer ~notify
  | M.Leave { group; member } -> handle_leave t conn ~group ~member
  | M.Get_membership { group } -> (
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g ->
          send_to_conn t conn
            (M.Membership_info { group; members = Membership.members g.g_members }))
  | M.Bcast { group; sender; kind; obj; data; mode } ->
      handle_bcast t conn ~group ~sender ~kind ~obj ~data ~mode
  | M.Acquire_lock { group; lock; member } ->
      handle_lock_acquire t conn ~group ~lock ~member
  | M.Release_lock { group; lock; member } ->
      handle_lock_release t conn ~group ~lock ~member
  | M.Reduce_log { group; member = _ } -> (
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some { g_keeper = Stateless _; _ } -> fail t conn group "server keeps no state"
      | Some { g_keeper = Stateful log; _ } -> Group_engine.reduce_log t.eng conn ~group log)
  | M.Resend { group; member; updates } -> (
      match Hashtbl.find_opt t.groups group with
      | Some ({ g_keeper = Stateful log; _ } as g) ->
          (* Replay the lost suffix in order; the original sequence numbers
             line up with our recovery position, so duplicates (a second
             client resending the same suffix) fall out naturally. *)
          List.iter
            (fun (u : T.update) ->
              if u.seqno = State_log.next_seqno log then
                State_log.apply_sequenced log u ~on_durable:(fun _ -> ()))
            updates;
          (match Hashtbl.find_opt t.pending_recovery (group, member) with
          | Some (conn', transfer) ->
              Hashtbl.remove t.pending_recovery (group, member);
              if Net.Tcp.is_open conn' then
                Group_engine.accept_join t.eng conn' ~group
                  ~members:(Membership.members g.g_members)
                  ~multicast:(Hashtbl.mem g.g_mcast_members member)
                  (Group_engine.join_state t.eng (`Log log) transfer)
          | None -> ())
      | Some { g_keeper = Stateless _; _ } | None -> ())
  | M.Ping _ | M.Relay_register _ | M.Relay_proxy _ | M.Relay_heartbeat _ ->
      Group_engine.serve t.eng conn req

(* A client connection died: clean up every group its member(s) joined.
   Graceful closes count as leaves; broken ones as crashes (§3.2 membership
   awareness distinguishes the two). *)
let handle_disconnect t conn reason =
  Group_engine.disconnect t.eng conn (fun member groups ->
      let change =
        match reason with
        | Net.Tcp.Graceful -> T.Member_left member
        | Net.Tcp.Peer_crashed | Net.Tcp.Rejected -> T.Member_crashed member
      in
      List.iter
        (fun gid ->
          match Hashtbl.find_opt t.groups gid with
          | Some g -> remove_member t g member ~change
          | None -> ())
        groups)

let accept t conn =
  Group_engine.accept t.eng conn;
  Net.Tcp.set_on_close conn (fun reason -> handle_disconnect t conn reason);
  Net.Tcp.set_receiver conn (fun ~size:_ payload ->
      match payload with
      | M.Corona (M.Request req) -> handle_request t conn req
      | M.Corona (M.Response _) | _ -> ())

let recover_groups t =
  List.iter
    (fun (ck : State_log.checkpoint) ->
      let wal =
        Server_storage.wal_for t.storage ?batching:t.cfg.wal_batching ck.ck_group
      in
      let log =
        State_log.recover ck ~wal
          ~checkpoints:(Server_storage.checkpoints t.storage)
          ~policy:t.cfg.reduction
      in
      add_group t ~group:ck.ck_group ~persistent:ck.ck_persistent (Stateful log))
    (Server_storage.recoverable_groups t.storage)

let create fabric server_host ?(config = default_config) ~storage () =
  let t =
    {
      fabric;
      server_host;
      cfg = config;
      storage;
      groups = Hashtbl.create 16;
      eng = Group_engine.create (Net.Fabric.engine fabric);
      pending_recovery = Hashtbl.create 4;
      listener = ref None;
      s_requests_handled = 0;
      s_bcasts_sequenced = 0;
    }
  in
  if config.maintain_state then recover_groups t;
  t.listener :=
    Some (Net.Tcp.listen fabric server_host ~port:config.port ~on_accept:(accept t));
  t

let shutdown t =
  Hashtbl.iter
    (fun _ g ->
      match g.g_keeper with
      | Stateful log when g.g_persistent ->
          State_log.checkpoint_now log ~on_durable:(fun () -> ())
      | Stateful _ | Stateless _ -> ())
    t.groups;
  (match !(t.listener) with
  | Some l -> Net.Tcp.close_listener l
  | None -> ());
  t.listener := None;
  Group_engine.close_clients t.eng
