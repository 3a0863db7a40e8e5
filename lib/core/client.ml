module T = Proto.Types
module M = Proto.Message

type event =
  | Delivered of T.update
  | Membership_changed of { group : T.group_id; change : T.membership_change }
  | Lock_granted_later of { group : T.group_id; lock : T.lock_id }
  | Group_was_deleted of T.group_id
  | Disconnected of Net.Tcp.close_reason
  | Shard_delivered of { shard : int; update : T.update }
  | Shard_view of {
      group : T.group_id;
      bar : int;
      vector : int list;
      op : string;
    }
  | Shard_joined of { group : T.group_id; vector : int list }

type reply =
  | R_ok
  | R_join of { at_seqno : int; members : T.member list }
  | R_membership of T.member list
  | R_lock of [ `Granted | `Busy of T.member_id | `Released ]
  | R_reduced of int
  | R_failed of string

(* What an outstanding request is waiting for; replies on a connection come
   back in request order, so matching the oldest compatible expectation is
   exact. *)
type expect_kind =
  | E_create
  | E_delete
  | E_join
  | E_leave
  | E_membership
  | E_lock_acquire of T.lock_id
  | E_lock_release of T.lock_id
  | E_reduce

type expectation = { e_kind : expect_kind; e_k : reply -> unit }

(* A replica is log-structured: [gr_state] is a checkpoint, and the newest
   [gr_pending] entries of the [gr_recent] ring are the deliveries not yet
   applied to it, oldest first. A delivery only stores into the ring, which
   sender-assisted recovery needs anyway; [state_of] folds the pending
   entries in before anything reads or writes the state. *)
type group_replica = {
  gr_state : Shared_state.t; (* touched only by [fold_pending] and [state_of] *)
  mutable gr_last_seqno : int; (* highest delivered; join_seqno - 1 initially *)
  mutable gr_via_mcast : bool; (* deliveries arrive on the multicast channel *)
  gr_recent : T.update array;
      (* bounded circular cache the sender-assisted crash recovery (§6)
         answers Resend_request from: next write at [gr_recent_head], so a
         remembered update is two stores instead of a list cons + trim *)
  mutable gr_recent_n : int; (* live entries, ≤ Array.length gr_recent *)
  mutable gr_recent_head : int;
  mutable gr_pending : int; (* newest ring entries not yet in [gr_state] *)
  gr_own_exclusive : (T.object_id * string) Queue.t;
      (* our sender-exclusive sends already applied optimistically; their
         multicast echoes must not be re-applied *)
  mutable gr_shard_next : int array;
      (* sharded groups: next expected seqno per shard stream, seeded from
         the join's baseline vector; 0 past the end. Starts as the shared
         [no_shards] and grows on the first write past its end, so a
         classic replica allocates none. *)
}

let no_shards : int array = [||]

(* Record shard [shard]'s next expected seqno, growing the array to cover
   it. *)
let set_shard_next r shard next =
  let n = Array.length r.gr_shard_next in
  if shard >= n then begin
    let a = Array.make (shard + 1) 0 in
    Array.blit r.gr_shard_next 0 a 0 n;
    r.gr_shard_next <- a
  end;
  r.gr_shard_next.(shard) <- next

let shard_next r shard =
  if shard < Array.length r.gr_shard_next then r.gr_shard_next.(shard) else 0

(* Stands in the hot-replica slot below while it holds nothing; never in a
   table, never delivered to. *)
let no_replica =
  {
    gr_state = Shared_state.create ();
    gr_last_seqno = 0;
    gr_via_mcast = false;
    gr_recent = [||];
    gr_recent_n = 0;
    gr_recent_head = 0;
    gr_pending = 0;
    gr_own_exclusive = Queue.create ();
    gr_shard_next = no_shards;
  }

(* The replicas and member views by group, shared by a client and every
   record [reconnect] makes from it, with a one-entry cache of the replica
   the last delivery landed in, so a delivery in the same group as the one
   before hashes nothing. The slot holds [no_replica] when empty, so
   filling it on a miss allocates nothing. Every [set_replica] /
   [remove_replica] empties it, so it never outlives its table entry. *)
type replicas = {
  tbl : (T.group_id, group_replica) Hashtbl.t;
  mutable hot_group : T.group_id;
  mutable hot : group_replica;
  views : (T.group_id, Member_view.t) Hashtbl.t;
      (* a subscriber's member list of a group, settled by its last join *)
}

let create_replicas () =
  { tbl = Hashtbl.create 8; hot_group = ""; hot = no_replica; views = Hashtbl.create 8 }

let set_replica rs group r =
  rs.hot <- no_replica;
  Hashtbl.replace rs.tbl group r

let remove_replica rs group =
  rs.hot <- no_replica;
  Hashtbl.remove rs.tbl group

(* Raises [Not_found] for a group we hold no replica of. Exception-based
   lookup: [find_opt]'s [Some] would be an allocation per recipient per
   bcast. *)
let hot_replica rs group =
  if rs.hot != no_replica && String.equal rs.hot_group group then rs.hot
  else begin
    let r = Hashtbl.find rs.tbl group in
    rs.hot_group <- group;
    rs.hot <- r;
    r
  end

type t = {
  fabric : Net.Fabric.t;
  conn : Net.Tcp.conn;
  host : Net.Host.t;
  server : Net.Host.t;
  port : int;
  member : T.member_id;
  mutable on_event : (t -> event -> unit) option;
  pending : (T.group_id, expectation Queue.t) Hashtbl.t;
  pings : (int, float * (rtt:float -> unit)) Hashtbl.t; (* nonce -> sent, k *)
  mutable next_nonce : int;
  replicas : replicas;
  held : (T.group_id, M.response Queue.t) Hashtbl.t;
      (* from a join request until its reply, the group's deliveries,
         membership changes and state chunks, in arrival order *)
  mutable deliveries : int;
}

let member t = t.member

let is_connected t = Net.Tcp.is_open t.conn

let set_on_event t f = t.on_event <- Some f

let emit t event = match t.on_event with Some f -> f t event | None -> ()

let now t = Sim.Engine.now (Net.Fabric.engine t.fabric)

let expect t group kind k =
  let q =
    match Hashtbl.find_opt t.pending group with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.pending group q;
        q
  in
  Queue.add { e_kind = kind; e_k = k } q

(* Pop the oldest expectation satisfying [matches]; None if no such entry
   exists (then the message is a push event). *)
let take_expectation t group matches =
  match Hashtbl.find_opt t.pending group with
  | None -> None
  | Some q ->
      if (not (Queue.is_empty q)) && matches (Queue.peek q).e_kind then
        Some (Queue.pop q)
      else None

let resolve t group matches reply =
  match take_expectation t group matches with
  | Some e ->
      e.e_k reply;
      true
  | None -> false

(* --- replica maintenance --------------------------------------------- *)

let recent_cache_size = 128

let dummy_update =
  {
    T.seqno = -1;
    group = "";
    kind = T.Set_state;
    obj = "";
    data = "";
    sender = "";
    timestamp = 0.0;
  }

(* Apply the pending deliveries to the checkpoint, oldest first. *)
let fold_pending r =
  let n = r.gr_pending in
  r.gr_pending <- 0;
  for j = 0 to n - 1 do
    let idx = (r.gr_recent_head - n + j + recent_cache_size) mod recent_cache_size in
    Shared_state.apply r.gr_state r.gr_recent.(idx)
  done

(* The replica's state, current as of this call. *)
let state_of r =
  fold_pending r;
  r.gr_state

let apply_join_state t group at_seqno (state : M.join_state) held =
  match (state, Hashtbl.find_opt t.replicas.tbl group) with
  | M.Update_history updates, Some replica ->
      (* Resync onto the surviving replica (reconnection, [15]): replayed
         updates overlap-safely through the sequence-number guard. *)
      let st = state_of replica in
      List.iter
        (fun (u : T.update) ->
          if u.seqno > replica.gr_last_seqno then begin
            Shared_state.apply st u;
            replica.gr_last_seqno <- u.seqno
          end)
        updates;
      replica.gr_last_seqno <- max replica.gr_last_seqno (at_seqno - 1)
  | _ ->
      let replica =
        {
          gr_state = Shared_state.create ();
          gr_last_seqno = at_seqno - 1;
          gr_via_mcast = false;
          gr_recent = Array.make recent_cache_size dummy_update;
          gr_recent_n = 0;
          gr_recent_head = 0;
          gr_pending = 0;
          gr_own_exclusive = Queue.create ();
          gr_shard_next = no_shards;
        }
      in
      let st = state_of replica in
      (match state with
      | M.Snapshot { objects; log_tail } ->
          (* Paced chunks come first: the first slice of an object sets it,
             later slices append. *)
          let set_slices =
            List.iter (fun (obj, data) ->
                if Shared_state.mem st obj then Shared_state.append_object st obj data
                else Shared_state.set_object st obj data)
          in
          Queue.iter
            (function M.State_chunk { objects; _ } -> set_slices objects | _ -> ())
            held;
          set_slices objects;
          List.iter (fun u -> Shared_state.apply st u) log_tail
      | M.Update_history updates -> List.iter (fun u -> Shared_state.apply st u) updates);
      set_replica t.replicas group replica

(* Two stores. A ring full of pending entries is folded first, so no
   pending update is overwritten. *)
let remember_update replica (u : T.update) =
  if replica.gr_pending = recent_cache_size then fold_pending replica;
  replica.gr_recent.(replica.gr_recent_head) <- u;
  replica.gr_recent_head <- (replica.gr_recent_head + 1) mod recent_cache_size;
  if replica.gr_recent_n < recent_cache_size then
    replica.gr_recent_n <- replica.gr_recent_n + 1

(* A delivery's only write: into the ring, pending until the next read. *)
let defer_update replica u =
  remember_update replica u;
  replica.gr_pending <- replica.gr_pending + 1

(* The remembered updates with [seqno >= from_seqno], ascending (stable, so
   equal-seqno shard updates keep newest-first submission order, as the old
   list cache yielded them). *)
let recent_updates replica ~from_seqno =
  let n = replica.gr_recent_n in
  let acc = ref [] in
  for j = 0 to n - 1 do
    (* oldest → newest, so the consed accumulator comes out newest-first *)
    let idx =
      (replica.gr_recent_head - n + j + recent_cache_size) mod recent_cache_size
    in
    let u = replica.gr_recent.(idx) in
    if u.T.seqno >= from_seqno then acc := u :: !acc
  done;
  List.sort
    (fun (a : T.update) (b : T.update) -> Int.compare a.seqno b.seqno)
    !acc

(* --- multicast subscription (§5.3 hybrid mode) -------------------------- *)

let mcast_channel t group =
  Net.Multicast.channel t.fabric ~name:("corona-mcast:" ^ group)

let unsubscribe_mcast t group =
  Net.Multicast.leave (mcast_channel t group) t.host ~key:t.member ()

(* A delivery, whatever transport it came on. Our own sender-exclusive
   updates were applied at send time: swallow their multicast echo. One at
   or below the last seqno applied (a resent or re-fanned copy, or one the
   join state already covers) is dropped silently: it is neither counted
   nor raised. A delivery that arrives during a join of its group waits for
   the reply (see [handle_response]), so one for a group we hold no replica
   of here belongs to a group we left or a join that was refused (a relay
   snoops joins optimistically), and is dropped whole. *)
let handle_delivery t (u : T.update) =
  match hot_replica t.replicas u.group with
  | exception Not_found -> ()
  | r ->
      let own_exclusive_echo =
        String.equal u.sender t.member
        &&
        match Queue.peek_opt r.gr_own_exclusive with
        | Some (obj, data) when obj = u.obj && data = u.data ->
            ignore (Queue.pop r.gr_own_exclusive);
            r.gr_last_seqno <- max r.gr_last_seqno u.seqno;
            (* Fold first: the echo enters the ring already applied, and the
               pending entries must stay the newest ones. *)
            fold_pending r;
            remember_update r u;
            true
        | Some _ | None -> false
      in
      if (not own_exclusive_echo) && u.seqno > r.gr_last_seqno then begin
        t.deliveries <- t.deliveries + 1;
        defer_update r u;
        r.gr_last_seqno <- u.seqno;
        (* [Delivered] is a boxed constructor — only build it for a
           registered listener. *)
        match t.on_event with Some f -> f t (Delivered u) | None -> ()
      end
[@@corona.hot]

(* --- response dispatch ------------------------------------------------ *)

let is_lock_acquire lock = function E_lock_acquire l -> l = lock | _ -> false

let is_lock_release lock = function E_lock_release l -> l = lock | _ -> false

(* Whether a response for [group] waits for a join in flight. Allocates
   nothing, and reads one field while no join is. *)
let holds t group = Hashtbl.length t.held <> 0 && Hashtbl.mem t.held group

(* The join in flight is answered: what waited for it, oldest first. *)
let release t group =
  match Hashtbl.find_opt t.held group with
  | Some q ->
      Hashtbl.remove t.held group;
      q
  | None -> Queue.create ()

(* From a join request until its reply (§3.2: the state transfer, then the
   updates sequenced after it), the group's deliveries, membership changes
   and state chunks wait in [t.held], in arrival order: a relay forwards
   broadcasts and changes on another connection than the reply, and a
   chunked or deferred join answers after the member was added. The reply
   runs the join's continuation first, then replays them here. *)
let rec handle_response t (resp : M.response) =
  match resp with
  | (M.Deliver { group; _ } | M.Membership_changed { group; _ } | M.State_chunk { group; _ })
    when holds t group ->
      Queue.add resp (Hashtbl.find t.held group)
  | M.State_chunk _ -> (* of no join in flight *) ()
  | M.Group_created { group } -> ignore (resolve t group (fun e -> e = E_create) R_ok)
  | M.Group_deleted { group } ->
      unsubscribe_mcast t group;
      if not (resolve t group (fun e -> e = E_delete) R_ok) then begin
        remove_replica t.replicas group;
        Hashtbl.remove t.replicas.views group;
        emit t (Group_was_deleted group)
      end
  | M.Join_accepted { group; at_seqno; state; members; multicast } ->
      let held = release t group in
      apply_join_state t group at_seqno state held;
      (match Hashtbl.find_opt t.replicas.tbl group with
      | Some r -> r.gr_via_mcast <- multicast
      | None -> ());
      if not multicast then unsubscribe_mcast t group;
      ignore (resolve t group (fun e -> e = E_join) (R_join { at_seqno; members }));
      replay t held ~from_seqno:at_seqno
  | M.Left { group } ->
      unsubscribe_mcast t group;
      remove_replica t.replicas group;
      Hashtbl.remove t.replicas.views group;
      ignore (resolve t group (fun e -> e = E_leave) R_ok)
  | M.Membership_info { group; members } ->
      ignore (resolve t group (fun e -> e = E_membership) (R_membership members))
  | M.Membership_changed { group; change } ->
      Option.iter
        (fun v -> Member_view.note v change)
        (Hashtbl.find_opt t.replicas.views group);
      emit t (Membership_changed { group; change })
  | M.Deliver u -> handle_delivery t u
  | M.Lock_granted { group; lock } ->
      if not (resolve t group (is_lock_acquire lock) (R_lock `Granted)) then
        emit t (Lock_granted_later { group; lock })
  | M.Lock_busy { group; lock; holder } ->
      ignore (resolve t group (is_lock_acquire lock) (R_lock (`Busy holder)))
  | M.Lock_released { group; lock } ->
      ignore (resolve t group (is_lock_release lock) (R_lock `Released))
  | M.Log_reduced { group; upto } ->
      ignore (resolve t group (fun e -> e = E_reduce) (R_reduced upto))
  | M.Resend_request { group; from_seqno } ->
      (* §6 sender-assisted recovery: return whatever we still hold with the
         original sequence numbers; always answer, even empty, so the server
         can finish our join. *)
      let updates =
        match Hashtbl.find_opt t.replicas.tbl group with
        | Some r -> recent_updates r ~from_seqno
        | None -> []
      in
      if is_connected t then
        M.send t.conn (M.Request (M.Resend { group; member = t.member; updates }))
  | M.Request_failed { group; reason } -> (
      match take_expectation t group (fun _ -> true) with
      | Some e when e.e_kind = E_join ->
          let held = release t group in
          e.e_k (R_failed reason);
          replay t held ~from_seqno:min_int
      | Some e -> e.e_k (R_failed reason)
      | None -> ())
  | M.Pong { nonce } -> (
      match Hashtbl.find_opt t.pings nonce with
      | Some (sent, k) ->
          Hashtbl.remove t.pings nonce;
          k ~rtt:(now t -. sent)
      | None -> ())
  | M.Shard_deliver { shard; update = u } -> (
      match Hashtbl.find_opt t.replicas.tbl u.group with
      | None -> ()
      | Some replica ->
          (* The per-shard guard replaces the group-wide one: [u.seqno]
             counts within shard [shard]'s stream only. *)
          if u.seqno >= shard_next replica shard then begin
            set_shard_next replica shard (u.seqno + 1);
            defer_update replica u;
            t.deliveries <- t.deliveries + 1;
            emit t (Shard_delivered { shard; update = u })
          end)
  | M.Shard_view { group; bar; vector; op } ->
      emit t (Shard_view { group; bar; vector; op })
  | M.Shard_joined { group; vector } ->
      (match Hashtbl.find_opt t.replicas.tbl group with
      | Some replica ->
          List.iteri
            (fun shard next ->
              if next > shard_next replica shard then set_shard_next replica shard next)
            vector
      | None -> ());
      emit t (Shard_joined { group; vector })
  | M.Relay_fanout _ ->
      (* Fan-out frames terminate at relays, never at member clients; a
         stray one is ignored. *)
      ()

(* What waited for a join, through the ordinary handlers: chunks of no join
   in flight are dropped there, and so are deliveries of a group with no
   replica. The join state covers the updates sequenced before
   [from_seqno]. *)
and replay t held ~from_seqno =
  Queue.iter
    (function
      | M.Deliver u when u.T.seqno < from_seqno -> ()
      | resp -> handle_response t resp)
    held

let subscribe_mcast t group =
  Net.Multicast.join (mcast_channel t group) t.host ~key:t.member
    ~handler:(fun ~size:_ payload ->
      match payload with
      | M.Corona (M.Response (M.Deliver u as resp)) when u.T.group = group ->
          handle_response t resp
      | M.Corona _ | _ -> ())
    ()

let connect_internal fabric ~host ~server ~port ~member ~on_event ~replicas
    ~deliveries ~on_connected ~on_failed () =
  Net.Tcp.connect fabric ~src:host ~dst:server ~port
    ~on_connected:(fun conn ->
      let t =
        {
          fabric;
          conn;
          host;
          server;
          port;
          member;
          on_event;
          pending = Hashtbl.create 8;
          pings = Hashtbl.create 8;
          next_nonce = 0;
          replicas;
          held = Hashtbl.create 4;
          deliveries;
        }
      in
      Net.Tcp.set_on_close conn (fun reason -> emit t (Disconnected reason));
      Net.Tcp.set_receiver conn (fun ~size:_ payload ->
          match payload with
          | M.Corona (M.Response resp) -> handle_response t resp
          | M.Corona (M.Request _) | _ -> ());
      on_connected t)
    ~on_failed ()

let connect fabric ~host ~server ?(port = 7000) ~member ?on_event ~on_connected
    ~on_failed () =
  connect_internal fabric ~host ~server ~port ~member ~on_event
    ~replicas:(create_replicas ()) ~deliveries:0 ~on_connected ~on_failed ()

(* Reconnection with state resync (the companion paper's client/link failure
   handling): the new endpoint inherits the member identity, event handler
   and — crucially — the local replicas, so {!rejoin} only has to fetch the
   missed suffix. [?server]/[?port] retarget the reconnect — a member whose
   relay crashed fails over to a sibling relay this way. *)
let reconnect t ?server ?port ~on_connected ~on_failed () =
  connect_internal t.fabric ~host:t.host
    ~server:(Option.value server ~default:t.server)
    ~port:(Option.value port ~default:t.port)
    ~member:t.member ~on_event:t.on_event ~replicas:t.replicas
    ~deliveries:t.deliveries ~on_connected ~on_failed ()

let send t msg = if is_connected t then M.send t.conn (M.Request msg)

let disconnect t =
  Hashtbl.iter (fun group _ -> unsubscribe_mcast t group) t.replicas.tbl;
  if is_connected t then Net.Tcp.close t.conn

(* --- requests --------------------------------------------------------- *)

let create_group t ~group ?(persistent = false) ?(initial = []) ~k () =
  expect t group E_create k;
  send t (M.Create_group { group; creator = t.member; persistent; initial })

let delete_group t ~group ~k =
  expect t group E_delete k;
  send t (M.Delete_group { group; requester = t.member })

let join t ~group ?(role = T.Principal) ?(transfer = T.Full_state) ?(notify = true)
    ~k () =
  (* Only a subscriber keeps a view: nobody would tell anyone else of a
     change. The view settles on the reply's list before [k] runs; a refused
     join keeps the one an earlier join settled. *)
  expect t group E_join (fun reply ->
      (match reply with
      | R_join { members; _ } when notify ->
          Hashtbl.replace t.replicas.views group (Member_view.of_list members)
      | R_join _ -> Hashtbl.remove t.replicas.views group
      | _ -> ());
      k reply);
  if not (Hashtbl.mem t.held group) then Hashtbl.replace t.held group (Queue.create ());
  (* Subscribe before the request travels: every delivery multicast after
     the server processes the join is already audible. The subscription is
     dropped again if the server answers [multicast = false]. *)
  if Net.Host.multicast_capable t.host then subscribe_mcast t group;
  send t (M.Join { group; member = t.member; role; transfer; notify })

let rejoin t ~group ?(role = T.Principal) ?(notify = true) ~k () =
  let transfer =
    match Hashtbl.find_opt t.replicas.tbl group with
    | Some r -> T.Updates_since (r.gr_last_seqno + 1)
    | None -> T.Full_state
  in
  join t ~group ~role ~transfer ~notify ~k ()

let leave t ~group ~k =
  expect t group E_leave k;
  send t (M.Leave { group; member = t.member })

let get_membership t ~group ~k =
  expect t group E_membership k;
  send t (M.Get_membership { group })

let bcast t ~group ~kind ~obj ~data ~mode =
  (match mode with
  | T.Sender_exclusive -> (
      (* Optimistic local apply: the server will not echo it back over TCP,
         and the multicast echo (which cannot exclude us) is swallowed by
         [handle_delivery]. *)
      match Hashtbl.find_opt t.replicas.tbl group with
      | Some replica ->
          if replica.gr_via_mcast then Queue.add (obj, data) replica.gr_own_exclusive;
          let u =
            {
              T.seqno = replica.gr_last_seqno; (* not sequenced locally *)
              group;
              kind;
              obj;
              data;
              sender = t.member;
              timestamp = now t;
            }
          in
          Shared_state.apply (state_of replica) u
      | None -> ())
  | T.Sender_inclusive -> ());
  send t (M.Bcast { group; sender = t.member; kind; obj; data; mode })

let bcast_state t ~group ~obj ~data ?(mode = T.Sender_inclusive) () =
  bcast t ~group ~kind:T.Set_state ~obj ~data ~mode

let bcast_update t ~group ~obj ~data ?(mode = T.Sender_inclusive) () =
  bcast t ~group ~kind:T.Append_update ~obj ~data ~mode

let acquire_lock t ~group ~lock ~k =
  expect t group (E_lock_acquire lock) k;
  send t (M.Acquire_lock { group; lock; member = t.member })

let release_lock t ~group ~lock ~k =
  expect t group (E_lock_release lock) k;
  send t (M.Release_lock { group; lock; member = t.member })

let reduce_log t ~group ~k =
  expect t group E_reduce k;
  send t (M.Reduce_log { group; member = t.member })

let ping t ~k =
  let nonce = t.next_nonce in
  t.next_nonce <- nonce + 1;
  Hashtbl.replace t.pings nonce (now t, k);
  send t (M.Ping { nonce })

(* --- replica accessors ------------------------------------------------ *)

let replica t group =
  Option.map state_of (Hashtbl.find_opt t.replicas.tbl group)

let members t ~group =
  match Hashtbl.find_opt t.replicas.views group with
  | Some v -> Member_view.to_list v
  | None -> []

let joined_groups t =
  Hashtbl.fold (fun g _ acc -> g :: acc) t.replicas.tbl [] |> List.sort String.compare

let last_seqno t group =
  Option.map (fun r -> r.gr_last_seqno) (Hashtbl.find_opt t.replicas.tbl group)

let shard_positions t group =
  Option.map
    (fun r -> Array.to_list r.gr_shard_next)
    (Hashtbl.find_opt t.replicas.tbl group)

let deliveries_received t = t.deliveries
