module T = Proto.Types
module M = Proto.Message
module SL = Corona.State_log
module E = Corona.Group_engine

type config = {
  client_port : int;
  server_port : int;
  heartbeat_interval : float;
  failure_timeout : float;
  reduction : SL.reduction_policy;
  access : Corona.Access_control.t;
  relaxed_membership : bool;
  shards : int;
}

let default_config =
  {
    client_port = 7000;
    server_port = 7100;
    heartbeat_interval = 0.5;
    failure_timeout = 1.6;
    reduction = SL.No_reduction;
    access = Corona.Access_control.allow_all;
    relaxed_membership = false;
    shards = 1;
  }

(* Escalation unit of the election; also paces the barrier re-prepare. *)
let election_timeout = 0.4

type role = Coordinator | Replica

type barrier_phase = Prepare | Commit

type barrier_step = {
  bar : int;
  group : T.group_id;
  phase : barrier_phase;
  vector : int list; (* [] at [Prepare]: slots are not yet known *)
  op : string;
}

type hooks = {
  lock_table : T.group_id -> Corona.Locks.event -> unit;
  barrier_step : (barrier_step -> unit) option;
  skip_barrier : bool;
}

let no_hooks = { lock_table = (fun _ -> ignore); barrier_step = None; skip_barrier = false }

type stats = {
  fwd_bcasts : int;
  sequenced : int;
  applied : int;
  deliveries_sent : int;
  relay_frames_sent : int;
  elections_started : int;
  took_over_at : float option;
}

module SH = Ordering.Shard_holdback

(* Local copy of a group at a replica: one state log per sequencing shard —
   disjoint (group, object-id) slices, each its own contiguous seqno stream
   and WAL — behind one hold-back that releases every stream in order and
   interleaves barrier-stamped ops identically on every replica. A classic
   copy is the one-shard case; its log keeps the plain group name.
   [rg_logs = None] while the state fetch is in flight. *)
type rgroup = {
  rg_id : T.group_id;
  mutable rg_persistent : bool;
  mutable rg_logs : SL.t array option;
  rg_local : Corona.Membership.t; (* clients of this replica *)
  mutable rg_global : T.member list;
  rg_hb :
    ( T.update * T.delivery_mode * Smsg.origin_tag,
      int * int array * Smsg.shard_op )
    SH.t;
  rg_last_og : (int * Smsg.server_id, int) Hashtbl.t;
      (* duplicate filter: (shard, origin server) -> last og_seq applied. A
         classic copy is shard 0; sharded, one origin's forwards spray
         across shards, so a single per-origin watermark would not be
         monotone. *)
  mutable rg_expecting_blob : bool; (* a State_blob is on its way *)
}

(* A cross-shard barrier the coordinator is collecting positions for. *)
type inflight_barrier = {
  ib_bar : int;
  ib_group : T.group_id;
  ib_op : Smsg.shard_op;
  mutable ib_pos : (int * int) list; (* collected (shard, next) *)
  mutable ib_started : float; (* for the re-prepare retry *)
}

(* A [State_blob]'s copy of a group. *)
type blob = {
  bl_at : int;
  bl_objects : (T.object_id * string) list;
  bl_error : string option;
  bl_shards : (int * int) list;
}

type pending_join = {
  pj_conn : Net.Tcp.conn;
  pj_transfer : T.transfer_spec;
  pj_notify : bool;
  mutable pj_result : int option; (* the group's next seqno, from Join_result *)
  mutable pj_admitted : bool;
      (* the directory took the join: at [Join_result] on a classic copy, at
         its view barrier on a sharded one *)
}

(* The coordinator's open directory-recovery round. *)
type round = {
  mutable r_waiting : Smsg.server_id list; (* servers still to answer *)
  mutable r_reports : (Smsg.server_id * Smsg.dir_report list) list;
      (* newest first; our own report is the oldest *)
}

type t = {
  fabric : Net.Fabric.t;
  node_host : Net.Host.t;
  self : Smsg.server_id;
  cfg : config;
  storage : Corona.Server_storage.t;
  server_list : Smsg.server_id list;
  mutable alive : Smsg.server_id list; (* believed up, in server_list order *)
  mutable coord : Smsg.server_id;
  mutable node_role : role;
  (* coordinator state *)
  dir : Directory.t;
  mutable round : round option; (* requests wait in [coord_buffer] while open *)
  mutable coord_buffer : (Smsg.server_id * Smsg.t) list; (* newest first *)
  (* replica state *)
  rgroups : (T.group_id, rgroup) Hashtbl.t;
  early_blobs : (T.group_id, blob) Hashtbl.t;
      (* a blob that overtook its [Add_replica] or [Join_result] (a resent
         packet): kept until one of them marks the copy as expecting it *)
  (* mesh *)
  peers : (Smsg.server_id, Net.Tcp.conn) Hashtbl.t;
  outbox : (Smsg.server_id, Smsg.t list) Hashtbl.t;
      (* messages for peers whose mesh connection is still handshaking *)
  peer_batch : Net.Tcp.batch; (* [send_peers] fill buffer, refilled per send *)
  mutable conn_ids : (int * Smsg.server_id) list; (* conn id -> peer *)
  eng : Corona.Group_engine.t; (* clients *)
  (* request correlation *)
  pending_create :
    ( T.group_id,
      Net.Tcp.conn * T.member_id * bool * (T.object_id * string) list )
    Hashtbl.t; (* conn, creator, persistent, initial *)
  pending_delete : (T.group_id, Net.Tcp.conn * T.member_id) Hashtbl.t;
      (* conn, requester *)
  pending_join : (T.group_id * T.member_id, pending_join) Hashtbl.t;
  pending_lock : (T.group_id * T.lock_id * T.member_id, Net.Tcp.conn) Hashtbl.t;
  mutable fwd_seq : int;
  pending_bcast : (int, Smsg.t) Hashtbl.t; (* og_seq -> Fwd_bcast *)
  (* liveness *)
  last_seen : (Smsg.server_id, float) Hashtbl.t;
  election : Election.List_order.t Lazy.t;
  mutable stopped : bool;
  node_epoch : int; (* host epoch at creation; a crash orphans this node *)
  mutable s_fwd_bcasts : int;
  mutable s_sequenced : int;
  mutable s_applied : int;
  mutable s_elections_started : int;
  mutable s_took_over_at : float option;
  seq_dedup : (T.group_id * int * Smsg.server_id, int) Hashtbl.t;
      (* sequencer side: last og_seq sequenced per (group, shard, origin), so
         a resend is not stamped twice (classic: shard 0) *)
  (* sharded sequencing (cfg.shards > 1; all empty otherwise) *)
  mutable shard_epoch : int;
  mutable shard_owners : Smsg.server_id array; (* shard_owners.(s) sequences s *)
  seq_alloc : (T.group_id * int, int) Hashtbl.t;
      (* owner side: next seqno per (group, shard) — standalone, because the
         owner of a shard need not hold a copy of every group it sequences *)
  frozen : (T.group_id, int) Hashtbl.t; (* owner side: group -> barrier id *)
  freeze_q : (T.group_id, Smsg.t list) Hashtbl.t;
      (* forwards parked while frozen, newest first *)
  (* coordinator barrier engine *)
  mutable bar_next : int;
  bar_queue : (T.group_id, Smsg.shard_op list) Hashtbl.t; (* newest first *)
  mutable bar_inflight : inflight_barrier list;
  hooks : hooks;
}

let now t = Sim.Engine.now (Net.Fabric.engine t.fabric)

(* Raise a watermark (seqno, og_seq: never negative) to at least [v]. *)
let raise_max tbl key v =
  if v > Option.value (Hashtbl.find_opt tbl key) ~default:(-1) then Hashtbl.replace tbl key v

let id t = t.self

let host t = t.node_host

let fabric t = t.fabric

let role t = t.node_role

let stats t =
  let c = Corona.Group_engine.counters t.eng in
  {
    fwd_bcasts = t.s_fwd_bcasts;
    sequenced = t.s_sequenced;
    applied = t.s_applied;
    deliveries_sent = c.responses_sent + c.deliveries_sent;
    relay_frames_sent = c.relay_frames_sent;
    elections_started = t.s_elections_started;
    took_over_at = t.s_took_over_at;
  }

let transfer_cache_stats t =
  Corona.Transfer.cache_stats (Corona.Group_engine.transfer_cache t.eng)

let is_current t =
  (not t.stopped)
  && Net.Host.is_alive t.node_host
  && Net.Host.epoch t.node_host = t.node_epoch

(* --- inspection -------------------------------------------------------- *)

let groups_held t =
  Hashtbl.fold (fun g rg acc -> if rg.rg_logs <> None then g :: acc else acc) t.rgroups []
  |> List.sort String.compare

(* The group-wide log: only a one-shard copy has one. *)
let group_log rg = match rg.rg_logs with Some [| log |] -> Some log | Some _ | None -> None

let log_of t g = Option.bind (Hashtbl.find_opt t.rgroups g) group_log

let group_state t g = Option.map SL.state (log_of t g)

let group_next_seqno t g = Option.map SL.next_seqno (log_of t g)

let group_updates_from t g from =
  match log_of t g with Some log -> SL.updates_from log from | None -> []

let group_base t g = Option.map SL.base (log_of t g)

let group_local_members t g =
  match Hashtbl.find_opt t.rgroups g with
  | Some rg -> Corona.Membership.members rg.rg_local
  | None -> []

(* --- sharded inspection ------------------------------------------------- *)

(* A seeded copy, or None. *)
let held t g =
  match Hashtbl.find_opt t.rgroups g with
  | Some ({ rg_logs = Some logs; _ } as rg) -> Some (rg, logs)
  | Some { rg_logs = None; _ } | None -> None

let group_shard_vector t g = Option.map (fun (rg, _) -> SH.positions rg.rg_hb) (held t g)

(* Merged materialized objects of a copy: shard slices are disjoint by
   construction, so concatenation (re-sorted by id) is the group state. *)
let shard_snapshot_objects logs =
  let objs =
    Array.fold_left
      (fun acc log -> List.rev_append (Corona.Shared_state.objects (SL.state log)) acc)
      [] logs
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) objs

let group_shard_objects t g =
  Option.map (fun (_, logs) -> shard_snapshot_objects logs) (held t g)

let shard_epoch t = t.shard_epoch

let shard_owners t = Array.copy t.shard_owners

let sharded t = t.cfg.shards > 1

(* --- §4.1 relaxed membership -------------------------------------------- *)

(* A join or leave "does not directly affect the other members", so the
   origin replica tells its own clients before the coordinator round-trip.
   The coordinator skips the origin when it fans the change, so no whole
   list will carry it there: the origin applies it to its copy's list the
   way a subscriber applies it to its view. *)
let relaxed_change t rg change =
  let view = Corona.Member_view.of_list rg.rg_global in
  Corona.Member_view.note view change;
  rg.rg_global <- Corona.Member_view.to_list view;
  E.notify t.eng rg.rg_local ~group:rg.rg_id change

(* --- server mesh ------------------------------------------------------- *)

(* [@@corona.cold] cuts R8 reachability here: self-delivery re-enters the
   event loop through the full dispatch tree, and treating that edge as a
   synchronous hot call would mark every handler in this module hot. The
   genuinely hot continuation (sequenced delivery) is rooted separately at
   [apply]. *)
let rec handle_smsg t ~from msg = dispatch_smsg t ~from msg [@@corona.cold]

and send_srv t dst msg =
  if dst = t.self then handle_smsg t ~from:t.self msg
  else begin
    match Hashtbl.find_opt t.peers dst with
    | Some conn when Net.Tcp.is_open conn -> Smsg.send ~sharded:(sharded t) conn msg
    | Some _ -> () (* peer died; higher-level retries cover it *)
    | None ->
        (* The mesh handshake has not completed yet (it races the first
           client requests at startup): park the message. *)
        let q = Option.value (Hashtbl.find_opt t.outbox dst) ~default:[] in
        Hashtbl.replace t.outbox dst (msg :: q)
  end

(* --- rgroup lifecycle --------------------------------------------------- *)

and make_rgroup t group =
  let rg =
    {
      rg_id = group;
      rg_persistent = false;
      rg_logs = None;
      rg_local = Corona.Membership.create ();
      rg_global = [];
      rg_hb = SH.create ~shards:t.cfg.shards ();
      rg_last_og = Hashtbl.create 8;
      rg_expecting_blob = false;
    }
  in
  Hashtbl.replace t.rgroups group rg;
  rg

and rgroup_of t group =
  match Hashtbl.find_opt t.rgroups group with
  | Some rg -> rg
  | None -> make_rgroup t group

(* The log of one shard of a group, on its own WAL: a classic copy's single
   log keeps the plain group name. *)
and shard_log_name t group shard =
  if sharded t then group ^ "#" ^ string_of_int shard else group

(* One log per shard, stream [s] starting at [vector.(s)] with the objects
   [by_shard.(s)]. *)
and make_logs t rg ~vector ~by_shard =
  Array.init t.cfg.shards (fun s ->
      let name = shard_log_name t rg.rg_id s in
      let wal = Corona.Server_storage.wal_for t.storage name in
      SL.create ~group:name ~persistent:rg.rg_persistent ~wal
        ~checkpoints:(Corona.Server_storage.checkpoints t.storage)
        ~policy:t.cfg.reduction ~at_seqno:vector.(s) ~initial:by_shard.(s) ())

(* Seed (or overwrite) a copy from a snapshot: objects are routed to their
   shard's log by the same deterministic map the sequencers use, and each
   stream starts at the snapshot's position for it ([positions] lists
   (shard, next); a missing shard starts at 0). *)
and seed_rgroup t rg ~objects ~positions =
  let shards = t.cfg.shards in
  let vector = Array.make shards 0 in
  List.iter (fun (s, n) -> if s >= 0 && s < shards then vector.(s) <- n) positions;
  let by_shard = Array.make shards [] in
  List.iter
    (fun (obj, data) ->
      let s = Ordering.Shard_map.shard_of ~shards ~group:rg.rg_id ~obj in
      by_shard.(s) <- (obj, data) :: by_shard.(s))
    objects;
  SH.reset rg.rg_hb ~vector;
  rg.rg_logs <- Some (make_logs t rg ~vector ~by_shard:(Array.map List.rev by_shard));
  (* Sharded, the per-shard duplicate filters restart with the streams; a
     classic copy keeps the watermarks of updates it applied while its
     state was in flight. *)
  if sharded t then Hashtbl.reset rg.rg_last_og;
  rg.rg_expecting_blob <- false;
  (* The adopted positions may already satisfy a parked barrier. *)
  run_actions t rg (SH.poll rg.rg_hb);
  complete_ready_joins t rg

(* A sharded copy logs from its first sequenced update or barrier on, at
   position 0, before any state arrives (a seed overwrites it). *)
and logs_of t rg =
  match rg.rg_logs with
  | Some logs -> logs
  | None ->
      let shards = t.cfg.shards in
      let logs =
        make_logs t rg ~vector:(Array.make shards 0) ~by_shard:(Array.make shards [])
      in
      rg.rg_logs <- Some logs;
      logs

and drop_rgroup t group =
  (match Hashtbl.find_opt t.rgroups group with
  | Some rg ->
      E.forget_group t.eng rg.rg_local ~group;
      Option.iter
        (Array.iteri (fun s log ->
             SL.delete_durable log;
             Corona.Server_storage.drop_group t.storage (shard_log_name t group s)))
        rg.rg_logs
  | None -> ());
  Corona.Server_storage.drop_group t.storage group;
  Hashtbl.remove t.early_blobs group;
  Hashtbl.remove t.rgroups group

(* --- join completion ---------------------------------------------------- *)

(* Admit a pending joiner to the local table with the role the directory
   recorded and the notify flag it asked for. *)
and admit t rg member (pj : pending_join) =
  Hashtbl.remove t.pending_join (rg.rg_id, member);
  let role =
    match List.find_opt (fun (m : T.member) -> m.member = member) rg.rg_global with
    | Some m -> m.role
    | None -> T.Principal
  in
  E.add_member t.eng rg.rg_local ~group:rg.rg_id ~member ~role ~notify:pj.pj_notify

(* The one place a join completes: once it is admitted and the copy is
   seeded. A classic joiner takes its state from the group-wide log; a
   sharded one the merged snapshot and, as its per-stream baseline, the
   copy's positions. The joiner gets the copy's current
   view: every view change since its admission is already in it, and every
   later one reaches the joiner as a notification. *)
and complete_join t rg member (pj : pending_join) =
  match rg.rg_logs with
  | Some logs when pj.pj_admitted && not rg.rg_expecting_blob -> (
      admit t rg member pj;
      match logs with
      | [| log |] ->
          E.accept_join t.eng pj.pj_conn ~group:rg.rg_id ~members:rg.rg_global
            ~members_size:(M.members_size rg.rg_global) ~multicast:false
            (E.join_state t.eng (`Log log) pj.pj_transfer)
      | _ ->
          if Net.Tcp.is_open pj.pj_conn then begin
            E.send t.eng pj.pj_conn
              (M.Join_accepted
                 {
                   group = rg.rg_id;
                   at_seqno = 0;
                   state =
                     M.Snapshot { objects = shard_snapshot_objects logs; log_tail = [] };
                   members = rg.rg_global;
                   multicast = false;
                 });
            E.send t.eng pj.pj_conn
              (M.Shard_joined
                 { group = rg.rg_id; vector = Array.to_list (SH.positions rg.rg_hb) })
          end)
  | Some _ | None -> ()

and complete_ready_joins t rg =
  let ready =
    Hashtbl.fold
      (fun (g, m) pj acc -> if g = rg.rg_id && pj.pj_admitted then (m, pj) :: acc else acc)
      t.pending_join []
  in
  List.iter (fun (m, pj) -> complete_join t rg m pj) ready

(* --- applying sequenced updates ------------------------------------------ *)

(* Offer a sequenced update of [shard] (0 on a classic copy) to the copy's
   hold-back, apply whatever became deliverable, and fetch the missing
   suffix of that stream from the coordinator if it has a gap. *)
and offer t rg ~shard (u : T.update) mode origin =
  if sharded t then ignore (logs_of t rg);
  run_actions t rg (SH.offer rg.rg_hb ~shard ~seqno:u.seqno (u, mode, origin));
  match SH.gap rg.rg_hb ~shard with
  | None -> ()
  | Some (from_seqno, _) ->
      send_srv t t.coord
        (Smsg.Fetch_updates { from = t.self; group = rg.rg_id; shard; from_seqno })

(* Repaired updates carry no origin tag: [apply] skips the duplicate filter
   for them. *)
and offer_repairs t group ~shard updates =
  match Hashtbl.find_opt t.rgroups group with
  | None -> ()
  | Some rg ->
      List.iter
        (fun u ->
          offer t rg ~shard u T.Sender_inclusive { Smsg.og_server = ""; og_seq = 0 })
        updates

(* Consume the seqno even for duplicates (re-sequenced after failover) so the
   hold-back stream stays contiguous everywhere. An empty origin marks a
   gap-repair delivery, which bypasses the duplicate filter. *)
and apply t rg ~shard (u : T.update) mode (origin : Smsg.origin_tag) =
  let key = (shard, origin.og_server) in
  let duplicate =
    origin.og_server <> ""
    &&
    match Hashtbl.find_opt rg.rg_last_og key with
    | Some last -> origin.og_seq <= last
    | None -> false
  in
  if origin.og_server <> "" then Hashtbl.replace rg.rg_last_og key origin.og_seq;
  if origin.og_server = t.self then Hashtbl.remove t.pending_bcast origin.og_seq;
  if not duplicate then begin
    (match rg.rg_logs with
    | Some logs -> SL.apply_sequenced logs.(shard) u
    | None -> ());
    let resp = if sharded t then M.Shard_deliver { shard; update = u } else M.Deliver u in
    t.s_applied <- t.s_applied + 1;
    let exclude =
      match mode with T.Sender_exclusive -> Some u.sender | T.Sender_inclusive -> None
    in
    E.deliver t.eng rg.rg_local ~group:rg.rg_id ?exclude resp
  end
[@@corona.hot]

(* --- sharded sequencing --------------------------------------------------- *)

and shard_owner t shard =
  if Array.length t.shard_owners = 0 then t.coord else t.shard_owners.(shard)

(* Stream positions come from the hold-back, not the logs: a re-sequenced
   duplicate consumes its slot everywhere but is never logged (the classic
   duplicate-filter contract), so the log's next seqno may trail. *)
and shard_positions rg =
  Array.to_list (Array.mapi (fun s n -> (s, n)) (SH.positions rg.rg_hb))

(* One batched transmit of [msg] to [servers] in list order, minus
   [except]. Self-delivery (synchronous [handle_smsg]) happens after the peer
   sends are issued — a deterministic, uniform order regardless of where
   [t.self] sits in the list. *)
and send_peers t ?except servers msg =
  let deliver_self = ref false in
  Net.Tcp.batch_clear t.peer_batch;
  List.iter
    (fun srv ->
      let skipped = match except with Some skip -> skip = srv | None -> false in
      if skipped then ()
      else if srv = t.self then deliver_self := true
      else
        match Hashtbl.find_opt t.peers srv with
        | Some conn when Net.Tcp.is_open conn -> Net.Tcp.batch_add t.peer_batch conn
        | Some _ -> () (* peer died; higher-level retries cover it *)
        | None ->
            (* Mesh handshake not complete: park the message. *)
            let q = Option.value (Hashtbl.find_opt t.outbox srv) ~default:[] in
            Hashtbl.replace t.outbox srv (msg :: q))
    servers;
  Smsg.send_batch ~sharded:(sharded t) t.peer_batch msg;
  if !deliver_self then handle_smsg t ~from:t.self msg
[@@corona.hot]

(* Owner side: stamp the next seqno of the (group, shard) stream and fan the
   sequenced update to every server believed alive — an owner need not know
   the directory, and servers without a copy of the group ignore it. While a
   barrier freeze is pending for the group, forwards park in the freeze
   queue and replay on unfreeze. *)
and owner_sequence t msg ~origin ~epoch:_ ~shard ~group ~sender ~kind ~obj ~data
    ~mode =
  if shard_owner t shard <> t.self then
    (* Stale routing during reassignment: hand the forward to the server we
       believe owns the shard now (views converge via Shard_assign). *)
    send_srv t (shard_owner t shard) msg
  else if Hashtbl.mem t.frozen group then
    let q = Option.value (Hashtbl.find_opt t.freeze_q group) ~default:[] in
    Hashtbl.replace t.freeze_q group (msg :: q)
  else if first_sequencing t ~group ~shard origin then begin
    let akey = (group, shard) in
    let seqno = Option.value (Hashtbl.find_opt t.seq_alloc akey) ~default:0 in
    Hashtbl.replace t.seq_alloc akey (seqno + 1);
    t.s_sequenced <- t.s_sequenced + 1;
    let u = { T.seqno; group; kind; obj; data; sender; timestamp = now t } in
    send_peers t t.alive
      (Smsg.Sequenced { epoch = t.shard_epoch; shard; origin; update = u; mode })
  end

(* Sequencer-side duplicate filter, shared by the coordinator (shard 0) and
   the shard owners: a forward re-sent after a failover may already carry a
   seqno — and may have been repaired onto every copy without its origin
   tag — so it must not be stamped twice. *)
and first_sequencing t ~group ~shard (origin : Smsg.origin_tag) =
  let key = (group, shard, origin.og_server) in
  match Hashtbl.find_opt t.seq_dedup key with
  | Some last when origin.og_seq <= last -> false
  | Some _ | None ->
      Hashtbl.replace t.seq_dedup key origin.og_seq;
      true

and run_actions t rg = function
  | [] -> ()
  | SH.Deliver (shard, (u, mode, origin)) :: rest ->
      apply t rg ~shard u mode origin;
      run_actions t rg rest
  | SH.Barrier (bar, vector, op) :: rest ->
      apply_shard_op t rg ~bar ~vector op;
      run_actions t rg rest

(* A cross-shard op fires at its stamped vector: every replica runs this at
   the same point of all N streams. *)
and apply_shard_op t rg ~bar ~vector op =
  let group = rg.rg_id in
  (match op with
  | Smsg.Op_view { change; members; origin } ->
      apply_view t rg change ~members ~admits:(origin = t.self)
  | Smsg.Op_lock { lock; member } -> lock_reply t ~group ~lock ~member `Granted);
  E.fan_out t.eng rg.rg_local ~group
    (M.Shard_view
       {
         group;
         bar;
         vector = Array.to_list vector;
         op = Smsg.shard_op_label op;
       })

(* A view change, from a [Membership_update] or at its barrier: when it
   [admits], the join it announces is one this server forwarded, and it may
   now complete. *)
and apply_view t rg change ~members ~admits =
  let group = rg.rg_id in
  rg.rg_global <- members;
  (match change with
  | T.Member_left m | T.Member_crashed m -> ignore (E.remove_member t.eng rg.rg_local ~group m)
  | T.Member_joined { member; _ } -> (
      match Hashtbl.find_opt t.pending_join (group, member) with
      | Some pj when admits ->
          pj.pj_admitted <- true;
          complete_join t rg member pj
      | Some _ | None -> ()));
  E.notify t.eng rg.rg_local ~group change

(* Answer the member's pending lock request here, or — a deferred grant —
   push it to the member at whichever replica serves it (elsewhere a
   no-op). *)
and lock_reply t ~group ~lock ~member result =
  let key = (group, lock, member) in
  match Hashtbl.find_opt t.pending_lock key with
  | Some conn -> (
      Hashtbl.remove t.pending_lock key;
      if Net.Tcp.is_open conn then
        match result with
        | `Granted -> E.send t.eng conn (M.Lock_granted { group; lock })
        | `Busy holder -> E.send t.eng conn (M.Lock_busy { group; lock; holder })
        | `Released -> E.send t.eng conn (M.Lock_released { group; lock })
        | `Error reason -> E.fail t.eng conn group reason)
  | None -> (
      match result with
      | `Granted -> E.send_member t.eng member (M.Lock_granted { group; lock })
      | `Busy _ | `Released | `Error _ -> ())

(* --- coordinator: barrier engine ------------------------------------------ *)

and report_barrier t ~bar ~group ~phase ~vector ~op =
  match t.hooks.barrier_step with
  | None -> ()
  | Some observe ->
      observe
        { bar; group; phase; vector = Array.to_list vector; op = Smsg.shard_op_label op }

and barrier_submit t group op =
  let q = Option.value (Hashtbl.find_opt t.bar_queue group) ~default:[] in
  Hashtbl.replace t.bar_queue group (op :: q);
  (* One barrier in flight per group: freezing is per group, and serial
     barriers keep the owners' position reports unambiguous. *)
  if not (List.exists (fun ib -> ib.ib_group = group) t.bar_inflight) then
    barrier_start t group

and barrier_start t group =
  match List.rev (Option.value (Hashtbl.find_opt t.bar_queue group) ~default:[]) with
  | [] -> ()
  | op :: rest ->
      Hashtbl.replace t.bar_queue group (List.rev rest);
      let bar = t.bar_next in
      t.bar_next <- bar + 1;
      let ib =
        { ib_bar = bar; ib_group = group; ib_op = op; ib_pos = []; ib_started = now t }
      in
      t.bar_inflight <- ib :: t.bar_inflight;
      report_barrier t ~bar ~group ~phase:Prepare ~vector:[||] ~op;
      barrier_prepare_round t ib

and barrier_prepare_round t ib =
  ib.ib_started <- now t;
  let owners =
    Array.fold_left
      (fun acc o -> if List.mem o acc then acc else o :: acc)
      [] t.shard_owners
  in
  List.iter
    (fun o ->
      send_srv t o
        (Smsg.Barrier_prepare
           { bar = ib.ib_bar; epoch = t.shard_epoch; group = ib.ib_group }))
    owners

and barrier_absorb_pos t ~bar ~group ~positions =
  match
    List.find_opt (fun ib -> ib.ib_bar = bar && ib.ib_group = group) t.bar_inflight
  with
  | None -> ()
  | Some ib ->
      List.iter
        (fun (s, n) ->
          if not (List.mem_assoc s ib.ib_pos) then ib.ib_pos <- (s, n) :: ib.ib_pos)
        positions;
      if List.length ib.ib_pos = t.cfg.shards then begin
        let vector = Array.init t.cfg.shards (fun s -> List.assoc s ib.ib_pos) in
        t.bar_inflight <- List.filter (fun x -> x != ib) t.bar_inflight;
        report_barrier t ~bar ~group ~phase:Commit ~vector ~op:ib.ib_op;
        send_peers t t.alive
          (Smsg.Barrier_commit
             { bar; epoch = t.shard_epoch; group; vector; op = ib.ib_op });
        barrier_start t group
      end

(* --- shard-ownership recovery --------------------------------------------- *)

(* Owner allocators for the shards of a dead sequencer moved with it. The
   directory-recovery round that takeover, heal and an owner's death all run
   also collects every survivor's applied per-shard positions ([dr_shards]);
   here the coordinator reassigns dead owners and fans the new table with max
   positions — the fan-out is all-or-nothing per update (one batched transmit
   issues every reservation together), so the max applied position anywhere
   bounds everything any origin had acknowledged. *)
and reassign_shards t reports =
  (* Keep live owners; move each dead owner's shards to live servers,
     spreading by shard index. *)
  let live = Array.of_list t.alive in
  let n = Array.length live in
  let owners =
    Array.mapi
      (fun s o -> if n = 0 || List.mem o t.alive then o else live.(s mod n))
      t.shard_owners
  in
  t.shard_owners <- owners;
  (* Freshest applied position per (group, shard) across reports. *)
  let best : (T.group_id * int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (_, (r : Smsg.dir_report)) ->
      List.iter (fun (s, next) -> raise_max best (r.dr_group, s) next) r.dr_shards)
    reports;
  let positions = Hashtbl.fold (fun (g, s) next acc -> (g, s, next) :: acc) best [] in
  (* The round merged the survivors' origin watermarks into [seq_dedup]: a
     new owner must not re-stamp a forward its predecessor sequenced. *)
  let origins = Hashtbl.fold (fun (g, s, o) n acc -> (g, s, o, n) :: acc) t.seq_dedup [] in
  send_peers t t.alive
    (Smsg.Shard_assign { epoch = t.shard_epoch; owners; positions; origins });
  (* Re-run any barrier still in flight under the new owner table. *)
  List.iter
    (fun ib ->
      ib.ib_pos <- [];
      barrier_prepare_round t ib)
    t.bar_inflight

(* --- sequencing streams ------------------------------------------------------ *)

(* Every seqno stream's traffic, classic (shard 0 at epoch 0, sequenced by the
   coordinator) or sharded: sequenced updates, gap repair, and the sharded
   owners' forwards, barriers and ownership table. *)
and stream_handle t ~from msg =
  match msg with
  | Smsg.Fwd_bcast { origin; epoch; shard; group; sender; kind; obj; data; mode } ->
      owner_sequence t msg ~origin ~epoch ~shard ~group ~sender ~kind ~obj ~data
        ~mode
  | Smsg.Sequenced { epoch; shard; origin; update; mode } ->
      (* Accept newer epochs (our Shard_assign may still be in flight) and
         the shard's current, live owner; drop other stale ones — a deposed
         or dead owner cannot extend a stream that the new owner continues.
         A classic deployment stays at epoch 0, so this always accepts. *)
      if epoch >= t.shard_epoch || (from = shard_owner t shard && List.mem from t.alive)
      then begin
        if epoch > t.shard_epoch then t.shard_epoch <- epoch;
        match Hashtbl.find_opt t.rgroups update.group with
        | None -> () (* not serving this group; gap repair covers holders *)
        | Some rg -> offer t rg ~shard update mode origin
      end
  | Smsg.Barrier_prepare { bar; epoch = _; group } ->
      (* Freeze the group at this owner: report positions, park forwards
         until our own commit comes back. A later prepare for the same group
         simply moves the freeze point (the coordinator serializes barriers,
         so the previous one has been committed). *)
      Hashtbl.replace t.frozen group bar;
      let positions = ref [] in
      Array.iteri
        (fun s owner ->
          if owner = t.self then
            positions :=
              (s, Option.value (Hashtbl.find_opt t.seq_alloc (group, s)) ~default:0)
              :: !positions)
        t.shard_owners;
      send_srv t from
        (Smsg.Barrier_pos { from = t.self; bar; group; positions = !positions })
  | Smsg.Barrier_pos { from = _; bar; group; positions } ->
      if t.node_role = Coordinator then barrier_absorb_pos t ~bar ~group ~positions
  | Smsg.Barrier_commit { bar; epoch = _; group; vector; op } -> (
      (* Owner side: our freeze lifts when our own commit arrives. *)
      (match Hashtbl.find_opt t.frozen group with
      | Some fbar when fbar = bar ->
          Hashtbl.remove t.frozen group;
          let parked = Option.value (Hashtbl.find_opt t.freeze_q group) ~default:[] in
          Hashtbl.remove t.freeze_q group;
          List.iter (fun m -> stream_handle t ~from:t.self m) (List.rev parked)
      | Some _ | None -> ());
      (* Replica side: park until every stream reaches its slot. *)
      match Hashtbl.find_opt t.rgroups group with
      | None -> ()
      | Some rg ->
          ignore (logs_of t rg);
          run_actions t rg (SH.offer_barrier rg.rg_hb ~bar ~vector (bar, vector, op)))
  | Smsg.Shard_assign { epoch; owners; positions; origins } ->
      if epoch >= t.shard_epoch then begin
        t.shard_epoch <- epoch;
        t.shard_owners <- Array.copy owners;
        let owned shard = Array.length owners > shard && owners.(shard) = t.self in
        List.iter (fun (g, s, n) -> if owned s then raise_max t.seq_alloc (g, s) n) positions;
        List.iter
          (fun (g, s, o, n) -> if owned s then raise_max t.seq_dedup (g, s, o) n)
          origins;
        (* Freezes from the previous regime cannot be lifted by their commit
           any more (the coordinator restarts in-flight barriers): unfreeze
           and replay, routing by the new owner table. *)
        Hashtbl.reset t.frozen;
        let parked = Hashtbl.fold (fun _ q acc -> List.rev_append q acc) t.freeze_q [] in
        Hashtbl.reset t.freeze_q;
        (* Oldest first per group: the owner's origin filter would drop a
           forward replayed after a later one from the same origin. *)
        List.iter (fun m -> stream_handle t ~from:t.self m) parked;
        (* Re-send un-acknowledged forwards to the (possibly new) owners: the
           owner-side dedup and the per-shard origin filters make this safe
           whether or not the original was sequenced. *)
        resend_bcasts t
      end
  | Smsg.Fetch_updates { from; group; shard; from_seqno } -> (
      match held t group with
      | Some (_, logs) when from <> t.self && SL.next_seqno logs.(shard) > from_seqno ->
          (* We hold the missing suffix: answer directly. *)
          send_srv t from
            (Smsg.Updates_blob
               { group; shard; updates = SL.updates_from logs.(shard) from_seqno })
      | Some _ | None -> relay_fetch t ~from group msg)
  | Smsg.Updates_blob { group; shard; updates } -> offer_repairs t group ~shard updates
  | _ -> ()

(* --- coordinator: directory operations ----------------------------------- *)

and coord_fan_group t entry ?except msg =
  send_peers t ?except (Directory.replicas_of entry) msg
[@@corona.hot]

and coord_handle t ~from msg =
  (* While a round is open, a forward would be sequenced against a directory
     that has not yet absorbed the other replicas' holdings, fanning the
     update past them with no later seqno to trigger gap repair. *)
  if t.round <> None then t.coord_buffer <- (from, msg) :: t.coord_buffer
  else begin
    match msg with
    | Smsg.Fwd_create { origin; group; creator; persistent; initial } ->
        ignore initial;
        let created =
          match t.cfg.access.can_create creator group with
          | Corona.Access_control.Deny reason -> Error reason
          | Corona.Access_control.Allow -> (
              match Directory.add_group t.dir ~group ~persistent ~first_holder:origin with
              | `Ok entry -> Ok entry
              | `Exists -> Error "group already exists")
        in
        (match created with
        | Ok entry ->
            (* Reply first: the creator seeds its copy before the backup's
               fetch arrives on the same FIFO connection. *)
            send_srv t origin (Smsg.Create_result { group; error = None });
            ensure_two_holders t entry
        | Error reason ->
            send_srv t origin (Smsg.Create_result { group; error = Some reason }))
    | Smsg.Fwd_delete { origin; group; requester } -> (
        let refuse reason = send_srv t origin (Smsg.Delete_refused { group; reason }) in
        match t.cfg.access.can_delete requester group with
        | Corona.Access_control.Deny reason -> refuse reason
        | Corona.Access_control.Allow -> (
            match Directory.find t.dir group with
            | None -> refuse "no such group"
            | Some entry ->
                coord_fan_group t entry (Smsg.Delete_group { group });
                if not (List.mem origin (Directory.replicas_of entry)) then
                  send_srv t origin (Smsg.Delete_group { group });
                Directory.remove_group t.dir group))
    | Smsg.Fwd_join { origin; group; member; role = mrole; notify } -> (
        let refuse reason =
          send_srv t origin
            (Smsg.Join_result
               { group; member; error = Some reason; next_seqno = 0; members = []; holder = None })
        in
        match t.cfg.access.can_join member group mrole with
        | Corona.Access_control.Deny reason -> refuse reason
        | Corona.Access_control.Allow -> (
            match Directory.join t.dir ~group ~member ~role:mrole ~notify ~server:origin with
            | `No_group -> refuse "no such group"
            | `Ok (entry, source) ->
                let members = Directory.members entry in
                send_srv t origin
                  (Smsg.Join_result
                     {
                       group;
                       member;
                       error = None;
                       next_seqno = Directory.next_seqno entry;
                       members;
                       holder = source;
                     });
                (* Order the state fetch behind every sequenced update by
                   sending it on the coordinator->holder FIFO channel. *)
                (match source with
                | Some holder when holder <> origin ->
                    send_srv t holder (Smsg.Fetch_state { from = origin; group })
                | Some _ | None -> ());
                ensure_two_holders t entry;
                coord_view t entry ~origin (T.Member_joined { member; role = mrole })
                  members))
    | Smsg.Fwd_leave { origin; group; member; crashed } -> (
        match Directory.leave t.dir ~group ~member with
        | `No_group | `Not_member -> ()
        | `Ok entry ->
            (* Force-release the member's locks. Sharded, each inherited
               grant is itself a cross-shard op — grant order relative to
               in-flight updates must be identical on every replica. *)
            List.iter
              (fun (lock, next) ->
                match next with
                | Some next_holder -> coord_grant t entry ~lock ~member:next_holder
                | None -> ())
              (Corona.Locks.release_all (Directory.locks entry) ~member);
            let members = Directory.members entry in
            let change = if crashed then T.Member_crashed member else T.Member_left member in
            coord_view t entry ~origin change members;
            if members = [] && not (Directory.persistent entry) then begin
              coord_fan_group t entry (Smsg.Delete_group { group });
              Directory.remove_group t.dir group
            end)
    | Smsg.Fwd_bcast { origin; epoch = _; shard; group; sender; kind; obj; data; mode }
      -> (
        (* Classic sequencing: the checks [Server.handle_bcast] makes. *)
        let reject reason = send_srv t origin.og_server (Smsg.Bcast_reject { origin; reason }) in
        match (t.cfg.access.can_update sender group, Directory.find t.dir group) with
        | Corona.Access_control.Deny reason, _ -> reject reason
        | Corona.Access_control.Allow, None -> reject "no such group"
        | Corona.Access_control.Allow, Some entry -> (
            match Directory.member_info entry sender with
            | None -> reject "sender is not a member"
            | Some info when info.mi_role = T.Observer ->
                reject "observers may not update shared state"
            | Some _ ->
                if first_sequencing t ~group ~shard origin then begin
                  let seqno = Directory.sequence entry in
                  t.s_sequenced <- t.s_sequenced + 1;
                  let u =
                    { T.seqno; group; kind; obj; data; sender; timestamp = now t }
                  in
                  coord_fan_group t entry
                    (Smsg.Sequenced { epoch = t.shard_epoch; shard; origin; update = u; mode })
                end))
    | Smsg.Fwd_lock { origin; group; lock; member; acquire } -> (
        match Directory.find t.dir group with
        | None ->
            send_srv t origin
              (Smsg.Lock_result { group; lock; member; result = `Error "no such group" })
        | Some entry ->
            if acquire then begin
              match Corona.Locks.acquire (Directory.locks entry) ~lock ~member with
              | `Granted ->
                  (* Sharded, a grant is a cross-shard op: it must interleave
                     at the same per-shard positions on every replica, or two
                     replicas could disagree on which updates ran under the
                     lock. Locks stay barriered even under the
                     skip-barrier bug injection. *)
                  if t.cfg.shards > 1 then
                    barrier_submit t group (Smsg.Op_lock { lock; member })
                  else
                    send_srv t origin
                      (Smsg.Lock_result { group; lock; member; result = `Granted })
              | `Busy holder ->
                  send_srv t origin
                    (Smsg.Lock_result { group; lock; member; result = `Busy holder })
            end
            else begin
              match Corona.Locks.release (Directory.locks entry) ~lock ~member with
              | `Not_holder ->
                  send_srv t origin
                    (Smsg.Lock_result
                       { group; lock; member; result = `Error "not the lock holder" })
              | `Released next ->
                  send_srv t origin
                    (Smsg.Lock_result { group; lock; member; result = `Released });
                  (match next with
                  | Some next_holder -> coord_grant t entry ~lock ~member:next_holder
                  | None -> ())
            end)
    | _ -> ()
  end

(* §4.1: "at least two copies of the state exist at any moment, in order to
   provide a hot standby"; when only one replica holds a group, a backup is
   elected from the other servers. *)
and ensure_two_holders t entry =
  match Directory.holders entry with
  | [ only ] -> (
      let backup =
        List.find_opt (fun s -> s <> only && s <> t.self) t.alive
        |> (function
             | Some b -> Some b
             | None -> List.find_opt (fun s -> s <> only) t.alive)
      in
      match backup with
      | Some b ->
          Directory.add_holder entry b;
          let group = Directory.group entry in
          send_srv t b (Smsg.Add_replica { group; holder = Some only });
          send_srv t only (Smsg.Fetch_state { from = b; group })
      | None -> ())
  | _ -> ()

(* A membership view change. Sharded, it rides a cross-shard barrier so
   every replica interleaves it at the same vector of per-shard positions (a
   sharded join completes at barrier apply); classic, it fans to the
   group's replicas, skipping the origin under the §4.1 relaxation (it
   already told its own clients). *)
and coord_view t entry ~origin change members =
  let group = Directory.group entry in
  if t.cfg.shards > 1 && not t.hooks.skip_barrier then
    barrier_submit t group (Smsg.Op_view { change; members; origin })
  else
    let except = if t.cfg.relaxed_membership then Some origin else None in
    coord_fan_group t entry ?except (Smsg.Membership_update { group; change; members })

(* A lock handed to the next waiter. Sharded, the grant is a cross-shard op
   (even under the skip-barrier injection); classic, it is pushed
   to the member's server. *)
and coord_grant t entry ~lock ~member =
  if t.cfg.shards > 1 then
    barrier_submit t (Directory.group entry) (Smsg.Op_lock { lock; member })
  else
    match Directory.member_info entry member with
    | Some info ->
        send_srv t info.mi_server
          (Smsg.Lock_result
             { group = Directory.group entry; lock; member; result = `Granted })
    | None -> ()

(* The coordinator relays a fetch it cannot answer to a holder other than
   the requester. *)
and relay_fetch t ~from group msg =
  if t.node_role = Coordinator then
    match Directory.find t.dir group with
    | Some entry -> (
        match
          List.find_opt (fun h -> h <> from && h <> t.self) (Directory.holders entry)
        with
        | Some holder -> send_srv t holder msg
        | None -> ())
    | None -> ()

(* --- replica: handling coordinator/peer messages -------------------------- *)

(* Resolve a client's delete request, answered as [Server.handle_delete]
   answers it: [Group_deleted], or [Request_failed] on refusal. *)
and answer_delete t group reply =
  match Hashtbl.find_opt t.pending_delete group with
  | Some (conn, _requester) ->
      Hashtbl.remove t.pending_delete group;
      if Net.Tcp.is_open conn then reply conn
  | None -> ()

and replica_handle t ~from msg =
  match msg with
  | Smsg.Heartbeat { from } ->
      Hashtbl.replace t.last_seen from (now t);
      send_srv t from (Smsg.Heartbeat_ack { from = t.self })
  | Smsg.Heartbeat_ack { from } -> Hashtbl.replace t.last_seen from (now t)
  | Smsg.Create_result { group; error } -> (
      match Hashtbl.find_opt t.pending_create group with
      | None -> ()
      | Some (conn, _creator, persistent, initial) ->
          Hashtbl.remove t.pending_create group;
          (match error with
          | Some reason -> if Net.Tcp.is_open conn then E.fail t.eng conn group reason
          | None ->
              let rg = rgroup_of t group in
              rg.rg_persistent <- persistent;
              seed_rgroup t rg ~objects:initial ~positions:[];
              if Net.Tcp.is_open conn then E.send t.eng conn (M.Group_created { group })))
  | Smsg.Join_result { group; member; error; next_seqno; members; holder } -> (
      let key = (group, member) in
      match Hashtbl.find_opt t.pending_join key with
      | None -> ()
      | Some pj -> (
          match error with
          | Some reason ->
              Hashtbl.remove t.pending_join key;
              (* Relaxed, co-located members already heard of the join:
                 take it back unless the joiner was a member before. *)
              (if t.cfg.relaxed_membership then
                 match Hashtbl.find_opt t.rgroups group with
                 | Some rg when Corona.Membership.role_of rg.rg_local member = None ->
                     relaxed_change t rg (T.Member_left member)
                 | Some _ | None -> ());
              if Net.Tcp.is_open pj.pj_conn then E.fail t.eng pj.pj_conn group reason
          | None ->
              pj.pj_result <- Some next_seqno;
              (* Sharded, the view barrier admits the join; here we only
                 make sure a copy is on its way. *)
              if not (sharded t) then pj.pj_admitted <- true;
              let rg = rgroup_of t group in
              rg.rg_global <- members;
              match (rg.rg_logs <> None, holder) with
              | true, _ -> complete_join t rg member pj
              | false, Some _ -> expect_blob t rg
              | false, None ->
                  (* We are the first holder (or the only copy was lost):
                     start from an empty state at the group's position (the
                     directory counts no group-wide seqno when sharded). *)
                  if not rg.rg_expecting_blob then
                    seed_rgroup t rg ~objects:[] ~positions:[ (0, next_seqno) ]))
  | Smsg.Membership_update { group; change; members } when from = t.coord ->
      (* A deposed coordinator's view change, still in flight when a
         partition heals, must not reach the current reign's subscribers:
         nothing would take it back. Sharded, only the skip-barrier
         injection sends one: it admits the join as the barrier would, or
         the seeded bug would manifest as lost liveness instead of a missing
         barrier stamp. *)
      Option.iter
        (fun rg -> apply_view t rg change ~members ~admits:(sharded t))
        (Hashtbl.find_opt t.rgroups group)
  | Smsg.Bcast_reject { origin; reason } ->
      ignore reason;
      if origin.og_server = t.self then Hashtbl.remove t.pending_bcast origin.og_seq
  | Smsg.Fetch_state { from = requester; group } ->
      let at_seqno, objects, error, shards =
        match Hashtbl.find_opt t.rgroups group with
        | Some { rg_logs = Some [| log |]; _ } ->
            (* State copy for re-replication: share the materialized objects
               with the join-state cache instead of paying a fresh
               materialize per fetch. *)
            ( SL.next_seqno log,
              Corona.Transfer.snapshot_objects (E.transfer_cache t.eng) log,
              None,
              [] )
        | Some ({ rg_logs = Some logs; _ } as rg) ->
            (0, shard_snapshot_objects logs, None, shard_positions rg)
        | Some { rg_logs = None; _ } | None -> (0, [], Some "state not here", [])
      in
      send_srv t requester (Smsg.State_blob { group; at_seqno; objects; error; shards })
  | Smsg.State_blob { group; at_seqno; objects; error; shards } -> (
      let b = { bl_at = at_seqno; bl_objects = objects; bl_error = error; bl_shards = shards } in
      (* A sharded copy may already log (from position 0) while its blob is
         on the way; a classic one only expects a blob while it has none. *)
      match Hashtbl.find_opt t.rgroups group with
      | Some rg when rg.rg_logs = None || rg.rg_expecting_blob -> take_blob t rg b
      | Some _ -> ()
      | None -> Hashtbl.replace t.early_blobs group b)
  | Smsg.Add_replica { group; holder = _ } ->
      (* The blob will follow (the coordinator ordered the fetch). *)
      let rg = rgroup_of t group in
      if rg.rg_logs = None then expect_blob t rg
  | Smsg.Delete_group { group } when from = t.coord ->
      (* A deposed coordinator's delete, still in flight when a partition
         heals, must not destroy the copy the current reign serves. *)
      (match Hashtbl.find_opt t.rgroups group with
      | None -> ()
      | Some rg ->
          E.fan_out t.eng rg.rg_local ~group (M.Group_deleted { group });
          drop_rgroup t group);
      answer_delete t group (fun conn -> E.send t.eng conn (M.Group_deleted { group }))
  | Smsg.Delete_refused { group; reason } ->
      answer_delete t group (fun conn -> E.fail t.eng conn group reason)
  | Smsg.Delete_group _ | Smsg.Membership_update _ -> ()
  | Smsg.Lock_result { group; lock; member; result } ->
      lock_reply t ~group ~lock ~member result
  | Smsg.Dir_query { from } ->
      send_srv t from (Smsg.Dir_reply { from = t.self; reports = dir_reports t })
  | Smsg.Elect_me { from = candidate } ->
      Election.List_order.handle (election t) ~from (Election.Claim { from = candidate })
  | Smsg.Elect_ack { from = voter; candidate; ok } ->
      Election.List_order.handle (election t) ~from
        (Election.Claim_ack { from = voter; candidate; ok })
  | Smsg.Coordinator_is { coord } ->
      if coord <> t.coord || Election.List_order.electing (election t) then
        Election.List_order.handle (election t) ~from (Election.Victory { from = coord })
  | Smsg.Dir_reply _ | Smsg.Fwd_create _ | Smsg.Fwd_delete _ | Smsg.Fwd_join _
  | Smsg.Fwd_leave _ | Smsg.Fwd_bcast _ | Smsg.Fwd_lock _ | Smsg.Sequenced _
  | Smsg.Fetch_updates _ | Smsg.Updates_blob _ | Smsg.Barrier_prepare _
  | Smsg.Barrier_pos _ | Smsg.Barrier_commit _ | Smsg.Shard_assign _ ->
      ignore from

(* Seed a copy from its blob. *)
and take_blob t rg b =
  match b.bl_error with
  | None ->
      seed_rgroup t rg ~objects:b.bl_objects
        ~positions:(if sharded t then b.bl_shards else [ (0, b.bl_at) ])
  | Some _ when sharded t ->
      rg.rg_expecting_blob <- false;
      (* Seed an empty sharded copy rather than stalling pending
         joins forever. *)
      if rg.rg_logs = None then seed_rgroup t rg ~objects:[] ~positions:[]
  | Some _ ->
      rg.rg_expecting_blob <- false;
      (* Complete any waiting joins from an empty state rather than
         stalling them forever. *)
      let waiting =
        Hashtbl.fold
          (fun (g, _) pj acc ->
            if g = rg.rg_id then match pj.pj_result with
              | Some ns -> ns :: acc
              | None -> acc
            else acc)
          t.pending_join []
      in
      (match waiting with
      | ns :: _ -> seed_rgroup t rg ~objects:[] ~positions:[ (0, ns) ]
      | [] -> ())

(* The copy waits for a blob: one that arrived before the group was known
   seeds it now. *)
and expect_blob t rg =
  rg.rg_expecting_blob <- true;
  match Hashtbl.find_opt t.early_blobs rg.rg_id with
  | Some b ->
      Hashtbl.remove t.early_blobs rg.rg_id;
      take_blob t rg b
  | None -> ()

(* --- failure handling / election ----------------------------------------- *)

and mark_dead t srv =
  if List.mem srv t.alive then begin
    t.alive <- List.filter (fun s -> s <> srv) t.alive;
    if t.node_role = Coordinator then begin
      coord_server_died t srv;
      round_heard t srv None
    end
    else if srv = t.coord && not (Election.List_order.electing (election t)) then begin
      t.s_elections_started <- t.s_elections_started + 1;
      Election.List_order.start (election t)
    end
  end

and coord_server_died t srv =
  let lost_members, need_copy = Directory.remove_server t.dir srv in
  List.iter
    (fun (group, members) ->
      match Directory.find t.dir group with
      | None -> ()
      | Some entry ->
          let ms = Directory.members entry in
          List.iter
            (fun m -> coord_view t entry ~origin:srv (T.Member_crashed m) ms)
            members;
          if ms = [] && not (Directory.persistent entry) then begin
            coord_fan_group t entry (Smsg.Delete_group { group });
            Directory.remove_group t.dir group
          end)
    lost_members;
  (* Restore the two-copy invariant (§4.1). *)
  List.iter
    (fun (group, surviving) ->
      match (Directory.find t.dir group, surviving) with
      | Some entry, Some holder ->
          let backup =
            List.find_opt
              (fun s -> s <> holder && not (List.mem s (Directory.holders entry)))
              t.alive
          in
          (match backup with
          | Some b ->
              Directory.add_holder entry b;
              send_srv t b (Smsg.Add_replica { group; holder = Some holder });
              send_srv t holder (Smsg.Fetch_state { from = b; group })
          | None -> ())
      | Some _, None | None, _ -> ())
    need_copy;
  (* The dead server's shard allocators died with it: reassign its shards
     under a new epoch, from the survivors' positions, before any stream
     extends past the loss. *)
  if Array.exists (fun o -> o = srv) t.shard_owners then
    start_directory_recovery t ~announce:false

(* {!Election.List_order} over the mesh: claims and acks travel as
   [Elect_me]/[Elect_ack]; the victory is the [Coordinator_is] that
   [become_coordinator] sends ahead of each directory query. *)
and election t = Lazy.force t.election

and election_env t =
  {
    Election.self = t.self;
    all = t.server_list;
    is_alive = (fun s -> List.mem s t.alive);
    send =
      (fun ~dst -> function
        | Election.Claim { from } -> send_srv t dst (Smsg.Elect_me { from })
        | Election.Claim_ack { from; candidate; ok } ->
            send_srv t dst (Smsg.Elect_ack { from; candidate; ok })
        | Election.Victory _ | Election.Election _ | Election.Answer _
        | Election.Token _ ->
            ());
    schedule =
      (fun ~delay f ->
        ignore
          (Sim.Engine.schedule (Net.Fabric.engine t.fabric) ~delay (fun () ->
               if is_current t then f ())));
    on_elected =
      (fun winner ->
        if winner = t.self then become_coordinator t else on_new_coordinator t winner);
  }

and become_coordinator t =
  t.coord <- t.self;
  (* Liveness bookkeeping restarts from the takeover: entries left over
     from before (e.g. the mesh-setup hello) must not read as silence. *)
  List.iter (fun srv -> Hashtbl.replace t.last_seen srv (now t)) t.alive;
  t.s_took_over_at <- Some (now t);
  start_directory_recovery t ~announce:true;
  (* Our own un-acknowledged forwards go through the new sequencer (i.e.,
     ourselves); they sit in the buffer until the directory is ready. *)
  resend_pending t

(* The one recovery round: rebuild the directory from every live server's
   holdings, our own included, and (sharded) their per-shard positions.
   Requests wait until every server queried has answered or died; a dead
   server's report is left out. [announce]: tell each server first that we
   coordinate now. Sharded, each round opens a new ownership epoch. A newer
   round replaces an open one, reports and all. *)
and start_directory_recovery t ~announce =
  t.node_role <- Coordinator;
  if sharded t then begin
    t.shard_epoch <- t.shard_epoch + 1;
    (* Barrier ids are drawn from the epoch so a new reign (or re-round)
       never reuses a stamped id. *)
    t.bar_next <- t.shard_epoch * 1_000_000
  end;
  let r =
    {
      r_waiting = List.filter (fun s -> s <> t.self) t.alive;
      r_reports = [ (t.self, List.rev (dir_reports t)) ];
    }
  in
  t.round <- Some r;
  List.iter
    (fun dst ->
      if announce then send_srv t dst (Smsg.Coordinator_is { coord = t.self });
      send_srv t dst (Smsg.Dir_query { from = t.self }))
    r.r_waiting;
  if r.r_waiting = [] then finish_directory_recovery t r

(* This node's holdings for a directory rebuild, newest-first in table
   order. Sharded copies count too: the group-wide seqno is meaningless
   there, so they report 0 and their per-shard stream positions. *)
and dir_reports t =
  Hashtbl.fold
    (fun g rg acc ->
      if rg.rg_logs = None then acc
      else
        {
          Smsg.dr_group = g;
          dr_persistent = rg.rg_persistent;
          dr_next_seqno = (if sharded t then 0 else SH.next_expected rg.rg_hb ~shard:0);
          dr_members =
            List.map
              (fun (e : Corona.Membership.entry) ->
                ({ T.member = e.member; role = e.role }, e.notify))
              (Corona.Membership.entries rg.rg_local);
          dr_origins =
            Hashtbl.fold (fun (s, o) seq acc -> (s, o, seq) :: acc) rg.rg_last_og [];
          dr_shards = (if sharded t then shard_positions rg else []);
        }
        :: acc)
    t.rgroups []

(* [srv] answered the open round ([Some reports]) or died ([None]); anything
   else is a late answer to a round that is over, and counts for nothing. *)
and round_heard t srv reports =
  match t.round with
  | Some r when List.mem srv r.r_waiting ->
      r.r_waiting <- List.filter (fun s -> s <> srv) r.r_waiting;
      Option.iter (fun rs -> r.r_reports <- (srv, rs) :: r.r_reports) reports;
      if r.r_waiting = [] then finish_directory_recovery t r
  | Some _ | None -> ()

and finish_directory_recovery t r =
  t.round <- None;
  let reports =
    List.concat_map
      (fun (srv, rs) -> if List.mem srv t.alive then List.map (fun r -> (srv, r)) rs else [])
      (List.rev r.r_reports)
  in
  Directory.rebuild t.dir reports;
  (* The sequencer's duplicate filter starts from the freshest origin
     watermark any survivor applied. *)
  List.iter
    (fun (_, (r : Smsg.dir_report)) ->
      List.iter (fun (s, o, n) -> raise_max t.seq_dedup (r.dr_group, s, o) n) r.dr_origins)
    reports;
  (* Heal sequence gaps left by the crash: any replica whose copy is behind
     the group's recovered position gets the missing suffix from the
     freshest reporter. *)
  let by_group : (T.group_id, (Smsg.server_id * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (srv, (r : Smsg.dir_report)) ->
      let prev = Option.value (Hashtbl.find_opt by_group r.dr_group) ~default:[] in
      Hashtbl.replace by_group r.dr_group ((srv, r.dr_next_seqno) :: prev))
    (List.rev reports);
  Hashtbl.iter
    (fun group positions ->
      let freshest, max_next =
        List.fold_left
          (fun (bs, bn) (srv, n) -> if n > bn then (srv, n) else (bs, bn))
          ("", -1) positions
      in
      List.iter
        (fun (srv, n) ->
          if n < max_next then
            send_srv t freshest
              (Smsg.Fetch_updates { from = srv; group; shard = 0; from_seqno = n }))
        positions)
    by_group;
  (* Sharded ownership recovers with the directory, so sequencing never
     resumes under a dead owner table. *)
  if sharded t then reassign_shards t reports;
  let buffered = List.rev t.coord_buffer in
  t.coord_buffer <- [];
  List.iter (fun (from, msg) -> coord_handle t ~from msg) buffered

(* Follow the winner of an election we lost (or never noticed). *)
and on_new_coordinator t coord =
  t.coord <- coord;
  if coord <> t.self then t.node_role <- Replica;
  if not (List.mem coord t.alive) then
    t.alive <- List.filter (fun s -> List.mem s t.alive || s = coord) t.server_list;
  Hashtbl.replace t.last_seen coord (now t);
  resend_pending t

(* A broadcast forward goes to its shard's current owner under the current
   epoch: the coordinator on a classic deployment. *)
and forward_bcast t msg =
  match msg with
  | Smsg.Fwd_bcast r ->
      send_srv t (shard_owner t r.shard) (Smsg.Fwd_bcast { r with epoch = t.shard_epoch })
  | _ -> ()

(* Re-send the un-acknowledged broadcast forwards, in origin order. *)
and resend_bcasts t =
  Hashtbl.fold (fun seq msg acc -> (seq, msg) :: acc) t.pending_bcast []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (_, msg) -> forward_bcast t msg)

(* After a coordinator change, re-send everything not yet acknowledged:
   broadcasts (deduplicated by origin tag), joins, creates, deletes and lock
   requests (the directory join is idempotent; lock re-acquire by the same
   member is idempotent too). *)
and resend_pending t =
  resend_bcasts t;
  Hashtbl.iter
    (fun (group, member) (pj : pending_join) ->
      (* A sharded join is admitted by its view barrier, which may have
         died with the old coordinator. *)
      if not pj.pj_admitted then
        send_srv t t.coord
          (Smsg.Fwd_join
             {
               origin = t.self;
               group;
               member;
               role = T.Principal;
               notify = pj.pj_notify;
             }))
    t.pending_join;
  Hashtbl.iter
    (fun group (_conn, creator, persistent, initial) ->
      send_srv t t.coord
        (Smsg.Fwd_create { origin = t.self; group; creator; persistent; initial }))
    t.pending_create;
  Hashtbl.iter
    (fun group (_conn, requester) ->
      send_srv t t.coord (Smsg.Fwd_delete { origin = t.self; group; requester }))
    t.pending_delete;
  Hashtbl.iter
    (fun (group, lock, member) _conn ->
      send_srv t t.coord
        (Smsg.Fwd_lock { origin = t.self; group; lock; member; acquire = true }))
    t.pending_lock

(* --- dispatch ------------------------------------------------------------ *)

and dispatch_smsg t ~from msg =
  if is_current t then begin
    match msg with
    | Smsg.Heartbeat _ | Smsg.Heartbeat_ack _ | Smsg.Elect_me _ | Smsg.Elect_ack _
    | Smsg.Coordinator_is _ | Smsg.Dir_query _ ->
        replica_handle t ~from msg
    (* The one sequencer fork: a shard owner stamps a sharded forward, the
       coordinator a classic one against its directory. *)
    | Smsg.Fwd_bcast _ when sharded t -> stream_handle t ~from msg
    | Smsg.Fwd_create _ | Smsg.Fwd_delete _ | Smsg.Fwd_join _ | Smsg.Fwd_leave _
    | Smsg.Fwd_bcast _ | Smsg.Fwd_lock _ ->
        if t.node_role = Coordinator then coord_handle t ~from msg
    | Smsg.Dir_reply { from; reports } ->
        if t.node_role = Coordinator then round_heard t from (Some reports)
    | Smsg.Sequenced _ | Smsg.Fetch_updates _ | Smsg.Updates_blob _
    | Smsg.Barrier_prepare _ | Smsg.Barrier_pos _ | Smsg.Barrier_commit _
    | Smsg.Shard_assign _ ->
        stream_handle t ~from msg
    | Smsg.Create_result _ | Smsg.Join_result _ | Smsg.Membership_update _
    | Smsg.Bcast_reject _ | Smsg.Fetch_state _ | Smsg.State_blob _
    | Smsg.Add_replica _ | Smsg.Delete_group _ | Smsg.Delete_refused _
    | Smsg.Lock_result _ ->
        replica_handle t ~from msg
  end

(* --- client request handling ---------------------------------------------- *)

let adopt_group_state t group ~objects ~positions =
  let rg = rgroup_of t group in
  (* Post-heal resync: barriers parked under the previous regime are dead
     (the healed coordinator re-prepares in-flight ones), and so are the
     duplicate filters of the overwritten streams. *)
  SH.clear_barriers rg.rg_hb;
  Hashtbl.reset rg.rg_last_og;
  seed_rgroup t rg ~objects ~positions

let admin_heal t ~coordinator =
  t.alive <- t.server_list;
  Election.List_order.stand_down (election t);
  t.coord <- coordinator;
  Hashtbl.reset t.last_seen;
  if coordinator = t.self then start_directory_recovery t ~announce:false
  else begin
    t.node_role <- Replica;
    resend_pending t
  end

(* A shard owner need not know the directory, so on a sharded deployment
   the origin replica makes [Server.handle_bcast]'s checks against its own
   member table before it forwards, and drops a refused write as a
   [Bcast_reject] would. On a classic one the coordinator makes them. *)
let refused_at_origin t ~group ~sender =
  sharded t
  &&
  match t.cfg.access.can_update sender group with
  | Corona.Access_control.Deny _ -> true
  | Corona.Access_control.Allow -> (
      match Hashtbl.find_opt t.rgroups group with
      | Some rg -> Corona.Membership.role_of rg.rg_local sender <> Some T.Principal
      | None -> true)

let handle_client_request t conn (req : M.request) =
  match req with
  | M.Create_group { group; creator; persistent; initial } ->
      Hashtbl.replace t.pending_create group (conn, creator, persistent, initial);
      send_srv t t.coord
        (Smsg.Fwd_create { origin = t.self; group; creator; persistent; initial })
  | M.Delete_group { group; requester } ->
      Hashtbl.replace t.pending_delete group (conn, requester);
      send_srv t t.coord (Smsg.Fwd_delete { origin = t.self; group; requester })
  | M.Join { group; member; role = mrole; transfer; notify } ->
      E.bind t.eng member conn;
      Hashtbl.replace t.pending_join (group, member)
        {
          pj_conn = conn;
          pj_transfer = transfer;
          pj_notify = notify;
          pj_result = None;
          pj_admitted = false;
        };
      (* §4.1 relaxation: co-located members hear about the join before the
         coordinator round-trip; the coordinator skips this replica in its
         Membership_update fan. *)
      (if t.cfg.relaxed_membership then
         match Hashtbl.find_opt t.rgroups group with
         | Some rg -> relaxed_change t rg (T.Member_joined { member; role = mrole })
         | None -> ());
      send_srv t t.coord
        (Smsg.Fwd_join { origin = t.self; group; member; role = mrole; notify })
  | M.Leave { group; member } ->
      (* §4.1 relaxation: a leave does not directly affect the others, so
         acknowledge locally before the coordinator round-trip. *)
      (match Hashtbl.find_opt t.rgroups group with
      | Some rg ->
          ignore (E.remove_member t.eng rg.rg_local ~group member);
          E.send t.eng conn (M.Left { group });
          if t.cfg.relaxed_membership then relaxed_change t rg (T.Member_left member)
      | None -> E.fail t.eng conn group "no such group");
      send_srv t t.coord
        (Smsg.Fwd_leave { origin = t.self; group; member; crashed = false })
  | M.Get_membership { group } -> (
      match Hashtbl.find_opt t.rgroups group with
      | Some rg -> E.send t.eng conn (M.Membership_info { group; members = rg.rg_global })
      | None -> E.fail t.eng conn group "no such group")
  | M.Bcast { group; sender; kind; obj; data; mode } ->
      if not (refused_at_origin t ~group ~sender) then begin
        let og_seq = t.fwd_seq in
        t.fwd_seq <- og_seq + 1;
        let origin = { Smsg.og_server = t.self; og_seq } in
        t.s_fwd_bcasts <- t.s_fwd_bcasts + 1;
        (* Route by the deterministic (group, object) map to the shard's
           sequencer: sharded, the coordinator is not on the data path. *)
        let shard = Ordering.Shard_map.shard_of ~shards:t.cfg.shards ~group ~obj in
        let msg =
          Smsg.Fwd_bcast
            { origin; epoch = t.shard_epoch; shard; group; sender; kind; obj; data; mode }
        in
        Hashtbl.replace t.pending_bcast og_seq msg;
        forward_bcast t msg
      end
  | M.Acquire_lock { group; lock; member } ->
      Hashtbl.replace t.pending_lock (group, lock, member) conn;
      send_srv t t.coord
        (Smsg.Fwd_lock { origin = t.self; group; lock; member; acquire = true })
  | M.Release_lock { group; lock; member } ->
      Hashtbl.replace t.pending_lock (group, lock, member) conn;
      send_srv t t.coord
        (Smsg.Fwd_lock { origin = t.self; group; lock; member; acquire = false })
  | M.Reduce_log { group; member = _ } -> (
      (* Log reduction is a local matter: each holder trims its own copy. *)
      match Hashtbl.find_opt t.rgroups group with
      | Some { rg_logs = Some [| log |]; _ } -> E.reduce_log t.eng conn ~group log
      | Some { rg_logs = Some _; _ } ->
          E.fail t.eng conn group "sharded group: no group-wide log to reduce"
      | Some { rg_logs = None; _ } | None -> E.fail t.eng conn group "no such group")
  | M.Resend _ ->
      (* §6 sender-assisted recovery is a single-server feature; replicated
         groups restore lost suffixes from other holders instead. *)
      ()
  | M.Ping _ | M.Relay_register _ | M.Relay_proxy _ ->
      E.serve t.eng conn req

let handle_client_disconnect t conn reason =
  let crashed = reason <> Net.Tcp.Graceful in
  E.disconnect t.eng conn (fun member groups ->
      List.iter
        (fun group ->
          match Hashtbl.find_opt t.rgroups group with
          | Some rg when E.remove_member t.eng rg.rg_local ~group member ->
              if t.cfg.relaxed_membership then
                relaxed_change t rg
                  (if crashed then T.Member_crashed member else T.Member_left member);
              send_srv t t.coord (Smsg.Fwd_leave { origin = t.self; group; member; crashed })
          | Some _ | None -> ())
        groups)

(* --- liveness loop --------------------------------------------------------- *)

let heartbeat_tick t =
  if is_current t then begin
    let now_ = now t in
    (* Suspect a server after [failure_timeout] of silence. *)
    let check srv =
      match Hashtbl.find_opt t.last_seen srv with
      | Some seen when now_ -. seen > t.cfg.failure_timeout -> mark_dead t srv
      | Some _ -> ()
      | None -> Hashtbl.replace t.last_seen srv now_
    in
    if t.node_role = Replica then begin
      send_srv t t.coord (Smsg.Heartbeat { from = t.self });
      check t.coord
    end
    else List.iter (fun srv -> if srv <> t.self then check srv) t.alive;
    if t.cfg.shards > 1 then begin
      (* A position report may have been lost with a crashed owner or a
         dropped connection: re-run the prepare round for stuck barriers. *)
      if t.node_role = Coordinator then
        List.iter
          (fun ib ->
            if now_ -. ib.ib_started > election_timeout then begin
              ib.ib_pos <- [];
              barrier_prepare_round t ib
            end)
          t.bar_inflight;
      (* A parked barrier stalls forever if the updates short of its vector
         died with their sequencer: fetch the missing suffixes. *)
      Hashtbl.iter
        (fun group rg ->
          List.iter
            (fun (shard, from_seqno) ->
              send_srv t t.coord
                (Smsg.Fetch_updates { from = t.self; group; shard; from_seqno }))
            (SH.stalled_shards rg.rg_hb))
        t.rgroups
    end
  end;
  is_current t

(* --- construction ----------------------------------------------------------- *)

let wire_peer t peer_id conn =
  Hashtbl.replace t.peers peer_id conn;
  (match Hashtbl.find_opt t.outbox peer_id with
  | Some queued ->
      Hashtbl.remove t.outbox peer_id;
      List.iter (Smsg.send ~sharded:(sharded t) conn) (List.rev queued)
  | None -> ());
  t.conn_ids <- (Net.Tcp.id conn, peer_id) :: t.conn_ids;
  Net.Tcp.set_on_close conn (fun reason ->
      if is_current t && reason = Net.Tcp.Peer_crashed then mark_dead t peer_id);
  Net.Tcp.set_receiver conn (fun ~size:_ payload ->
      match payload with
      | Smsg.Srv msg -> dispatch_smsg t ~from:peer_id msg
      | M.Corona _ | _ -> ())

let accept_peer t conn =
  (* Identity arrives with the first message carrying a [from]/origin. *)
  Net.Tcp.set_receiver conn (fun ~size:_ payload ->
      match payload with
      | Smsg.Srv (Smsg.Heartbeat { from }) ->
          if not (Hashtbl.mem t.peers from) then wire_peer t from conn;
          dispatch_smsg t ~from (Smsg.Heartbeat { from })
      | Smsg.Srv msg ->
          let from =
            match List.assoc_opt (Net.Tcp.id conn) t.conn_ids with
            | Some p -> p
            | None -> "?"
          in
          dispatch_smsg t ~from msg
      | M.Corona _ | _ -> ())

let accept_client t conn =
  E.accept t.eng conn;
  Net.Tcp.set_on_close conn (fun reason ->
      if is_current t then handle_client_disconnect t conn reason);
  Net.Tcp.set_receiver conn (fun ~size:_ payload ->
      match payload with
      | M.Corona (M.Request req) -> if is_current t then handle_client_request t conn req
      | M.Corona (M.Response _) | _ -> ())

let create fabric node_host ?(config = default_config) ?(hooks = no_hooks) ~storage
    ~server_list ~coordinator () =
  let self = Net.Host.name node_host in
  let rec t =
    {
      fabric;
      node_host;
      self;
      cfg = config;
      storage;
      server_list;
      alive = server_list;
      coord = coordinator;
      node_role = (if self = coordinator then Coordinator else Replica);
      dir = Directory.create ~lock_table:hooks.lock_table;
      round = None;
      coord_buffer = [];
      rgroups = Hashtbl.create 16;
      early_blobs = Hashtbl.create 4;
      peers = Hashtbl.create 16;
      outbox = Hashtbl.create 8;
      peer_batch = Net.Tcp.batch_create ();
      conn_ids = [];
      eng = E.create (Net.Fabric.engine fabric);
      pending_create = Hashtbl.create 8;
      pending_delete = Hashtbl.create 8;
      pending_join = Hashtbl.create 16;
      pending_lock = Hashtbl.create 8;
      fwd_seq = 0;
      pending_bcast = Hashtbl.create 16;
      last_seen = Hashtbl.create 16;
      election =
        lazy
          (Election.List_order.create_with ~timeout:election_timeout (election_env t));
      stopped = false;
      node_epoch = Net.Host.epoch node_host;
      shard_epoch = 0;
      shard_owners =
        (if config.shards > 1 then
           Ordering.Shard_map.initial_owners ~shards:config.shards server_list
         else [||]);
      seq_alloc = Hashtbl.create 16;
      seq_dedup = Hashtbl.create 16;
      frozen = Hashtbl.create 4;
      freeze_q = Hashtbl.create 4;
      bar_next = 0;
      bar_queue = Hashtbl.create 4;
      bar_inflight = [];
      hooks;
      s_fwd_bcasts = 0;
      s_sequenced = 0;
      s_applied = 0;
      s_elections_started = 0;
      s_took_over_at = None;
    }
  in
  ignore (Net.Tcp.listen fabric node_host ~port:config.server_port ~on_accept:(accept_peer t));
  ignore (Net.Tcp.listen fabric node_host ~port:config.client_port ~on_accept:(accept_client t));
  Sim.Engine.periodic (Net.Fabric.engine fabric) ~every:config.heartbeat_interval
    (fun () -> heartbeat_tick t);
  t

let connect_peers t nodes =
  (* Each pair connects once: the earlier-listed server dials. *)
  List.iter
    (fun peer ->
      let peer_id = peer.self in
      if Election.index peer_id t.server_list > Election.index t.self t.server_list then
        Net.Tcp.connect t.fabric ~src:t.node_host ~dst:peer.node_host
          ~port:t.cfg.server_port
          ~on_connected:(fun conn ->
            wire_peer t peer_id conn;
            (* Hello: lets the acceptor map the connection to us. *)
            Smsg.send ~sharded:(sharded t) conn (Smsg.Heartbeat { from = t.self }))
          ~on_failed:(fun () -> ())
          ())
    nodes

let shutdown t =
  t.stopped <- true;
  E.close_clients t.eng;
  Hashtbl.iter (fun _ c -> if Net.Tcp.is_open c then Net.Tcp.close c) t.peers
