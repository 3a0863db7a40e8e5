(** Corona client library.

    The counterpart the paper's downloadable applets embed: it connects to a
    Corona server over (simulated) TCP, issues the service requests, keeps a
    local replica of each joined group's shared state (join-time transfer +
    applied deliveries), and surfaces asynchronous events — deliveries,
    membership changes, deferred lock grants, disconnection — to the
    application.

    Replica semantics: sender-inclusive broadcasts are applied when the
    server's copy comes back (total order preserved); sender-exclusive
    broadcasts are applied optimistically at send time. A delivery is
    stored in the replica's recent-update cache and applied lazily, in
    delivery order, before the replica's state is next read or written. *)

type t

(** Asynchronous events pushed by the server. *)
type event =
  | Delivered of Proto.Types.update
  | Membership_changed of {
      group : Proto.Types.group_id;
      change : Proto.Types.membership_change;
    }
      (** one change to a group this client subscribed to; {!members} already
          reflects it when the handler runs *)
  | Lock_granted_later of {
      group : Proto.Types.group_id;
      lock : Proto.Types.lock_id;
    }  (** a queued acquire finally succeeded *)
  | Group_was_deleted of Proto.Types.group_id
  | Disconnected of Net.Tcp.close_reason
  | Shard_delivered of { shard : int; update : Proto.Types.update }
      (** delivery in a sharded group: [update.seqno] counts within shard
          [shard]'s own stream *)
  | Shard_view of {
      group : Proto.Types.group_id;
      bar : int;
      vector : int list;
      op : string;
    }
      (** a cross-shard barrier op (view change or lock grant) applied at the
          stamped vector of per-shard positions *)
  | Shard_joined of { group : Proto.Types.group_id; vector : int list }
      (** closes a sharded join: per-shard baseline the snapshot reflects *)

(** Reply to a group-scoped request. *)
type reply =
  | R_ok
  | R_join of { at_seqno : int; members : Proto.Types.member list }
  | R_membership of Proto.Types.member list
  | R_lock of [ `Granted | `Busy of Proto.Types.member_id | `Released ]
  | R_reduced of int
  | R_failed of string

val connect :
  Net.Fabric.t ->
  host:Net.Host.t ->
  server:Net.Host.t ->
  ?port:int ->
  member:Proto.Types.member_id ->
  ?on_event:(t -> event -> unit) ->
  on_connected:(t -> unit) ->
  on_failed:(unit -> unit) ->
  unit ->
  unit
(** Open a connection (default port 7000). Clients connect independently of
    other clients — there is no group-wide join protocol. *)

val reconnect :
  t ->
  ?server:Net.Host.t ->
  ?port:int ->
  on_connected:(t -> unit) ->
  on_failed:(unit -> unit) ->
  unit ->
  unit
(** After a link failure or disconnection: open a fresh connection to the
    same server (or to [?server]/[?port] — a member whose relay crashed
    fails over to a sibling relay this way), carrying over the member
    identity, event handler and local replicas (the companion paper's
    client-reconnection support). Follow up with {!rejoin} per group to
    fetch only the missed updates. *)

val member : t -> Proto.Types.member_id

val is_connected : t -> bool

val disconnect : t -> unit
(** Graceful close; the server treats joined groups as left. *)

val set_on_event : t -> (t -> event -> unit) -> unit

(* --- requests -------------------------------------------------------- *)

val create_group :
  t ->
  group:Proto.Types.group_id ->
  ?persistent:bool ->
  ?initial:(Proto.Types.object_id * string) list ->
  k:(reply -> unit) ->
  unit ->
  unit

val delete_group : t -> group:Proto.Types.group_id -> k:(reply -> unit) -> unit

val join :
  t ->
  group:Proto.Types.group_id ->
  ?role:Proto.Types.role ->
  ?transfer:Proto.Types.transfer_spec ->
  ?notify:bool ->
  k:(reply -> unit) ->
  unit ->
  unit
(** Join and transfer state per [transfer] (default [Full_state]); [notify]
    (default true) subscribes to membership-change notifications, from
    which the client keeps the view {!members} reads. On [R_join] the local
    replica is already populated. The group's deliveries and changes that
    arrive before the reply wait for it: their events come after [k] has
    run, and a delivery the join state covers is dropped. *)

val rejoin :
  t ->
  group:Proto.Types.group_id ->
  ?role:Proto.Types.role ->
  ?notify:bool ->
  k:(reply -> unit) ->
  unit ->
  unit
(** Join asking for [Updates_since (last applied + 1)] when a local replica
    survives (reconnection resync; the server falls back to the full state
    if its log was reduced past that point), [Full_state] otherwise. *)

val leave : t -> group:Proto.Types.group_id -> k:(reply -> unit) -> unit

val get_membership : t -> group:Proto.Types.group_id -> k:(reply -> unit) -> unit

val bcast_state :
  t ->
  group:Proto.Types.group_id ->
  obj:Proto.Types.object_id ->
  data:string ->
  ?mode:Proto.Types.delivery_mode ->
  unit ->
  unit
(** [bcastState]: override the object's state (default sender-inclusive). *)

val bcast_update :
  t ->
  group:Proto.Types.group_id ->
  obj:Proto.Types.object_id ->
  data:string ->
  ?mode:Proto.Types.delivery_mode ->
  unit ->
  unit
(** [bcastUpdate]: append an incremental change. *)

val acquire_lock :
  t -> group:Proto.Types.group_id -> lock:Proto.Types.lock_id -> k:(reply -> unit) -> unit
(** On [`Busy holder] the client is queued; the eventual grant arrives as a
    {!Lock_granted_later} event. *)

val release_lock :
  t -> group:Proto.Types.group_id -> lock:Proto.Types.lock_id -> k:(reply -> unit) -> unit

val reduce_log : t -> group:Proto.Types.group_id -> k:(reply -> unit) -> unit

val ping : t -> k:(rtt:float -> unit) -> unit
(** Round-trip probe through the server. *)

(* --- local replica --------------------------------------------------- *)

val replica : t -> Proto.Types.group_id -> Shared_state.t option
(** Local copy of a joined group's shared state. It first applies every
    delivery not yet applied, so the handle is current as of this call;
    later deliveries reach it only at the next [replica] call (or the next
    sender-exclusive send or resync in the group). Call [replica] again
    rather than keeping the handle. *)

val members : t -> group:Proto.Types.group_id -> Proto.Types.member list
(** The group's members in join order, as this client knows them: the
    [R_join] list with every notified change since applied (a join of a
    present member replaces its role in place, a leave or crash of an
    absent one does nothing; see {!Member_view}). During a rejoin it is
    the last settled view: changes notified meanwhile wait for the reply.
    Only a subscriber keeps a view: [[]] for a group joined without
    [notify], or of which the client holds no replica. *)

val joined_groups : t -> Proto.Types.group_id list

val last_seqno : t -> Proto.Types.group_id -> int option
(** Highest sequence number delivered to the replica (join point - 1 when
    nothing delivered yet); {!replica} reflects every update up to it. *)

val shard_positions : t -> Proto.Types.group_id -> int list option
(** Sharded groups: next expected seqno per shard stream (index = shard),
    covering shards heard from so far. [Some []] before any sharded
    delivery or join baseline. *)

val deliveries_received : t -> int
