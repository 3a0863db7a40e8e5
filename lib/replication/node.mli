(** A server of the replicated Corona service (§4).

    Nodes form a star over a full TCP mesh: one node is the {e coordinator}
    — the sequencer that assigns monotonically increasing per-group sequence
    numbers, maintains the group {!Directory} and the group-wide lock tables
    — while the others are {e replicas} that serve clients directly, keep
    copies of the shared state of the groups their clients belong to, and
    forward broadcasts to the coordinator for sequencing.

    Fault tolerance (§4.2, fail-stop model): heartbeats between each replica
    and the coordinator with timeout-based detection (TCP resets accelerate
    it). On coordinator failure the replicas run {!Election.List_order}: the
    first live server in the startup list claims the role with escalating
    timeouts and assumes it on acks from half+1 of the servers it believes
    alive, then runs the one recovery round: it queries every live server's
    holdings (sharded: and stream positions), waits until each has answered
    or been declared dead, rebuilds the directory from the answers of the
    servers still alive, heals sequence gaps and moves dead owners' shards.
    An answer that arrives after its round closed counts for nothing. Replicas re-send their
    un-sequenced forwards (duplicates are filtered by per-origin monotone
    tags). On replica failure the coordinator purges its members,
    re-replicates every group left with fewer than two state copies and, if
    the server owned shards, runs the same recovery round. *)

type config = {
  client_port : int;
  server_port : int;
  heartbeat_interval : float;
  failure_timeout : float;  (** silence before declaring a peer dead *)
  reduction : Corona.State_log.reduction_policy;
  access : Corona.Access_control.t;
  relaxed_membership : bool;
      (** §4.1 relaxation: the origin replica notifies its local clients of
          joins/leaves immediately, without waiting for the coordinator
          round-trip *)
  shards : int;
      (** Deployment-time sequencing shards. [1] (default) keeps the classic
          single-sequencer path. [> 1] partitions each group's keyspace over
          N independent per-(group, shard) seqno streams by the
          deterministic {!Ordering.Shard_map}; shard [s] is sequenced by the
          owner in the epoch's owner table, not by the coordinator. Ops that
          span shards (views, lock grants) ride a two-phase cross-shard
          barrier stamped with a vector of per-shard positions. *)
}

val default_config : config
(** Ports 7000/7100, 0.5 s heartbeats, 1.6 s failure timeout, no auto
    reduction, allow-all access, relaxation off, one shard. The election's
    escalation unit is fixed at 0.4 s; it also paces the barrier re-prepare.
    The recovery round has no timer of its own: it closes on answers or on
    deaths, which the failure timeout decides. *)

type role = Coordinator | Replica

type barrier_phase = Prepare | Commit

type barrier_step = {
  bar : int;
  group : Proto.Types.group_id;
  phase : barrier_phase;
  vector : int list;  (** per-shard positions; [[]] at [Prepare] *)
  op : string;  (** short op label, e.g. ["view +cl-3/m"] or ["lock l0"] *)
}

(** Observers and the one bug injection a checker installs. Only [Check]
    and the tests build one; production nodes run {!no_hooks}. The node
    keeps none of what it reports. *)
type hooks = {
  lock_table : Proto.Types.group_id -> Corona.Locks.event -> unit;
      (** called once per lock table the node's directory creates; returns
          that table's {!Corona.Locks} event sink *)
  barrier_step : (barrier_step -> unit) option;
      (** sees each step of the cross-shard barriers this node coordinates:
          a [Prepare] per barrier start, a [Commit] (with the stamped
          vector) per fan. [None] builds no step record at all. *)
  skip_barrier : bool;
      (** the skip-barrier bug injection, set only by [Check]: sharded
          membership views skip the cross-shard barrier and fan as classic
          direct [Membership_update]s, so replicas interleave the view at
          different per-shard points, which the cross-shard oracle must
          catch. Lock grants stay barriered. *)
}

val no_hooks : hooks
(** Discarding lock sinks, no barrier observer, no injection. *)

type t

val create :
  Net.Fabric.t ->
  Net.Host.t ->
  ?config:config ->
  ?hooks:hooks ->
  storage:Corona.Server_storage.t ->
  server_list:Smsg.server_id list ->
  coordinator:Smsg.server_id ->
  unit ->
  t
(** Start a node. [server_list] is the startup-ordered list every server
    knows (it determines election priority); [coordinator] names the initial
    coordinator. The node id is its host name. Call {!connect_peers} once
    all nodes of the cluster exist. *)

val connect_peers : t -> t list -> unit
(** Open mesh connections to peers later in the list (each pair connects
    once; accepting sides learn the link via the handshake hello). *)

val id : t -> Smsg.server_id

val host : t -> Net.Host.t

val fabric : t -> Net.Fabric.t

val role : t -> role

val groups_held : t -> Proto.Types.group_id list
(** Groups this node keeps a state copy of. *)

val group_state : t -> Proto.Types.group_id -> Corona.Shared_state.t option

val group_next_seqno : t -> Proto.Types.group_id -> int option
(** Next sequence number this node's copy expects. *)

val group_updates_from : t -> Proto.Types.group_id -> int -> Proto.Types.update list
(** Retained updates of the local copy (for reconciliation). *)

val group_base : t -> Proto.Types.group_id -> ((Proto.Types.object_id * string) list * int) option
(** The local copy's base state and the sequence number it reflects (initial
    objects or last reduction checkpoint); the retained log starts there. *)

val group_local_members : t -> Proto.Types.group_id -> Proto.Types.member list

(** {2 Sharded sequencing} *)

val sharded : t -> bool
(** [config.shards > 1]. *)

val shard_epoch : t -> int
(** Current shard-ownership epoch this node has adopted. *)

val shard_owners : t -> Smsg.server_id array
(** Owner table of the adopted epoch: index [s] sequences shard [s] (a copy;
    [[||]] unsharded). *)

val group_shard_vector : t -> Proto.Types.group_id -> int array option
(** Applied per-shard positions of the local copy — the next expected seqno
    of each stream (one entry on a classic copy). [None] if no copy here. *)

val group_shard_objects :
  t -> Proto.Types.group_id -> (Proto.Types.object_id * string) list option
(** Merged object view of the local copy: every shard's objects, sorted by
    id (shards cover disjoint slices). *)

val adopt_group_state :
  t ->
  Proto.Types.group_id ->
  objects:(Proto.Types.object_id * string) list ->
  positions:(int * int) list ->
  unit
(** Partition reconciliation hook (§4.2): overwrite the local copy of a
    group with the resolved state. The application chooses the resolution;
    this applies it. [objects] are routed to shards by the deterministic
    map; [positions] gives each stream's next seqno as [(shard, next)] —
    a classic copy is shard 0 at the group's seqno. Barriers parked under
    the previous regime are dropped (the healed coordinator re-prepares
    in-flight ones). *)

val admin_heal : t -> coordinator:Smsg.server_id -> unit
(** After a partition heals: accept [coordinator] as the single coordinator
    again, consider every listed server alive (heartbeats re-prune real
    failures), and — on the coordinator itself — re-run directory recovery
    so membership and sequence counters re-converge. *)

type stats = {
  fwd_bcasts : int;  (** broadcasts forwarded to the coordinator *)
  sequenced : int;  (** updates sequenced (coordinator role) *)
  applied : int;  (** sequenced updates applied to local copies *)
  deliveries_sent : int;  (** messages pushed to local clients *)
  relay_frames_sent : int;
      (** [Relay_fanout] frames sent to relays fronting local members —
          one per relay per broadcast, not per member *)
  elections_started : int;
  took_over_at : float option;  (** when this node became coordinator *)
}

val stats : t -> stats

val transfer_cache_stats : t -> int * int
(** [(hits, misses)] of this node's join-state snapshot cache (join storms
    and state-copy fetches share one materialize+encode per state
    version). *)

val shutdown : t -> unit
