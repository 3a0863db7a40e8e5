(** The stateful Corona server (§3).

    A single logical server that accepts TCP connections from clients and
    provides the full service suite: group membership (create / delete /
    join / leave / getMembership plus change notifications), totally ordered
    group multicast with sender-inclusive or -exclusive delivery and server
    timestamping, state keeping with write-ahead logging, per-client state
    transfer, state-log reduction, and lock-based synchronization.

    The server is {e stateful}: it maintains up-to-date copies of group
    shared states as identifier-tagged byte streams, without interpreting
    them. Set [maintain_state = false] for the paper's "stateless"
    comparison server (Figure 3), which acts as a sequencer only.

    A server survives crashes of its host: create a new server on the
    restarted host with the {e same} {!Server_storage.t} and persistent
    groups are recovered from checkpoint + durable log (updates that never
    reached the disk are lost — the risk §6 calls acceptable). *)

type logging_mode =
  | No_logging  (** state kept in memory only *)
  | Async_logging  (** default: multicast proceeds in parallel with disk I/O *)
  | Sync_logging  (** fan-out waits for durability (throughput ablation) *)

type config = {
  port : int;
  maintain_state : bool;
  logging : logging_mode;
  reduction : State_log.reduction_policy;
  access : Access_control.t;
  use_ip_multicast : bool;
      (** §5.3 hybrid mode: group deliveries go out once on the group's
          IP-multicast channel for capable clients and point-to-point for
          the rest; membership, state transfer and locks stay on TCP *)
  transfer_chunk_bytes : int option;
      (** QoS-adaptive scheduling ([11], §5.3): when set, a join-state
          snapshot larger than this is sent as paced [State_chunk] slices
          (at roughly half the NIC rate) so concurrent interactive
          multicasts are not head-of-line blocked behind a bulk transfer;
          [None] sends the whole state in one message *)
  record_lock_journal : bool;
      (** keep per-group {!Locks} grant journals in memory so invariant
          checkers ({!Check}) can replay them; off by default *)
  wal_batching : Storage.Wal.batch_config option;
      (** WAL group commit: log appends arriving while the disk is busy
          coalesce into one physical write paying a single seek, making
          small-record durable multicast throughput CPU-bound instead of
          seek-bound. [None] (default) issues one write per record. *)
  lean_joins : bool;
      (** elide the O(members) membership list from [Join_accepted] replies
          (clients still learn changes via notifications) — keeps 100k-member
          join storms out of the quadratic regime; off by default *)
}

val default_config : config
(** Port 7000, stateful, async logging, no automatic reduction, allow-all,
    multicast off, unchunked transfers, no WAL batching. *)

type stats = {
  requests_handled : int;
  bcasts_sequenced : int;
  deliveries_sent : int;
      (** sequenced-update deliveries ([Deliver]) fanned out, counted per
          recipient reached — multicast counts each subscriber *)
  bytes_delivered : int;  (** wire bytes of those deliveries *)
  responses_sent : int;
      (** every other response: control replies, membership notifications,
          join/state-transfer traffic *)
  joins_served : int;
  state_transfer_bytes : int;
  relay_frames_sent : int;
      (** [Relay_fanout] control frames transmitted — the root-side relay
          fan-out cost (one frame per relay per broadcast, not per member) *)
}

type t

val create :
  Net.Fabric.t ->
  Net.Host.t ->
  ?config:config ->
  storage:Server_storage.t ->
  unit ->
  t
(** Start the server: bind the listener and recover persistent groups from
    [storage]. @raise Invalid_argument if the port is already bound. *)

val shutdown : t -> unit
(** Graceful stop: checkpoint persistent groups, close the listener and all
    client connections. *)

val host : t -> Net.Host.t

val config : t -> config

val group_ids : t -> Proto.Types.group_id list

val group_exists : t -> Proto.Types.group_id -> bool

val group_members : t -> Proto.Types.group_id -> Proto.Types.member list
(** Empty when the group does not exist. *)

val group_state : t -> Proto.Types.group_id -> Shared_state.t option
(** The server's materialized copy (stateful mode only). *)

val group_next_seqno : t -> Proto.Types.group_id -> int option

val group_log_length : t -> Proto.Types.group_id -> int option

val lock_holder :
  t -> Proto.Types.group_id -> Proto.Types.lock_id -> Proto.Types.member_id option

val lock_journal : t -> Proto.Types.group_id -> Locks.event list
(** The group's lock grant journal (empty unless
    [config.record_lock_journal] is on, or the group is unknown). *)

val group_updates_from : t -> Proto.Types.group_id -> int -> Proto.Types.update list
(** Retained updates of the group's log with seqno ≥ the argument (stateful
    mode only). *)

val group_base : t -> Proto.Types.group_id -> ((Proto.Types.object_id * string) list * int) option
(** The state at the start of the retained log and the sequence number it
    reflects: [state = base + retained updates], the replay property the
    log-reduction fidelity oracle checks. *)

val stats : t -> stats

val pool_stats : t -> Proto.Pool.stats
(** Always zeros: there is no frame-buffer pool behind it — fan-out
    encodings are sized, not serialized into leased buffers. Kept only
    until the end-to-end benchmark drops its [proto.pool_*] metrics. *)

val relay_hub : t -> Relay_hub.t
(** The relay registry (empty when no relay tier is deployed). *)

val transfer_cache_stats : t -> int * int
(** [(hits, misses)] of the join-state snapshot cache: a miss pays one full
    materialize+encode of a group's state, a hit shares it — the join-storm
    amortization counter the transfer bench asserts on. *)

val connected_clients : t -> int
