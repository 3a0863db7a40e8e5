(** Server-to-server protocol of the replicated Corona service (§4).

    Servers form a star for sequencing — replicas forward client broadcasts
    to a sequencer, which assigns sequence numbers and multicasts them to
    the replicas serving the group — plus a full mesh for control traffic:
    state fetches, heartbeats, election, and directory recovery.

    {b One layout, one or N shards.} The sequencing messages ({!t.Fwd_bcast},
    {!t.Sequenced}, {!t.Fetch_updates}, {!t.Updates_blob}) carry a [shard]
    stamp, and the forward and sequenced ones an ownership [epoch] too. A
    classic deployment is the one-shard layout: shard 0, epoch 0, and the
    coordinator as the owner of shard 0. The stamp is on the wire only on a
    sharded deployment ([~sharded] of {!wire_size}, {!send} and {!pre}):
    the shard count is fixed per deployment, so both ends know whether it is
    there, and a classic frame keeps its size. [dr_shards] and
    [State_blob.shards] follow the same rule.

    Unlike the client protocol (which has a real binary codec), server
    messages carry a structural {!wire_size} so the simulator charges honest
    byte counts without a second codec. *)

type server_id = string

(** Deduplication tag for a forwarded broadcast: the origin replica numbers
    its forwards so a re-send after coordinator failover is not sequenced
    twice. *)
type origin_tag = { og_server : server_id; og_seq : int }

(** Per-group directory snapshot a replica reports during coordinator
    recovery. *)
type dir_report = {
  dr_group : Proto.Types.group_id;
  dr_persistent : bool;
  dr_next_seqno : int;
  dr_members : (Proto.Types.member * bool) list;
      (** local members of that replica, with their notify flag *)
  dr_origins : (int * server_id * int) list;
      (** [(shard, origin, og_seq)]: the last forward of each origin the
          copy applied, per shard (0 on a classic copy) — the new
          sequencer's duplicate filter starts from these *)
  dr_shards : (int * int) list;
      (** [(shard, next)] stream positions of a sharded copy, which the
          coordinator reseeds moved shard allocators from; [[]] on a classic
          copy, where the section costs no bytes ([shards] is fixed per
          deployment, so both ends know whether it is there) *)
}

(** Cross-shard operation carried by a {!t.Barrier_commit}: every replica
    applies it exactly when its per-shard streams reach the stamped vector,
    so all replicas interleave it identically with all N streams. *)
type shard_op =
  | Op_view of {
      change : Proto.Types.membership_change;
      members : Proto.Types.member list;
      origin : server_id;
          (** replica serving the joining/leaving client, which completes the
              client's pending call when the barrier fires *)
    }
  | Op_lock of { lock : Proto.Types.lock_id; member : Proto.Types.member_id }

val shard_op_label : shard_op -> string
(** Short human label for traces and journals. *)

type t =
  (* liveness *)
  | Heartbeat of { from : server_id }
  | Heartbeat_ack of { from : server_id }
  (* group lifecycle (replica -> coordinator -> replica) *)
  | Fwd_create of {
      origin : server_id;
      group : Proto.Types.group_id;
      creator : Proto.Types.member_id;
      persistent : bool;
      initial : (Proto.Types.object_id * string) list;
    }
  | Create_result of { group : Proto.Types.group_id; error : string option }
  | Fwd_delete of {
      origin : server_id;
      group : Proto.Types.group_id;
      requester : Proto.Types.member_id;
    }
  | Delete_group of { group : Proto.Types.group_id }
      (** coordinator -> every replica of the group, and the requester's
          replica *)
  | Delete_refused of { group : Proto.Types.group_id; reason : string }
      (** coordinator -> the requester's replica *)
  (* membership *)
  | Fwd_join of {
      origin : server_id;
      group : Proto.Types.group_id;
      member : Proto.Types.member_id;
      role : Proto.Types.role;
      notify : bool;
    }
  | Join_result of {
      group : Proto.Types.group_id;
      member : Proto.Types.member_id;
      error : string option;
      next_seqno : int;
      members : Proto.Types.member list;
      holder : server_id option;
          (** a replica that already has the state, to fetch from *)
    }
  | Fwd_leave of {
      origin : server_id;
      group : Proto.Types.group_id;
      member : Proto.Types.member_id;
      crashed : bool;
    }
  | Membership_update of {
      group : Proto.Types.group_id;
      change : Proto.Types.membership_change;
      members : Proto.Types.member list;
    }  (** coordinator -> replicas of the group (they notify local clients) *)
  (* sequencing *)
  | Fwd_bcast of {
      origin : origin_tag;
      epoch : int;  (** the origin's shard epoch when it (re-)sent this *)
      shard : int;
      group : Proto.Types.group_id;
      sender : Proto.Types.member_id;
      kind : Proto.Types.update_kind;
      obj : Proto.Types.object_id;
      data : string;
      mode : Proto.Types.delivery_mode;
    }  (** origin replica -> owner of [shard]: sequence this broadcast *)
  | Sequenced of {
      epoch : int;
      shard : int;
      origin : origin_tag;
      update : Proto.Types.update;
      mode : Proto.Types.delivery_mode;
    }
      (** owner of [shard] -> replicas, in the shard's stream order: the
          group's replicas on a classic deployment, every live server on a
          sharded one *)
  | Bcast_reject of { origin : origin_tag; reason : string }
  (* state replication *)
  | Fetch_state of { from : server_id; group : Proto.Types.group_id }
  | State_blob of {
      group : Proto.Types.group_id;
      at_seqno : int;
      objects : (Proto.Types.object_id * string) list;
      error : string option;
      shards : (int * int) list;
          (** per-shard (shard, next) positions of the snapshot; [[]] for
              classic single-stream groups *)
    }
  | Add_replica of {
      group : Proto.Types.group_id;
      holder : server_id option;
    }  (** coordinator asks a server to become a (backup) holder *)
  | Fetch_updates of {
      from : server_id;
      group : Proto.Types.group_id;
      shard : int;
      from_seqno : int;
    }
      (** gap repair of one stream: replica -> coordinator, answered from
          its own log or relayed to a holder *)
  | Updates_blob of {
      group : Proto.Types.group_id;
      shard : int;
      updates : Proto.Types.update list;
    }  (** holder -> stale replica: the missing sequenced updates *)
  (* locks (coordinator-owned in replicated mode) *)
  | Fwd_lock of {
      origin : server_id;
      group : Proto.Types.group_id;
      lock : Proto.Types.lock_id;
      member : Proto.Types.member_id;
      acquire : bool;
    }
  | Lock_result of {
      group : Proto.Types.group_id;
      lock : Proto.Types.lock_id;
      member : Proto.Types.member_id;
      result : [ `Granted | `Busy of Proto.Types.member_id | `Released | `Error of string ];
    }
  (* election and directory recovery *)
  | Elect_me of { from : server_id }
  | Elect_ack of { from : server_id; candidate : server_id; ok : bool }
  | Coordinator_is of { coord : server_id }
  | Dir_query of { from : server_id }
  | Dir_reply of { from : server_id; reports : dir_report list }
  (* cross-shard barrier and shard ownership (§ DESIGN.md "Sharded sequencing") *)
  | Barrier_prepare of { bar : int; epoch : int; group : Proto.Types.group_id }
      (** coordinator -> each shard owner: freeze the group's streams and
          report your positions *)
  | Barrier_pos of {
      from : server_id;
      bar : int;
      group : Proto.Types.group_id;
      positions : (int * int) list;
          (** (shard, next) for the shards [from] owns *)
    }
  | Barrier_commit of {
      bar : int;
      epoch : int;
      group : Proto.Types.group_id;
      vector : int array;
      op : shard_op;
    }  (** coordinator -> every server: the stamped cross-shard op *)
  | Shard_assign of {
      epoch : int;
      owners : server_id array;  (** [owners.(s)] sequences shard [s] *)
      positions : (Proto.Types.group_id * int * int) list;
          (** (group, shard, next) seeding new allocators *)
      origins : (Proto.Types.group_id * int * server_id * int) list;
          (** (group, shard, origin, og_seq) seeding new owners' dedup *)
    }  (** coordinator -> every server, closing a directory-recovery round *)

type Net.Payload.t += Srv of t
  (** Transport payload for the server mesh. *)

val wire_size : sharded:bool -> t -> int
(** Structural estimate of the encoded size in bytes (header + fields +
    payload data). [sharded]: whether the deployment has more than one
    shard, i.e. whether the shard stamp is on the wire. *)

val send : sharded:bool -> Net.Tcp.conn -> t -> unit

val send_batch : sharded:bool -> Net.Tcp.batch -> t -> unit
(** Fan a message out to every open connection of the batch via
    {!Net.Tcp.send_batch} (one batched fabric transmit). The wire size is
    computed once for all recipients. The batch is empty after the call. *)
