(** Per-group state keeping: materialized shared state, the multicast log,
    and the state-log reduction service (§3.2).

    Every sequenced multicast is applied to the in-memory {!Shared_state}
    and appended to a write-ahead log whose record index {e is} the group
    sequence number. Log reduction replaces a log prefix with a durable
    checkpoint of the consistent state at that point: "the new state is
    equivalent with the initial state plus the history of state updates". *)

(** Durable checkpoint of a group, written at creation (persistent groups),
    on log reduction, and read back during crash recovery. *)
type checkpoint = {
  ck_group : Proto.Types.group_id;
  ck_persistent : bool;
  ck_at_seqno : int;  (** state reflects all updates with seqno < this *)
  ck_objects : (Proto.Types.object_id * string) list;
}

(** When the service itself triggers reduction (§3.2 lists policies "based
    on factors such as the state log size and the type of the data"). *)
type reduction_policy =
  | No_reduction
  | Every_n_updates of int
  | Log_bytes_threshold of int

type t

val create :
  group:Proto.Types.group_id ->
  persistent:bool ->
  wal:Proto.Types.update Storage.Wal.t ->
  checkpoints:checkpoint Storage.Snapshot.t ->
  policy:reduction_policy ->
  ?at_seqno:int ->
  initial:(Proto.Types.object_id * string) list ->
  unit ->
  t
(** Create the state for a fresh group; persistent groups immediately
    checkpoint their initial state. [at_seqno] (default 0) is the sequence
    number the initial state reflects — a replica seeding its copy from a
    fetched state blob passes the blob's position. *)

val recover :
  checkpoint ->
  wal:Proto.Types.update Storage.Wal.t ->
  checkpoints:checkpoint Storage.Snapshot.t ->
  policy:reduction_policy ->
  t
(** Rebuild after a server crash: drop the un-durable log tail, start from
    the checkpoint and replay the surviving log suffix. *)

val group : t -> Proto.Types.group_id

val state : t -> Shared_state.t

val next_seqno : t -> int

val snapshot_seqno : t -> int
(** First sequence number still present in the log. *)

val log_length : t -> int

val append :
  t ->
  kind:Proto.Types.update_kind ->
  obj:Proto.Types.object_id ->
  data:string ->
  sender:Proto.Types.member_id ->
  timestamp:float ->
  on_durable:(Proto.Types.update -> unit) ->
  Proto.Types.update
(** Sequence an update: assign the next seqno, apply it to the shared state,
    append it to the log (asynchronously; [on_durable] fires when it reaches
    disk) and run the reduction policy. Returns the stamped update for
    fan-out. *)

val apply_sequenced : t -> Proto.Types.update -> unit
(** Replicated mode: apply and log (asynchronously) an update whose
    sequence number was assigned by the coordinator. The caller is
    responsible for offering updates in sequence order (via a hold-back
    queue). *)

val updates_from : t -> int -> Proto.Types.update list
(** Retained updates with seqno ≥ the argument, in order. *)

val latest_updates : t -> int -> Proto.Types.update list
(** The last [n] retained updates, in order. *)

val reduce : t -> on_done:(upto:int -> unit) -> unit
(** Client- or service-requested reduction: checkpoint now, truncate the
    log prefix once the checkpoint is durable. No-op when the log is
    empty. *)

val checkpoint_now : t -> on_durable:(unit -> unit) -> unit
(** Checkpoint without truncating (persistent-group shutdown path). *)

val base : t -> (Proto.Types.object_id * string) list * int
(** The state at the start of the retained log: the group's initial objects,
    or the last reduction checkpoint. [state t] equals [base] plus the
    retained updates — the property reconciliation (§4.2) relies on. *)

val delete_durable : t -> unit
(** Remove the group's checkpoint (group deletion: "the shared state of a
    deleted group is lost"). *)
