(** Lock-based synchronization of client updates (§3.2).

    Locks are named, group-scoped and owned by members. An acquire on a held
    lock queues the requester (the immediate reply tells it who holds the
    lock); releasing grants to the head of the queue. A member's locks are
    force-released when it leaves or crashes. *)

type t

(** One step of a table's event stream, in execution order. [Granted]
    is emitted both for immediate grants and for grants inherited from the
    wait queue on release; [Released] covers voluntary release and the
    force-release on leave/crash; [Unqueued] marks a waiter dropped from a
    queue before ever holding the lock. Replaying a table's stream against a
    model checks holder exclusivity and FIFO grant order — the lock-safety
    oracle of [Check.Oracles]. *)
type event =
  | Granted of Proto.Types.lock_id * Proto.Types.member_id
  | Queued of Proto.Types.lock_id * Proto.Types.member_id
  | Unqueued of Proto.Types.lock_id * Proto.Types.member_id
  | Released of Proto.Types.lock_id * Proto.Types.member_id

val create : on_event:(event -> unit) -> t
(** [on_event] is the table's sink, called with each event as it happens.
    The table keeps no history: production servers pass [ignore], and a
    checking harness passes a sink that journals. *)

val acquire :
  t ->
  lock:Proto.Types.lock_id ->
  member:Proto.Types.member_id ->
  [ `Granted | `Busy of Proto.Types.member_id ]
(** [`Busy holder] also means the requester is now queued (duplicate queue
    entries are not created; re-acquiring a held lock is [`Granted]). *)

val release :
  t ->
  lock:Proto.Types.lock_id ->
  member:Proto.Types.member_id ->
  [ `Released of Proto.Types.member_id option | `Not_holder ]
(** [`Released (Some next)] names the queued member that was just granted
    the lock; the caller must notify it. *)

val release_all :
  t ->
  member:Proto.Types.member_id ->
  (Proto.Types.lock_id * Proto.Types.member_id option) list
(** Force-release every lock held by the member and drop it from every wait
    queue. Returns the released locks with their new holders. *)

val holder : t -> Proto.Types.lock_id -> Proto.Types.member_id option

val waiters : t -> Proto.Types.lock_id -> Proto.Types.member_id list

