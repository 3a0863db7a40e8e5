(** Durable checkpoint store.

    Log reduction (§3.2) replaces a prefix of the state log with a consistent
    snapshot of the group state; persistent groups also checkpoint their
    state so it outlives null membership and server restarts. A snapshot
    store keeps, per key, the latest durable value and the latest in-flight
    value. Saves go through the {!Disk} queue; a crash keeps the previous
    durable snapshot. *)

type 'a t

val create : Disk.t -> name:string -> 'a t

val save : 'a t -> key:string -> size:int -> 'a -> on_durable:(unit -> unit) -> unit
(** Write a snapshot. Until the write completes, {!load} still returns the
    previous durable value. *)

val load : 'a t -> key:string -> 'a option
(** Latest durable snapshot for [key]. *)

val delete : 'a t -> key:string -> unit
(** Remove both durable and pending versions (group deletion, §3.2). *)

val keys : 'a t -> string list
(** Keys with a durable snapshot, sorted. *)
