(** Deployment builder: turns a {!Schedule.kind} into a running service
    and gives the runner one vocabulary of operations (crash / restart /
    partition / heal / reconcile) plus the state extraction the oracles
    need (per-group copies with digests and retained logs, restart-era
    boundaries). The lock and barrier journals live here, not in the
    servers: every server and node is created with hooks that feed them. *)

type copy = {
  c_owner : string;  (** which server/incarnation holds this copy *)
  c_digest : string;
  c_next : int;
      (** next sequence number the copy expects; sharded copies report the
          sum of their per-shard positions *)
  c_base : ((Proto.Types.object_id * string) list * int) option;
  c_updates : Proto.Types.update list;  (** retained log from the base *)
  c_vector : int list;  (** per-shard stream positions; [] unsharded *)
}

type t

val fabric : t -> Net.Fabric.t

val create : Net.Fabric.t -> ?bug:Inject.t -> ?clients:int -> Schedule.kind -> t
(** [bug]'s skip-barrier injection goes into every node's
    {!Replication.Node.hooks}; the runner applies the other injections.
    [clients] sizes the relay slice partition (Relay kind only). *)

val shards : t -> int

val client_target : t -> int -> Net.Host.t
(** Where agent [i] should (re)connect right now: its serving replica, or
    its slice's owning (or, after a crash, adopting) relay. *)

val crash_server : t -> int -> unit
(** Crash server [idx]. Its lock journals stay in the oracle input. *)

val restart_server : t -> unit
(** Single deployment only: bring the host back and start a fresh server
    incarnation over the same stable storage (§6 recovery). *)

val restart_times : t -> float list
(** Era boundaries, oldest first; [] for replicated deployments. *)

val crash_relay : t -> int -> unit
(** Relay deployments: kill a relay's host permanently. Its members fail
    over client-side. *)

val partition : t -> isolated:int list -> unit
(** Isolate these server indexes from every other host. *)

val heal : t -> unit

val reconcile_after_heal : t -> unit
(** Compare every group's live copies; when two disagree, run the §4.2
    reconciliation adopting the freshest side, otherwise just re-unify the
    cluster under the earliest live server. *)

val live_nodes : t -> Replication.Node.t list
(** Replicated deployments only; [] for a single server. *)

val group_ids : t -> string list

val copies : t -> string -> copy list
(** Live copies of a group, for the convergence/fidelity oracles. *)

val members : t -> string -> string list
(** The servers' view of a group's membership (replicated: union of the
    members each live node serves). *)

val lock_journals : t -> (string * string * Corona.Locks.event list) list
(** (owner, group, events oldest first), one per lock table ever created,
    in creation order: crashed incarnations and crashed nodes included, and
    a deleted then recreated group has two. The owner is ["srv-0#N"] for
    single-server incarnation [N], the node id in a cluster. *)

val barrier_journals : t -> (string * Replication.Node.barrier_step list) list
(** Cross-shard barrier journals of every live node that ever coordinated
    barriers (owner label, steps oldest first). *)
