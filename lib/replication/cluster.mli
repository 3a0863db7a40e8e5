(** Deployment helper for the replicated service.

    Builds the topology of Figure 2: a coordinator plus N replica servers on
    their own hosts, fully meshed over TCP, each with its own stable
    storage. Clients are pointed at replicas round-robin (the coordinator
    "manages only a reduced number of connections", §4.1). Also drives
    partition reconciliation across the cluster. *)

type t

val create :
  Net.Fabric.t ->
  ?config:Node.config ->
  ?hooks:(Smsg.server_id -> Node.hooks) ->
  ?server_cpu:Net.Host.cpu_profile ->
  replicas:int ->
  unit ->
  t
(** Create hosts ["srv-0"] (coordinator) through ["srv-N"], start the nodes
    and mesh them. [hooks id] gives node [id] its checker hooks (default
    {!Node.no_hooks}); only [Check] and the tests pass it. *)

val fabric : t -> Net.Fabric.t

val nodes : t -> Node.t list
(** All nodes in startup order (coordinator first). *)

val node : t -> Smsg.server_id -> Node.t

val coordinator : t -> Node.t
(** The node currently acting as coordinator (after failover this follows
    the election outcome; raises [Not_found] if none claims the role). *)

val replica_for : t -> int -> Node.t
(** Round-robin assignment of client [i] to a live replica (never the
    initial coordinator). *)

val live_nodes : t -> Node.t list

val reconcile :
  t ->
  group:Proto.Types.group_id ->
  side_a:Node.t ->
  side_b:Node.t ->
  resolution:Reconcile.resolution ->
  Reconcile.divergence
(** After {!Net.Fabric.heal}: compare the group's copies held by the two
    nodes (one from each former partition component), apply the chosen
    resolution to every live node, and re-unify the cluster under the
    earliest-listed live coordinator. Returns the divergence that was
    found. *)
