(** The coordinator's group directory.

    Control state only — no shared-object payloads live here. For each group
    it tracks: persistence, the global membership (with each member's role,
    notify flag and serving replica), the {e holders} (replicas that keep a
    copy of the group's shared state — the paper's invariant is at least two
    whenever possible, §4.1), the per-group sequence counter, and the
    group-wide lock table.

    Costs, for a group of n members served by k servers with h holders
    (k and h are bounded by the number of servers, not by n): [join],
    [leave] and [member_info] are O(1) in n — a join or leave only
    recomputes [replicas_of], in O(k + h), when a server gains its first
    member or loses its last one, or the holder set changes. [leave]'s
    compaction of the join-ordered table is amortized O(1). [members]
    builds its list on each call, in O(n). [remove_server] walks the members only
    of the groups in which the crashed server served some, O(n) each.
    [rebuild] costs O(1) per reported member. *)

type member_info = {
  mi_role : Proto.Types.role;
  mi_notify : bool;
  mi_server : Smsg.server_id;
}

type entry

type t

val create : lock_table:(Proto.Types.group_id -> Corona.Locks.event -> unit) -> t
(** [lock_table group] is called each time an entry, and with it a lock
    table, is created, and returns that table's {!Corona.Locks} event sink
    ({!Node.hooks}). *)

val find : t -> Proto.Types.group_id -> entry option

val group : entry -> Proto.Types.group_id

val persistent : entry -> bool

val next_seqno : entry -> int

val holders : entry -> Smsg.server_id list

val members : entry -> Proto.Types.member list
(** Join order: a member that rejoins, from any server, keeps its place; one
    that left and joins again goes last. *)

val member_info : entry -> Proto.Types.member_id -> member_info option

val locks : entry -> Corona.Locks.t

val add_group :
  t ->
  group:Proto.Types.group_id ->
  persistent:bool ->
  first_holder:Smsg.server_id ->
  [ `Ok of entry | `Exists ]

val remove_group : t -> Proto.Types.group_id -> unit

val join :
  t ->
  group:Proto.Types.group_id ->
  member:Proto.Types.member_id ->
  role:Proto.Types.role ->
  notify:bool ->
  server:Smsg.server_id ->
  [ `Ok of entry * Smsg.server_id option | `No_group ]
(** Record the member; returns the entry and, when the serving replica is
    not yet a holder, an existing holder it should fetch the state from
    (the serving replica becomes a holder). *)

val leave :
  t ->
  group:Proto.Types.group_id ->
  member:Proto.Types.member_id ->
  [ `Ok of entry | `No_group | `Not_member ]

val sequence : entry -> int
(** Allocate the next sequence number. *)

val bump_seqno : entry -> int -> unit
(** Raise the counter to at least the given value (directory recovery). *)

val replicas_of : entry -> Smsg.server_id list
(** Servers that must receive the group's sequenced updates and membership
    changes: every holder plus every member-serving replica. O(1): the list
    is maintained eagerly at join/leave/holder mutations, so the
    per-broadcast fan-out read allocates nothing. *)

val add_holder : entry -> Smsg.server_id -> unit

val remove_server :
  t ->
  Smsg.server_id ->
  ((Proto.Types.group_id * Proto.Types.member_id list) list
  * (Proto.Types.group_id * Smsg.server_id option) list)
(** Purge a crashed server. Returns (per-group members lost) and (groups
    whose holder count fell below two, with a surviving holder to copy from
    — [None] when the last copy died). Both lists follow the [Hashtbl.iter]
    order of the directory's groups. Each group's lost members follow the
    [Hashtbl.fold] order of its member index: a hashtable made by
    [Hashtbl.create 8], into which a member is inserted when [join] or
    [rebuild] first records it and from which it is removed by [leave] or
    [remove_server], in the order those calls happen. That order is not
    join order; the checker's traces depend on it. *)

val rebuild : t -> (Smsg.server_id * Smsg.dir_report) list -> unit
(** Directory recovery after coordinator failover: union the replicas'
    reports — membership is the union of local memberships, the sequence
    counter the max, every reporter a holder. *)
