(** The client-facing half of a Corona server.

    The single server ({!Server}, §3) and every node of the replicated
    service (§4) give their clients the same service: membership with
    opt-in change notifications, sender-inclusive or -exclusive fan-out, and
    per-client state transfer. This module is that service, minus
    sequencing, logging and the group directory, which stay with the
    caller:
    - the member ↔ connection index, with its reverse indexes (connection →
      members, member → groups) so a disconnect costs the member's own
      groups;
    - replies, fan-out through the {!Relay_hub} with one shared encode per
      message, and membership-change notifications to subscribed members;
    - [Join_accepted] frames served from the {!Transfer} snapshot cache
      and sized from the caller's kept member-list length;
    - the requests every server answers alike: [Ping], [Reduce_log], and
      the relay-tier registrations, which get no reply.

    Membership tables stay with the caller (a server's table is global, a
    node's holds its own clients); the engine keeps its member → group
    index in step through {!add_member} / {!remove_member} /
    {!forget_group}. *)

type t

val create : Sim.Engine.t -> t

type counters = {
  responses_sent : int;
      (** replies, notifications and control fan-outs, per recipient *)
  deliveries_sent : int;  (** sequenced-update deliveries, per recipient *)
  relay_frames_sent : int;  (** [Relay_fanout] frames, one per relay per fan-out *)
  state_transfer_bytes : int;
}

val counters : t -> counters

val add_deliveries : t -> count:int -> unit
(** Count deliveries made outside {!deliver} (IP-multicast fan-out). *)

val transfer_cache : t -> Transfer.cache

(** {2 Connections} *)

val accept : t -> Net.Tcp.conn -> unit
(** Track a newly accepted client connection. *)

val close_clients : t -> unit

(** {2 Sending} *)

val send : t -> Net.Tcp.conn -> Proto.Message.response -> unit

val send_encoded : t -> Net.Tcp.conn -> Proto.Message.encoded -> unit

val send_member : t -> Proto.Types.member_id -> Proto.Message.response -> unit
(** To the member's bound connection, if open. *)

val fail : t -> Net.Tcp.conn -> Proto.Types.group_id -> string -> unit
(** [Request_failed]. *)

(** {2 Membership} *)

val bind : t -> Proto.Types.member_id -> Net.Tcp.conn -> unit
(** The member is served over [conn] from now on. *)

val add_member :
  t ->
  Membership.t ->
  group:Proto.Types.group_id ->
  member:Proto.Types.member_id ->
  role:Proto.Types.role ->
  notify:bool ->
  unit
(** Add to the group's table (joined now) and to the member's group index. *)

val remove_member : t -> Membership.t -> group:Proto.Types.group_id -> Proto.Types.member_id -> bool
(** [true] if the member was in the table. *)

val forget_group : t -> Membership.t -> group:Proto.Types.group_id -> unit
(** Unindex every member of a group that is going away. *)

val disconnect :
  t -> Net.Tcp.conn -> (Proto.Types.member_id -> Proto.Types.group_id list -> unit) -> unit
(** A client connection closed: unhook it from the relay hub, unbind the
    connection's members, then call [k member groups] for each with the
    groups it belonged to. The caller removes it from them. *)

(** {2 Fan-out} *)

val fan_out :
  t ->
  Membership.t ->
  group:Proto.Types.group_id ->
  ?exclude:Proto.Types.member_id ->
  Proto.Message.response ->
  unit
(** Send to the group's members in join order, minus [exclude]; counted as
    responses. *)

val deliver :
  t ->
  Membership.t ->
  group:Proto.Types.group_id ->
  ?exclude:Proto.Types.member_id ->
  ?skip:(Proto.Types.member_id -> bool) ->
  Proto.Message.response ->
  unit
(** {!fan_out} for a sequenced update, minus members [skip] accepts;
    counted as deliveries. *)

val notify :
  t ->
  Membership.t ->
  group:Proto.Types.group_id ->
  Proto.Types.membership_change ->
  unit
(** [Membership_changed] to the members that asked for notifications, minus
    the changed member. The frame carries the change only, never the member
    list; a join's change carries the joiner's role. *)

(** {2 Joins} *)

val join_state :
  t -> [ `Log of State_log.t | `At of int ] -> Proto.Types.transfer_spec -> Transfer.prepared
(** The joiner's payload, through the snapshot cache ([`At n]: no state is
    kept, the joiner starts at [n]). Counted as one join served. *)

val accept_join :
  t ->
  Net.Tcp.conn ->
  group:Proto.Types.group_id ->
  members:Proto.Types.member list ->
  members_size:int ->
  multicast:bool ->
  Transfer.prepared ->
  unit
(** Send [Join_accepted] if the connection is still open, sized by
    {!Proto.Message.pre_encode_members} from [members_size], the encoded
    length of [members]. A server passes its table's kept
    {!Membership.members_size}, so a join costs O(1) in group size. *)

(** {2 Requests every server answers alike} *)

val reduce_log : t -> Net.Tcp.conn -> group:Proto.Types.group_id -> State_log.t -> unit
(** Trim the log; reply [Log_reduced] once the checkpoint is durable. *)

val serve : t -> Net.Tcp.conn -> Proto.Message.request -> unit
(** [Ping] gets a [Pong]; [Relay_register] and [Relay_proxy] are recorded in
    the relay hub; every other request is ignored. *)
