(** Root-side registry of the relay dissemination tier.

    Relays ({!Relay}) open one control connection ([Relay_register]) plus
    one proxied upstream connection per member ([Relay_proxy]). Ordinary
    request/reply traffic flows over the proxied connections untouched; the
    hub only intervenes on fan-out, collapsing all proxied recipients of a
    broadcast into one [Relay_fanout] frame per relay — O(relays) root
    transmits instead of O(members). *)

type relay = {
  r_id : Proto.Types.member_id;
  r_conn : Net.Tcp.conn;  (** control connection *)
  r_index : int;  (** registration order: the relay's canonical slice *)
  mutable r_last_heartbeat : float;
  mutable r_members : int;  (** self-reported via [Relay_heartbeat] *)
}

type t

val create : unit -> t

val register : t -> relay:Proto.Types.member_id -> conn:Net.Tcp.conn -> at:float -> relay
(** Register a relay's control connection; assigns the next index. *)

val register_proxy : t -> relay:Proto.Types.member_id -> conn:Net.Tcp.conn -> unit
(** Mark [conn] as one member's traffic proxied by [relay]. Unknown relay
    ids leave the connection direct (degraded but correct). *)

val heartbeat : t -> relay:Proto.Types.member_id -> members:int -> at:float -> unit

val alive : t -> relay list

val sibling : t -> relay -> relay option
(** The relay that adopts a dead sibling's members: next alive relay in
    registration order, wrapping around; [None] if none are left. *)

type closed = Control of relay | Proxied of relay | Not_relay

val conn_closed : t -> Net.Tcp.conn -> closed
(** Classify and unhook a closing connection. *)

type delivered = {
  d_direct : int;  (** point-to-point recipients *)
  d_frames : int;  (** relay control frames (≤ relay count) *)
  d_direct_bytes : int;
  d_frame_bytes : int;
}

val deliver :
  t ->
  group:Proto.Types.group_id ->
  ?exclude:Proto.Types.member_id ->
  inner:Proto.Message.response ->
  Net.Tcp.batch ->
  delivered
(** Fan [inner] out to the recipient batch (which is consumed — refill it
    per broadcast): one pre-encode shared by all direct recipients (the
    classic path, byte-identical when no relays are registered) plus one
    spliced [Relay_fanout] frame shared across every relay with a proxied
    recipient. [exclude] rides inside the frame so the relay skips the
    sender of a sender-exclusive broadcast. *)
