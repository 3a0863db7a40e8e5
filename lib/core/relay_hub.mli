(** Root-side registry of the relay dissemination tier.

    Relays ({!Relay}) open one control connection ([Relay_register]) plus
    one proxied upstream connection per member ([Relay_proxy]). Ordinary
    request/reply traffic flows over the proxied connections untouched; the
    hub only intervenes on fan-out, collapsing all proxied recipients of a
    broadcast into one [Relay_fanout] frame per relay — O(relays) root
    transmits instead of O(members). *)

type t

val create : unit -> t

val register : t -> relay:Proto.Types.member_id -> conn:Net.Tcp.conn -> unit
(** Register [relay]'s control connection, on which its fan-out frames are
    sent. *)

val register_proxy : t -> relay:Proto.Types.member_id -> conn:Net.Tcp.conn -> unit
(** Mark [conn] as one member's traffic proxied by [relay]. Unknown relay
    ids leave the connection direct (degraded but correct). *)

val conn_closed : t -> Net.Tcp.conn -> unit
(** Unhook a closing connection; a relay whose control connection closed is
    forgotten. *)

type delivered = {
  d_direct : int;  (** point-to-point recipients *)
  d_frames : int;  (** relay control frames (≤ relay count) *)
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
