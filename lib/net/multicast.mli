(** Best-effort IP-multicast channels.

    Corona optionally uses IP multicast between servers (§4.1) and from a
    server to capable clients (§5.3: "a version of the communication system
    which uses both IP-multicast, whenever possible, and point-to-point TCP
    connections"). A channel delivers one NIC transmission from the sender
    to every subscription reachable at delivery time; there is no
    retransmission, ordering is only per-sender-FIFO, and subscribers behind
    a partition or a non-multicast ISP simply miss packets — exactly why the
    paper keeps point-to-point TCP alongside.

    A host may carry several subscriptions (distinct [key]s) — e.g. several
    client applets on one machine; each gets its own delivery (and receive
    cost). *)

type t

val channel : Fabric.t -> name:string -> t
(** The channel with this name on this fabric, created on first use — both
    ends of a protocol can reach the same channel by name. *)

val name : t -> string

val join :
  t -> Host.t -> ?key:string -> handler:(size:int -> Payload.t -> unit) -> unit -> unit
(** Subscribe; [key] defaults to the host name. Re-joining with the same
    key replaces the handler. A crash invalidates the host's
    subscriptions. *)

val leave : t -> Host.t -> ?key:string -> unit -> unit

val subscriber_count : t -> int
(** Live subscriptions. *)

val is_member : t -> Host.t -> bool
(** Whether the host has any live subscription. *)

val send : t -> src:Host.t -> size:int -> Payload.t -> unit
(** One serialization + one NIC transmission at the source, then per-
    subscription propagation and receive cost. The sender host does not
    receive its own packet; a dead sender sends nothing. The per-send
    fan-out state is recycled, so steady-state transmissions allocate no
    per-target closures or event records. *)
