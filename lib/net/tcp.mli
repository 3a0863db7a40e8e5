(** Reliable, FIFO, connection-oriented transport over the {!Fabric}.

    Models the TCP point-to-point connections the Corona implementation used:
    per-connection in-order delivery, retransmission on loss (so partitions
    stall a connection rather than silently losing data), graceful close, and
    asynchronous notification when the peer crashes. *)

type conn

type listener

type close_reason =
  | Graceful  (** peer called {!close} *)
  | Peer_crashed  (** peer host failed; detected after a notification delay *)
  | Rejected  (** no listener at the destination port *)

val pp_close_reason : Format.formatter -> close_reason -> unit

val listen :
  Fabric.t -> Host.t -> port:int -> on_accept:(conn -> unit) -> listener
(** Register a listener. At most one listener per (host, port).
    @raise Invalid_argument on a duplicate binding. *)

val close_listener : listener -> unit

val connect :
  Fabric.t ->
  src:Host.t ->
  dst:Host.t ->
  port:int ->
  ?timeout:float ->
  on_connected:(conn -> unit) ->
  on_failed:(unit -> unit) ->
  unit ->
  unit
(** Three-ish-way handshake: [on_connected] fires on the client side once the
    server accepted (the server side gets [on_accept]); [on_failed] fires if
    there is no listener, the destination is unreachable, or the [timeout]
    (default 5 s) expires. *)

val set_receiver : conn -> (size:int -> Payload.t -> unit) -> unit
(** Install the message handler. Messages arriving before a receiver is
    installed are buffered and flushed on installation. *)

val set_on_close : conn -> (close_reason -> unit) -> unit

val send : conn -> size:int -> Payload.t -> unit
(** Queue a message. Delivery is reliable and in-order while the connection
    lives; messages in flight when the connection dies are lost. Sending on a
    closed connection is a silent no-op (like writing to a broken socket
    whose error you ignore). *)

val send_batch : conn list -> size:int -> Payload.t -> unit
(** [send_batch conns ~size payload] sends one message on every open
    connection in [conns], equivalent to a [send] loop (sequence numbers are
    assigned in list order) but issued through {!Fabric.transmit_many}: one
    batched fabric transmit per distinct sending host, so a fan-out costs one
    scheduled delivery event per recipient instead of three. Closed
    connections are skipped; retransmits after drops use the chained path. *)

type batch
(** A reusable fan-out fill buffer: clear it, add this broadcast's recipient
    connections, hand it to {!send_batch_buf}. One batch per sending
    component; reuse across broadcasts is what makes the fan-out loop
    allocation-free. *)

val batch_create : unit -> batch

val batch_clear : batch -> unit
(** Empty the batch for refilling. O(1); the backing array is kept. *)

val batch_add : batch -> conn -> unit
(** Append a recipient connection (amortized O(1), grows by doubling). *)

val batch_length : batch -> int

val batch_get : batch -> int -> conn
(** [batch_get b i] is the [i]-th connection added since the last clear.
    @raise Invalid_argument when [i] is out of bounds. *)

val send_batch_buf : batch -> size:int -> Payload.t -> unit
(** {!send_batch} over a reusable {!batch}: same semantics (sequence numbers
    in add order, closed connections skipped, retransmits on the chained
    path), but the per-broadcast recipient state is recycled through the
    transport's freelist, so the steady-state hot loop allocates nothing.
    The batch is cleared by the call — its fill array is swapped into the
    in-flight record, not copied. *)

val close : conn -> unit
(** Graceful close; the peer's [on_close Graceful] fires after one latency. *)

val is_open : conn -> bool

val local_host : conn -> Host.t

val peer_host : conn -> Host.t

val id : conn -> int
(** Unique identifier (same value on both endpoints of a connection). *)
