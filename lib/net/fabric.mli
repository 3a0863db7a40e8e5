(** Network fabric: the container tying hosts together.

    The fabric owns the latency model, optional jitter and loss, and the
    partition state. Transport protocols ({!Tcp}, {!Multicast}) are built on
    its {!transmit} primitive, which charges the full cost pipeline:
    sender CPU serialization → sender NIC transmission → propagation →
    receiver CPU deserialization → handler. *)

type config = {
  base_latency : float;  (** one-way propagation delay, seconds *)
  jitter : float;  (** max uniform extra delay added per packet *)
  loss_rate : float;  (** probability a packet is silently dropped *)
}

val lan : config
(** 10 Mbps switched-Ethernet LAN profile (0.3 ms, no jitter, no loss). *)

val campus : config
(** A few routers away (paper §5.2.3): 1.5 ms with mild jitter. *)

val wan : config
(** Wide-area profile for the collaboratory scenarios: 40 ms, jittery. *)

type t

type ext = ..
(** Transport-private per-fabric state. A transport built on the fabric
    (e.g. {!Tcp}, {!Multicast}) declares its own constructor and stores its
    instance tables here via {!set_ext}, so two simulations in one process
    never share listener or channel registries. *)

val create : ?config:config -> Sim.Engine.t -> t

val find_ext : t -> string -> ext option
(** Look up a transport's state slot by its registered name. *)

val set_ext : t -> string -> ext -> unit
(** Claim (or replace) a transport's state slot. *)

val engine : t -> Sim.Engine.t

val config : t -> config

val rng : t -> Sim.Rng.t

val add_host :
  t ->
  name:string ->
  ?cpu:Host.cpu_profile ->
  ?nic_bandwidth:float ->
  ?multicast_capable:bool ->
  unit ->
  Host.t
(** Create a host attached to this fabric. Host names must be unique. *)

val host : t -> string -> Host.t
(** Look up a host by name. @raise Not_found if absent. *)

val hosts : t -> Host.t list
(** All hosts in creation order. *)

val set_latency : t -> src:string -> dst:string -> float -> unit
(** Override the one-way latency for a directed pair (both directions must be
    set separately if desired). *)

val has_latency_overrides : t -> bool
(** Whether any {!set_latency} override exists. A [false] lets batch senders
    price every target at [config.base_latency] without a per-target call. *)

val latency : t -> Host.t -> Host.t -> float

val partition : t -> string list list -> unit
(** [partition t components] splits the network: hosts in different listed
    components cannot exchange packets. Hosts not listed anywhere join the
    first component. In-flight packets already past the network stage are
    delivered. *)

val heal : t -> unit
(** Remove the partition. *)

val reachable : t -> Host.t -> Host.t -> bool
(** Whether a packet sent now from one host would reach the other (both
    alive, same partition component). Loopback is always reachable when the
    host is alive. *)

val transmit :
  t ->
  src:Host.t ->
  dst:Host.t ->
  size:int ->
  ?on_dropped:(unit -> unit) ->
  (unit -> unit) ->
  unit
(** [transmit t ~src ~dst ~size k] pushes [size] bytes through the pipeline
    and runs [k] on the destination when fully received. The packet is
    dropped — with [on_dropped] fired at the point of loss, if given — when
    the pair is partitioned at network-traversal time, when the destination
    is dead at delivery time, or by random loss. Loopback transmissions skip
    the NIC and network stages. *)

val transmit_many :
  t ->
  src:Host.t ->
  size:int ->
  ?on_dropped:(int -> unit) ->
  ?on_complete:(unit -> unit) ->
  dsts:Host.t array ->
  ?len:int ->
  (int -> unit) ->
  unit
(** [transmit_many t ~src ~size ~dsts k] fans one [size]-byte message out to
    every host in [dsts], running [k i] on [dsts.(i)] when it is fully
    received (or [on_dropped i] at the point of loss). Delivery timestamps
    are identical to issuing [Array.length dsts] chained {!transmit} calls at
    the same instant: the sender's CPU-worker and NIC FIFO finish times are
    computed in closed form at issue time, collapsing the three chained heap
    events per recipient into a single scheduled delivery each. Divergences
    from the chained path (all invisible to protocol logic in the common
    case): packet counters are charged and loss/jitter randomness is drawn at
    issue time rather than NIC-finish time, and the partition check happens
    at issue time. A sender crash between issue and NIC-finish silences the
    affected deliveries, exactly like the chained epoch guard.

    [on_complete] fires exactly once, after every recipient has reached its
    terminal outcome (delivered, dropped, or silenced by a sender-epoch
    change) — the hook transports use to recycle their per-fan-out
    records. When nothing is issued (empty [dsts] or a
    dead sender) it fires synchronously before the call returns. The fan-out
    state itself is recycled: steady-state broadcasts allocate no
    per-recipient closures or event records.

    [len] bounds the fan-out to the first [len] entries of [dsts] (default:
    the whole array) — callers that reuse a capacity-padded scratch array
    pass the live prefix length instead of re-slicing per send. *)

val record_packet : t -> size:int -> unit
(** Transports built beside {!transmit} (e.g. {!Multicast}) report their NIC
    transmissions here so the fabric counters stay meaningful. *)

val packets_sent : t -> int

val bytes_sent : t -> int

val batches_sent : t -> int
(** Number of {!transmit_many} calls issued — lets tests and smoke benches
    assert the batched fan-out path is actually exercised. *)
