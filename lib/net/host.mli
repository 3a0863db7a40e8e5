(** Simulated host.

    A host owns a CPU modelled as a non-preemptive multi-worker FIFO queue
    (one worker per core) and a NIC with finite outbound bandwidth. All
    protocol processing charges time on the CPU queue; all sends serialize on
    the NIC. A host can crash (fail-stop) and restart: crashing bumps an
    epoch counter so that in-flight completions for the old incarnation are
    discarded. *)

type cpu_profile = {
  profile_name : string;
  send_overhead : float;  (** seconds of CPU per message sent *)
  recv_overhead : float;  (** seconds of CPU per message received *)
  per_byte_cost : float;  (** seconds of CPU per payload byte (serialization) *)
  workers : int;  (** CPU cores *)
}

val ultrasparc : cpu_profile
(** Calibrated to the paper's UltraSparc 1 / 64 MB Solaris server. *)

val sparc20 : cpu_profile
(** The slower client machines of the paper's testbed. *)

val pentium_ii_quad : cpu_profile
(** Quad Pentium II 200 / 256 MB NT server: faster per-byte handling and four
    workers. *)

val modem_client : cpu_profile
(** A slow, modem-class client (paper §5.1 mentions modem connectivity). *)

type t

val create :
  Sim.Engine.t ->
  name:string ->
  ?cpu:cpu_profile ->
  ?nic_bandwidth:float ->
  ?multicast_capable:bool ->
  unit ->
  t
(** [nic_bandwidth] is outbound bytes/second (default 10 Mbps Ethernet =
    1.25e6 B/s). [multicast_capable] (default true) is false for clients
    behind ISPs without IP-multicast (§4.1). *)

val name : t -> string

val engine : t -> Sim.Engine.t

val cpu : t -> cpu_profile

val is_alive : t -> bool

val multicast_capable : t -> bool

val nic_bandwidth : t -> float
(** Outbound bytes/second of the NIC. *)

val epoch : t -> int
(** Incarnation number; bumped on every crash and every restart. *)

val exec : t -> cost:float -> (unit -> unit) -> unit
(** [exec h ~cost f] enqueues [cost] seconds of CPU work and runs [f] when it
    completes — unless the host crashed in the meantime, in which case [f]
    is dropped. No-op if the host is already dead. *)

val nic_send : t -> size:int -> (unit -> unit) -> unit
(** [nic_send h ~size f] serializes a [size]-byte transmission on the host's
    NIC and calls [f] when the last byte has left. Dropped on crash. *)

val reserve_cpu : t -> cost:float -> float
(** [reserve_cpu h ~cost] books [cost] seconds on the earliest-free CPU
    worker and returns the finish time, without scheduling anything. This is
    the closed-form accumulator behind {!exec}; {!Fabric.transmit_many} uses
    it to compute a whole fan-out's serialize finish times inline. *)

val reserve_cpu_many : t -> cost:float -> n:int -> into:float array -> unit
(** [reserve_cpu_many h ~cost ~n ~into] books [n] successive same-cost
    reservations and writes their finish times to [into.(0..n-1)] — the same
    accounting as [n] {!reserve_cpu} calls, minus the [n] boxed-float
    returns: the fan-out hot loop's flavor. *)

val reserve_nic_from : t -> from:float -> size:int -> float
(** [reserve_nic_from h ~from ~size] books a [size]-byte transmission on the
    NIC starting no earlier than [from] and returns the finish time. The
    accumulator behind {!nic_send} (which passes [from = now]). *)

val reserve_cpu_slot :
  t -> costs:float array -> into:float array -> int -> unit
(** [reserve_cpu_slot h ~costs ~into i] is
    [into.(i) <- reserve_cpu h ~cost:costs.(i)] with no float crossing the
    call boundary — allocation-free per recipient. *)

val reserve_nic_slot :
  t -> size:int -> fins:float array -> into:float array -> int -> unit
(** [reserve_nic_slot h ~size ~fins ~into i] is
    [into.(i) <- reserve_nic_from h ~from:fins.(i) ~size] with no float
    crossing the call boundary — allocation-free per recipient. *)

val epoch_changed_within : t -> after:float -> until:float -> bool
(** Whether the host crashed or restarted in the window [(after, until]].
    Lets a batch caller apply the same epoch guard that {!exec}/{!nic_send}
    events carry, without scheduling intermediate events. *)

val has_transitions : t -> bool
(** Whether the host has ever crashed or restarted. A [false] lets hot-path
    callers skip {!epoch_changed_within} (and the float boxing its labelled
    arguments cost) on the overwhelmingly common no-failure runs. *)

val cpu_busy_until : t -> float
(** Virtual time at which the earliest CPU worker frees up (≥ now). *)

val crash : t -> unit
(** Fail-stop: drops queued work, bumps epoch, fires crash hooks. No-op when
    already dead. *)

val restart : t -> unit
(** Bring a crashed host back with empty queues and a fresh epoch. *)

val on_crash : t -> (unit -> unit) -> unit
(** Register a hook fired (synchronously) when this host crashes. Hooks
    survive restarts. *)

val cpu_seconds_used : t -> float
(** Total CPU time charged so far (for utilization reports). *)

