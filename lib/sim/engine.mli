(** Deterministic discrete-event simulation engine.

    The engine maintains a virtual clock and a priority queue of scheduled
    callbacks. Events at equal timestamps fire in scheduling order, which —
    together with {!Rng} — makes every simulation fully deterministic.

    The queue is a binary heap whose keys (time, schedule order, slab slot)
    live in flat float and int arrays, over a slab of callbacks whose slots
    are reused: a push or pop moves only unboxed numbers, so it pays no GC
    write barrier per heap level. A {!schedule_run} of pooled events holds
    one heap entry however many elements it has: the queue grows with the
    number of runs, not with the number of recipients of a fan-out. *)

type t

type time = float
(** Simulated time, in seconds. *)

type event_id
(** Handle of a scheduled event, usable with {!cancel}. Cancellation is
    O(1): the handle is a small record of its own state flag and callback,
    separate from the queue, so there is no side table and no lookup on the
    engine's hot pop path, and a handle kept after its event fired never
    aliases a later event. *)

val create : ?seed:int64 -> unit -> t
(** [create ?seed ()] returns an engine whose clock is at [0.0]. [seed]
    (default [1L]) initializes the engine's root {!Rng}. *)

val now : t -> time
(** Current virtual time. The result crosses the call as a boxed float
    (every module is compiled [-opaque] under dune's dev profile, so no
    call is inlined across modules): a per-event reader uses {!clock}. *)

val clock : t -> float array
(** The one-cell array whose element [0] is {!now}, the same array for the
    engine's whole life. A reader that holds it reads the clock flat, with
    no allocation. Callers must not write it. *)

val rng : t -> Rng.t
(** The engine's root random stream. Components should {!Rng.split} it. *)

val schedule : t -> delay:time -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to zero. *)

val schedule_at : t -> time -> (unit -> unit) -> event_id
(** [schedule_at t at f] runs [f] at absolute time [at] (clamped to [now]). *)

val schedule_run :
  t -> times:float array -> first:int -> last:int -> (int -> unit) -> unit
(** [schedule_run t ~times ~first ~last h] runs [h j] at [times.(j)] for
    [j = first .. last]. [times] must be non-decreasing on that range; the
    first time is clamped to [now], and so is every later one that falls
    before it. The run is one reused slab slot and one heap entry holding
    [h], [times] and the next index, with no record of its own: the
    steady-state fan-out loop schedules without allocating. Element [j]
    fires exactly as if it had been scheduled on its own by
    {!schedule_at}, in index order: the run reserves the schedule-order
    positions of all its elements up front, and {!pending} and
    {!events_fired} count each element.

    The engine reads [times.(first)] at the call and [times.(j + 1)] when
    element [j] fires, so the caller must leave [times.(first + 1 .. last)]
    unchanged until the run ends; a run of one leaves the array free at
    once. The slot keeps [h] and [times] after the run ends, until a later
    run in the same slot replaces them: schedule persistent callbacks over
    long-lived arrays, as the fan-outs do, and a run stores no pointer. Runs are not cancellable (no handle escapes, which is exactly
    what makes slot reuse safe); callers needing revocation keep a guard of
    their own (e.g. a host-epoch check) and use [h]'s argument to index it.
    Raises [Invalid_argument] unless [0 <= first <= last < Array.length
    times]. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event in O(1). The event stays queued as a tombstone
    and is dropped when it reaches the top. Cancelling an event that already
    fired, or cancelling the same event twice, is a no-op — in particular it
    never double-decrements the {!pending} count. *)

val periodic : t -> every:time -> (unit -> bool) -> unit
(** [periodic t ~every f] calls [f] every [every] seconds, starting after one
    period, until [f] returns [false]. *)

val step : t -> bool
(** Fire the single earliest pending event. Returns [false] when the queue is
    empty. *)

val run : ?until:time -> t -> unit
(** Drain the event queue. With [~until], stops (without firing them) at the
    first event strictly later than [until] and advances the clock to
    [until]. *)

val pending : t -> int
(** Number of scheduled, uncancelled events. *)

val events_fired : t -> int
(** Number of events executed since creation — the denominator for
    wall-clock events/second reporting in scaling benchmarks. *)
