(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows from one of these
    generators so that a fixed seed makes whole experiments reproducible.
    Generators can be {!split} to give independent deterministic streams to
    independent components. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of further
    draws from [t]. Advances [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0 .. n-1]. [n] must be positive. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [\[0, x)]. The result crosses the call
    as a boxed float: a per-recipient caller uses {!unit_into}. *)

val unit_into : t -> float array -> int -> unit
(** [unit_into t a i] stores [float t 1.0] into [a.(i)]: the same draw,
    advancing the stream the same way, with no boxed result. *)

val bool : t -> bool

val uniform : t -> lo:float -> hi:float -> float
(** Uniform draw in [\[lo, hi)]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for Poisson
    inter-arrival times. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
