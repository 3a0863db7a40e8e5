(** Per-shard hold-back queues with cross-shard barrier gating.

    Each shard carries its own contiguous sequence-number stream with its
    own out-of-order buffer; with one shard this is the classic single
    sequencer's hold-back queue (Corona's total order, §4.1). A cross-shard barrier is a vector of
    per-shard positions stamped by the coordinator: the barrier payload
    fires exactly when every shard's applied position has reached its slot
    in the vector, and while a barrier is parked no shard may run past its
    slot — so every replica interleaves the barrier at the same logical
    point of all N streams. Updates are emitted as soon as their own shard
    allows (streams over disjoint keyspace slices commute); barriers alone
    synchronize. *)

type ('u, 'b) t

type ('u, 'b) action =
  | Deliver of int * 'u  (** (shard, item), in-stream order per shard *)
  | Barrier of 'b  (** a parked barrier's payload, fired at its vector *)

val create : shards:int -> unit -> ('u, 'b) t
(** @raise Invalid_argument when [shards < 1]. *)

val next_expected : ('u, 'b) t -> shard:int -> int
(** Next in-stream seqno the shard will deliver. *)

val positions : ('u, 'b) t -> int array
(** [next_expected] for every shard, as the barrier-position vector. *)

val offer : ('u, 'b) t -> shard:int -> seqno:int -> 'u -> ('u, 'b) action list
(** Offer one stamped item to its shard's stream. Returns the deliveries
    (and barrier firings) this arrival unblocks, in order; duplicates and
    already-delivered seqnos return []. *)

val offer_barrier :
  ('u, 'b) t -> bar:int -> vector:int array -> 'b -> ('u, 'b) action list
(** Park a barrier (or fire it immediately when the positions already
    satisfy its vector). Parked barriers fire in ascending [bar] order;
    duplicates of a parked or already-fired barrier return []. *)

val poll : ('u, 'b) t -> ('u, 'b) action list
(** Re-run barrier settling without a new arrival — used after [reset]
    adopts positions that may already satisfy a parked barrier. *)

val gap : ('u, 'b) t -> shard:int -> (int * int) option
(** First missing contiguous range on a shard, for gap repair:
    [Some (from, upto)] when something is buffered beyond a hole. O(1)
    amortized: the buffer's minimum is kept lazily. *)

val pending : ('u, 'b) t -> shard:int -> int
(** Held-back (out-of-order) items buffered on a shard. *)

val stalled_shards : ('u, 'b) t -> (int * int) list
(** Shards still short of the head barrier's slot, as [(shard, next)] —
    the streams whose suffix must be fetched for the barrier to fire. *)

val pending_barriers : ('u, 'b) t -> int

val reset : ('u, 'b) t -> vector:int array -> unit
(** Adopt externally recovered positions (state transfer, lagging-copy
    seed): buffered out-of-order arrivals are dropped with the old stream
    identities, but parked barriers survive — [poll] afterwards. *)

val clear_barriers : ('u, 'b) t -> unit
(** Post-heal resync: the coordinator re-prepares every in-flight barrier,
    so barriers parked under the previous regime are dropped outright. *)
