(** Customized state transfer (§3.2).

    Computes what a joining client receives from a group's {!State_log}
    according to its {!Proto.Types.transfer_spec}: the whole state, the
    latest [n] updates, the state of selected objects, or nothing. Shared by
    the single stateful server and the replicated service.

    The join-state {!cache} amortizes join storms: full-snapshot payloads
    ([Full_state], and [Updates_since] requests folded past by log
    reduction) are materialized once per {!Shared_state.version} into a
    sorted objects list shared by every concurrent joiner. Cache
    identity is the physical state instance plus its version, so any applied
    update — or a fresh instance from recovery/re-seeding — invalidates
    implicitly. *)

type cache

val create_cache : unit -> cache
(** One per server; holds at most one snapshot entry per group. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] — a miss is one materialize of a full snapshot, a hit
    shares it. *)

val invalidate : cache -> Proto.Types.group_id -> unit
(** Drop a group's entry (group deletion hygiene; correctness never needs
    an explicit invalidation). *)

(** A computed transfer, ready to send. *)
type prepared = {
  p_state : Proto.Message.join_state;
  p_at : int;  (** the sequence number the payload reflects *)
  p_bytes : int;  (** payload bytes, for transfer accounting *)
  p_cache_hit : bool;
}

val prepare : ?cache:cache -> State_log.t -> Proto.Types.transfer_spec -> prepared
(** Compute a join-state payload, through the cache when given one.
    [p_bytes] sums the data bytes of the objects or updates the payload
    carries, the same number {!bytes} folds from [p_state]. *)

val no_state : at:int -> prepared
(** The empty transfer (stateless sequencer mode, [No_state]). *)

val join_state :
  State_log.t -> Proto.Types.transfer_spec -> Proto.Message.join_state * int
(** [prepare] without a cache, returning payload and position — the
    uncached reference path (kept for tests and one-shot callers). *)

val snapshot_objects : cache -> State_log.t -> (Proto.Types.object_id * string) list
(** The group's full materialized objects, shared through the cache (the
    replica state-copy path for reconciliation fetches). *)

(** A pre-encoded [State_chunk] frame and its payload bytes (pacing
    input). *)
type chunk_frame = { cf_frame : Proto.Message.encoded; cf_bytes : int }

val chunk_frames_of :
  group:Proto.Types.group_id ->
  objects:(Proto.Types.object_id * string) list ->
  chunk:int ->
  chunk_frame list
(** Slice a snapshot's objects into fragments of at most [chunk] bytes and
    encode one paced [State_chunk] frame per fragment group (the QoS
    transfer path). *)

val bytes : Proto.Message.join_state -> int
(** Payload bytes transferred (the reference fold; {!prepare} reports the
    same number in [p_bytes]). *)
