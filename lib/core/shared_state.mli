(** The shared state of a group: [S = {(O_1, S_1), ..., (O_n, S_n)}] (§3.1).

    Each shared object is a byte-stream encoding tagged with a unique
    identifier; the service never interprets the bytes. [Set_state] updates
    override an object's stream; [Append_update] updates append to it,
    preserving the history of changes in the stream itself. *)

type t

val create : unit -> t

val version : t -> int
(** Monotonic mutation counter: bumped by every {!set_object},
    {!append_object}, {!apply} and {!clear}. Two reads of the same [t] with
    equal versions are guaranteed to see identical materialized objects —
    the key the join-state transfer cache is built on. Materialization
    (a layout rewrite, not a value change) does not bump it. *)

val of_objects : (Proto.Types.object_id * string) list -> t

val set_object : t -> Proto.Types.object_id -> string -> unit
(** Override (or create) the object's byte stream. *)

val append_object : t -> Proto.Types.object_id -> string -> unit
(** Append to the object's byte stream, creating the object if absent. *)

val apply : t -> Proto.Types.update -> unit
(** Apply an update according to its kind. *)

val get : t -> Proto.Types.object_id -> string option
(** Materialized byte stream of an object. *)

val mem : t -> Proto.Types.object_id -> bool

val objects : t -> (Proto.Types.object_id * string) list
(** Materialized [(id, stream)] pairs, sorted by id. *)

val restrict : t -> Proto.Types.object_id list -> (Proto.Types.object_id * string) list
(** Materialized pairs for the requested ids only (absent ids are skipped). *)

val object_count : t -> int

val total_bytes : t -> int
(** Sum of stream lengths — the memory footprint the server pays (§6). *)

val copy : t -> t

val equal : t -> t -> bool
(** Same objects with identical streams. *)

val digest : t -> string
(** Deterministic 16-hex-digit digest (FNV-1a 64) of the materialized
    objects in sorted order. Structural: states with equal [objects] digest
    equally, whatever the internal segment layout — the comparison the
    convergence oracles rely on. *)

val clear : t -> unit
