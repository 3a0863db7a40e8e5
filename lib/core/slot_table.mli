(** A join-ordered table of values keyed by member id.

    Values sit in an array in the order their keys were first added, with
    tombstones: adding a new key appends, adding a present key replaces its
    value in its slot (so it keeps its place in join order), and removing a
    key overwrites its slot with the [dead] value given at creation. A
    hashtable maps each key to its slot, so [mem] / [find] / [set] /
    [remove] are O(1). When dead slots outnumber live ones the array is
    compacted in one pass, which renumbers the surviving slots; each
    compaction follows at least as many removals as it moves values, so
    [remove] is amortized O(1). Walks in join order ([iter_live],
    [fold_live]) read the array directly and build nothing.

    Shared by {!Membership} (a server's local members, walked on every
    fan-out) and the replicated coordinator's group directory. *)

type 'a t

val create : size:int -> dead:'a -> key:('a -> string) -> 'a t
(** An empty table. [size], positive, is the initial size of the key index
    and of the slot array. [dead] is the tombstone: compared physically,
    and handed out only by {!get}, for an absent key. [key v] is the key a
    value is stored under. *)

val length : 'a t -> int
(** Live values. *)

val get : 'a t -> string -> 'a
(** The value stored under a key, or the [dead] value when it is absent:
    a lookup that allocates nothing. *)

val set : 'a t -> 'a -> 'a option
(** [set t v] stores [v] under [key v] and returns the value it replaced,
    [None] when the key was absent (then [v] goes to the end of join
    order). *)

val remove : 'a t -> string -> 'a option
(** The removed value, [None] when the key was absent. *)

val iter_live : 'a t -> ('a -> unit) -> unit
(** Every live value in join order. [f] must not add or remove keys. *)

val fold_live : 'a t -> ('a -> 'b -> 'b) -> 'b -> 'b
(** Folds over the live values last-joined first, so consing onto the
    accumulator builds a join-ordered list. *)

val fold_unordered : 'a t -> ('a -> 'b -> 'b) -> 'b -> 'b
(** Folds over the live values in the key index's [Hashtbl.fold] order,
    not in join order. That order is fixed by [size] and by the sequence of
    insertions and removals of keys (replacing a present key, and
    compaction, change no position), so two tables fed the same sequence
    fold alike. *)
