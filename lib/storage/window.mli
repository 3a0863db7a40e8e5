(** A dense window over a contiguous index range [\[first, next)]: append at
    the end, drop at either end, read any retained index in O(1).

    The shape of a log's in-memory view (append-only, truncated from the
    front by reduction, cut from the back by a crash). Index [i] lives at
    slot [i - off] of a growable array; when an append reaches the array's
    end the window slides back to slot 0 if at most half of it is live,
    otherwise the array doubles. Dropped slots are overwritten with the
    [empty] value given at creation, so nothing dropped stays reachable. *)

type 'a t

val create : empty:'a -> first:int -> 'a t
(** An empty window whose first append gets index [first]. Allocates no
    array until then. *)

val first : 'a t -> int

val next : 'a t -> int
(** Index the next {!push} gets. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** The value at an index, or [empty] outside [\[first, next)]. *)

val push : 'a t -> 'a -> unit

val drop_front : 'a t -> upto:int -> unit
(** Drop every index below [upto]. When [upto >= next] the window empties
    and restarts at [upto]. No-op when [upto <= first]. *)

val drop_back : 'a t -> from:int -> unit
(** Drop every index at or above [max from first]. *)
