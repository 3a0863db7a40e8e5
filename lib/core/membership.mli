(** Group membership table.

    Tracks members in join order (fan-out follows this order, so the paper's
    "probe client is the last one a broadcast is sent to" methodology is
    reproducible), their roles, and whether they asked for membership-change
    notifications (§3.2: "existing members ... are not aware that a new
    client is joining, unless they request explicitly membership change
    notifications").

    Members sit in a {!Slot_table}, a join-ordered array with tombstones
    indexed by a hashtable: [mem] / [find] / [role_of] / [remove] are
    O(1), and [add] and [remove] are amortized O(1) (the array is compacted
    when dead slots outnumber live ones). The encoded length of the member
    list is kept alongside, so a join reply is sized in O(1). The
    join-ordered views
    ([entries], [members]) are cached and rebuilt after a membership change
    by one linear walk of the array, with no sort. *)

type cell = { mutable conn : Net.Tcp.conn option }
(** The connection a member is served over, [None] while it has none. The
    server holds one cell per member and hands the same cell to every group
    entry of that member, so a rebind reaches all its groups at once and a
    fan-out reads the connection without a lookup. *)

type entry = {
  member : Proto.Types.member_id;
  role : Proto.Types.role;
  notify : bool;
  joined_at : float;
  cell : cell;
  wire : Proto.Types.member;
      (** [member] and [role] as a wire record, made once per join: every
          list {!members} builds shares it, and so do the views clients
          keep of those lists *)
}

type t

val create : unit -> t

val add :
  t ->
  member:Proto.Types.member_id ->
  role:Proto.Types.role ->
  notify:bool ->
  joined_at:float ->
  cell:cell ->
  unit
(** Adds or re-adds. A rejoin of a present member replaces its entry in
    its slot, so it keeps its position in join order; a member that left
    and joins again goes to the end. *)

val remove : t -> Proto.Types.member_id -> bool
(** [true] if the member was present. *)

val role_of : t -> Proto.Types.member_id -> Proto.Types.role option

val count : t -> int

val is_empty : t -> bool

val entries : t -> entry list
(** Join order. *)

val iter_live : t -> (entry -> unit) -> unit
(** [iter_live t f] applies [f] to every member in join order, straight
    from the array: unlike {!entries}, it builds no list after a join or
    leave. [f] must not add or remove members. *)

val members : t -> Proto.Types.member list
(** Join order, as wire-level member records. *)

val notify_count : t -> int
(** Members that subscribed to membership-change notifications. *)

val members_size : t -> int
(** The encoded length of {!members}, equal to
    [Proto.Message.members_size (members t)] but kept, not walked: [add]
    and [remove] adjust it by {!Proto.Message.member_size} of the entry
    they add, replace or remove. Join replies are sized from it
    ({!Proto.Message.pre_encode_members}). *)

val slice_owner : relays:int -> members:int -> int -> int
(** [slice_owner ~relays ~members idx] is the relay index owning member
    index [idx] under the canonical contiguous-slice partition. Pure
    arithmetic: root, relays, harness and bench all agree without
    coordination. Raises [Invalid_argument] if [relays <= 0]. *)

val slice_bounds : relays:int -> members:int -> int -> int * int
(** [slice_bounds ~relays ~members i] is the half-open index range
    [(lo, hi)] owned by relay [i]; the inverse of [slice_owner]: slices are
    contiguous, disjoint, and cover [0, members). *)
