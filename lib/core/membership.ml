type cell = { mutable conn : Net.Tcp.conn option }

type entry = {
  member : Proto.Types.member_id;
  role : Proto.Types.role;
  notify : bool;
  joined_at : float;
  cell : cell;
  wire : Proto.Types.member;
}

(* Members sit in a join-ordered [Slot_table]: a join appends, a leave
   tombstones its slot, and a rejoin of a present member replaces its entry
   in place, so it keeps its slot and its place in join order. The ordered
   views ([entries] / [members]) are caches dropped on every change and
   rebuilt by one linear walk of the table, with no sort, so steady-state
   fan-out (many broadcasts between joins/leaves) pays no list construction
   at all. *)
type t = {
  table : entry Slot_table.t;
  mutable notify_count : int; (* members with [notify = true] *)
  mutable members_size : int; (* encoded length of [members t] *)
  mutable entries_cache : entry list option; (* join order *)
  mutable members_cache : Proto.Types.member list option;
}

(* The tombstone; compared physically, never handed out. *)
let dead =
  {
    member = "";
    role = Proto.Types.Observer;
    notify = false;
    joined_at = 0.0;
    cell = { conn = None };
    wire = { Proto.Types.member = ""; role = Proto.Types.Observer };
  }

let create () =
  {
    table = Slot_table.create ~size:16 ~dead ~key:(fun e -> e.member);
    notify_count = 0;
    members_size = Proto.Message.members_size [];
    entries_cache = None;
    members_cache = None;
  }

let invalidate t =
  t.entries_cache <- None;
  t.members_cache <- None

let count t = Slot_table.length t.table

let is_empty t = count t = 0

(* Take a replaced or removed entry out of the kept counts. An entry's
   share of [members_size] comes from the wire encoder itself, so the kept
   length cannot drift from the bytes a reply carries. *)
let forget t = function
  | Some e ->
      if e.notify then t.notify_count <- t.notify_count - 1;
      t.members_size <- t.members_size - Proto.Message.member_size e.wire
  | None -> ()

let add t ~member ~role ~notify ~joined_at ~cell =
  let wire = { Proto.Types.member; role } in
  forget t (Slot_table.set t.table { member; role; notify; joined_at; cell; wire });
  if notify then t.notify_count <- t.notify_count + 1;
  t.members_size <- t.members_size + Proto.Message.member_size wire;
  invalidate t

let remove t member =
  match Slot_table.remove t.table member with
  | Some _ as old ->
      forget t old;
      invalidate t;
      true
  | None -> false

let role_of t member =
  let e = Slot_table.get t.table member in
  if e == dead then None else Some e.role

let iter_live t f = Slot_table.iter_live t.table f

let entries t =
  match t.entries_cache with
  | Some l -> l
  | None ->
      let l = Slot_table.fold_live t.table (fun e l -> e :: l) [] in
      t.entries_cache <- Some l;
      l

let members t =
  match t.members_cache with
  | Some l -> l
  | None ->
      let l = Slot_table.fold_live t.table (fun e l -> e.wire :: l) [] in
      t.members_cache <- Some l;
      l

let notify_count t = t.notify_count

let members_size t = t.members_size

(* --- relay slice partitioning ------------------------------------------- *)

(* Contiguous slices over member indexes [0, members): relay [i] owns
   [slice_bounds i], and [slice_owner idx] inverts the map. Pure integer
   arithmetic — every party (root, relay, harness, bench) computes the same
   assignment without coordination, and the partition is trivially total:
   each index falls in exactly one slice. *)

let slice_owner ~relays ~members idx =
  if relays <= 0 then invalid_arg "Membership.slice_owner: relays <= 0";
  if members <= 0 || idx < 0 then 0
  else min (relays - 1) (idx * relays / members)

let slice_bounds ~relays ~members i =
  if relays <= 0 then invalid_arg "Membership.slice_bounds: relays <= 0";
  if members <= 0 then (0, 0)
  else
    let lo = ((i * members) + relays - 1) / relays in
    let hi = (((i + 1) * members) + relays - 1) / relays in
    (lo, min hi members)
