type cell = { mutable conn : Net.Tcp.conn option }

type entry = {
  member : Proto.Types.member_id;
  role : Proto.Types.role;
  notify : bool;
  joined_at : float;
  cell : cell;
}

(* Members sit in [order], a join-ordered array with tombstones: a join
   appends, a leave overwrites its slot with [dead], and a rejoin of a
   present member replaces its entry in place, so it keeps its slot and its
   place in join order. [index] maps each member to its slot, which keeps
   mem/find/role_of/remove O(1). When dead slots outnumber live ones the
   array is compacted in one pass, which renumbers the surviving slots;
   each compaction follows at least as many leaves as it moves members, so
   it costs O(1) per leave amortized. The ordered views ([entries] /
   [members]) are caches dropped on every change and rebuilt by one linear
   walk over [order], with no sort, so steady-state fan-out (many
   broadcasts between joins/leaves) pays no list construction at all. *)
type t = {
  index : (Proto.Types.member_id, int) Hashtbl.t; (* slot in [order] *)
  mutable order : entry array;
  mutable len : int; (* slots in use, tombstones included *)
  mutable notify_count : int; (* members with [notify = true] *)
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
  }

let create () =
  {
    index = Hashtbl.create 16;
    order = Array.make 16 dead;
    len = 0;
    notify_count = 0;
    entries_cache = None;
    members_cache = None;
  }

let invalidate t =
  t.entries_cache <- None;
  t.members_cache <- None

let mem t member = Hashtbl.mem t.index member

let count t = Hashtbl.length t.index

let is_empty t = Hashtbl.length t.index = 0

let add t ~member ~role ~notify ~joined_at ~cell =
  let entry = { member; role; notify; joined_at; cell } in
  (match Hashtbl.find_opt t.index member with
  | Some i ->
      if t.order.(i).notify then t.notify_count <- t.notify_count - 1;
      t.order.(i) <- entry
  | None ->
      let cap = Array.length t.order in
      if t.len = cap then begin
        let bigger = Array.make (2 * cap) dead in
        Array.blit t.order 0 bigger 0 cap;
        t.order <- bigger
      end;
      t.order.(t.len) <- entry;
      Hashtbl.replace t.index member t.len;
      t.len <- t.len + 1);
  if notify then t.notify_count <- t.notify_count + 1;
  invalidate t

(* Slide the live entries to the front, keeping their order. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.order.(i) in
    if e != dead then begin
      if i <> !j then begin
        t.order.(!j) <- e;
        Hashtbl.replace t.index e.member !j
      end;
      incr j
    end
  done;
  Array.fill t.order !j (t.len - !j) dead;
  t.len <- !j

let remove t member =
  match Hashtbl.find_opt t.index member with
  | Some i ->
      if t.order.(i).notify then t.notify_count <- t.notify_count - 1;
      t.order.(i) <- dead;
      Hashtbl.remove t.index member;
      invalidate t;
      if t.len - count t > count t then compact t;
      true
  | None -> false

let find t member =
  match Hashtbl.find_opt t.index member with Some i -> Some t.order.(i) | None -> None

let role_of t member =
  match Hashtbl.find_opt t.index member with
  | Some i -> Some t.order.(i).role
  | None -> None

(* Folds [f] over the live entries, last joined first, so consing onto
   [acc] builds a join-ordered list. *)
let fold_live t f acc =
  let acc = ref acc in
  for i = t.len - 1 downto 0 do
    let e = t.order.(i) in
    if e != dead then acc := f e !acc
  done;
  !acc

let iter_live t f =
  for i = 0 to t.len - 1 do
    let e = t.order.(i) in
    if e != dead then f e
  done

let entries t =
  match t.entries_cache with
  | Some l -> l
  | None ->
      let l = fold_live t (fun e l -> e :: l) [] in
      t.entries_cache <- Some l;
      l

let members t =
  match t.members_cache with
  | Some l -> l
  | None ->
      let l = fold_live t (fun e l -> { Proto.Types.member = e.member; role = e.role } :: l) [] in
      t.members_cache <- Some l;
      l

let notify_count t = t.notify_count

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
