(* Each object is a base stream plus appended segments; materialization
   concatenates them lazily so repeated appends stay O(1). *)

type entry = { mutable base : string; mutable segments : string list (* newest first *) }

(* Monomorphic string keys: [String.equal] and [String.hash] skip the
   generic compare and hash. [String.hash] equals [Hashtbl.hash] on
   strings, so buckets fall where they did; every traversal sorts anyway. *)
module Objects = Hashtbl.Make (struct
  type t = Proto.Types.object_id

  let equal = String.equal
  let hash = String.hash
end)

type t = {
  objects : entry Objects.t;
  mutable version : int;
      (* bumped on every applied mutation — the join-state cache key.
         Materialization is not a mutation: it rewrites the segment layout
         without changing the materialized value. *)
}

let create () = { objects = Objects.create 16; version = 0 }

let version t = t.version

(* An existing object is overwritten in place: a steady-state [Set_state]
   apply then allocates nothing, and promotes no fresh entry. *)
let set_object t obj data =
  t.version <- t.version + 1;
  match Objects.find t.objects obj with
  | e ->
      e.base <- data;
      e.segments <- []
  | exception Not_found ->
      Objects.replace t.objects obj { base = data; segments = [] }

let of_objects pairs =
  let t = create () in
  List.iter (fun (obj, data) -> set_object t obj data) pairs;
  t

let append_object t obj data =
  t.version <- t.version + 1;
  (* Exception-based lookup: the hot delivery loop appends to an existing
     object, and [find_opt]'s [Some] would be a per-delivery allocation. *)
  match Objects.find t.objects obj with
  | e -> e.segments <- data :: e.segments
  | exception Not_found ->
      Objects.replace t.objects obj { base = ""; segments = [ data ] }

let apply t (u : Proto.Types.update) =
  match u.kind with
  | Proto.Types.Set_state -> set_object t u.obj u.data
  | Proto.Types.Append_update -> append_object t u.obj u.data

let materialize e =
  match e.segments with
  | [] -> e.base
  | segments ->
      let buf = Buffer.create (String.length e.base + 64) in
      Buffer.add_string buf e.base;
      List.iter (Buffer.add_string buf) (List.rev segments);
      let s = Buffer.contents buf in
      (* Cache the concatenation. *)
      e.base <- s;
      e.segments <- [];
      s

let get t obj = Option.map materialize (Objects.find_opt t.objects obj)

let mem t obj = Objects.mem t.objects obj

(* One sorted snapshot of the entries, shared by every traversal below so
   none of them pays a per-id re-lookup. *)
let sorted_entries t =
  Objects.fold (fun id e acc -> (id, e) :: acc) t.objects []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let objects t = List.map (fun (id, e) -> (id, materialize e)) (sorted_entries t)

let restrict t ids =
  List.filter_map (fun id -> Option.map (fun s -> (id, s)) (get t id)) ids

let object_count t = Objects.length t.objects

let total_bytes t =
  Objects.fold
    (fun _ e acc ->
      acc + String.length e.base
      + List.fold_left (fun n s -> n + String.length s) 0 e.segments)
    t.objects 0

(* FNV-1a 64 over the sorted (id, data) pairs, with a terminator byte after
   each string so concatenation ambiguities ("ab"+"c" vs "a"+"bc") cannot
   collide. Structural (not physical): two states with equal materialized
   objects digest equally regardless of segment layout. Streams the sorted
   entries directly — no intermediate [(id, data) list]. *)
let digest t =
  let h = ref 0xcbf29ce484222325L in
  let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
  let mix_string s =
    String.iter (fun c -> mix (Char.code c)) s;
    mix 0xff
  in
  List.iter
    (fun (id, e) ->
      mix_string id;
      mix_string (materialize e))
    (sorted_entries t);
  Printf.sprintf "%016Lx" !h

let copy t = of_objects (objects t)

let equal a b = objects a = objects b

let clear t =
  t.version <- t.version + 1;
  Objects.reset t.objects
