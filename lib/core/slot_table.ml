type 'a t = {
  index : (string, int) Hashtbl.t; (* slot in [order] *)
  mutable order : 'a array;
  mutable len : int; (* slots in use, tombstones included *)
  dead : 'a;
  key : 'a -> string;
}

let create ~size ~dead ~key =
  { index = Hashtbl.create size; order = Array.make size dead; len = 0; dead; key }

let length t = Hashtbl.length t.index

let get t k = match Hashtbl.find t.index k with i -> t.order.(i) | exception Not_found -> t.dead

let set t v =
  let k = t.key v in
  match Hashtbl.find_opt t.index k with
  | Some i ->
      let old = t.order.(i) in
      t.order.(i) <- v;
      Some old
  | None ->
      let cap = Array.length t.order in
      if t.len = cap then begin
        let bigger = Array.make (2 * cap) t.dead in
        Array.blit t.order 0 bigger 0 cap;
        t.order <- bigger
      end;
      t.order.(t.len) <- v;
      Hashtbl.replace t.index k t.len;
      t.len <- t.len + 1;
      None

(* Slide the live values to the front, keeping their order. Replacing a
   present key leaves its place in the index's buckets alone, so the
   renumbering does not change [fold_unordered]'s order. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let v = t.order.(i) in
    if v != t.dead then begin
      if i <> !j then begin
        t.order.(!j) <- v;
        Hashtbl.replace t.index (t.key v) !j
      end;
      incr j
    end
  done;
  Array.fill t.order !j (t.len - !j) t.dead;
  t.len <- !j

let remove t k =
  match Hashtbl.find_opt t.index k with
  | Some i ->
      let old = t.order.(i) in
      t.order.(i) <- t.dead;
      Hashtbl.remove t.index k;
      if t.len - length t > length t then compact t;
      Some old
  | None -> None

let iter_live t f =
  let order = t.order and dead = t.dead in
  for i = 0 to t.len - 1 do
    let v = Array.unsafe_get order i in
    if v != dead then f v
  done

let fold_live t f acc =
  let acc = ref acc in
  for i = t.len - 1 downto 0 do
    let v = t.order.(i) in
    if v != t.dead then acc := f v !acc
  done;
  !acc

let fold_unordered t f acc = Hashtbl.fold (fun _ i acc -> f t.order.(i) acc) t.index acc
