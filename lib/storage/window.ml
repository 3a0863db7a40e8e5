type 'a t = {
  empty : 'a; (* fills every slot outside [first, next) *)
  mutable data : 'a array;
  mutable off : int; (* index held by slot 0 *)
  mutable first : int;
  mutable next : int;
}

let create ~empty ~first = { empty; data = [||]; off = first; first; next = first }

let first t = t.first

let next t = t.next

let length t = t.next - t.first

let get t i = if i < t.first || i >= t.next then t.empty else t.data.(i - t.off)

(* Called when [next] has reached the array's end. A slide moves at most
   half an array and leaves at least half free; a doubling leaves half
   free: either way the copy is paid for by the appends that filled it. *)
let make_room t =
  let cap = Array.length t.data and len = t.next - t.first in
  let src = t.first - t.off in
  if cap > 0 && 2 * len <= cap then begin
    Array.blit t.data src t.data 0 len;
    (* [src >= len]: the moved-from slots do not overlap their new home. *)
    Array.fill t.data src len t.empty
  end
  else begin
    let data = Array.make (max 16 (2 * cap)) t.empty in
    Array.blit t.data src data 0 len;
    t.data <- data
  end;
  t.off <- t.first

let push t v =
  if t.next - t.off = Array.length t.data then make_room t;
  t.data.(t.next - t.off) <- v;
  t.next <- t.next + 1

let clear t lo hi = if hi > lo then Array.fill t.data (lo - t.off) (hi - lo) t.empty

let reset t ~first =
  clear t t.first t.next;
  t.first <- first;
  t.next <- first;
  t.off <- first

let drop_front t ~upto =
  if upto >= t.next then reset t ~first:(max upto t.first)
  else if upto > t.first then begin
    clear t t.first upto;
    t.first <- upto
  end

let drop_back t ~from =
  if from <= t.first then reset t ~first:t.first
  else if from < t.next then begin
    clear t from t.next;
    t.next <- from
  end
