type time = float

(* A classic event's handle: [cancel] flips the state in O(1) and [step]
   skips tombstones as they surface at the queue top. No side table, no
   per-pop hashtable lookup. The state tag also makes cancellation
   idempotent against every ordering of cancel/fire: only a
   Pending -> Cancelled transition touches the live counter, so cancelling
   twice, or cancelling an event that already ran, cannot corrupt
   [pending]. The handle never moves inside the queue; only its slab slot
   number does. *)
type state = Pending | Cancelled | Fired

type event = { mutable st : state; run : unit -> unit }

type event_id = event

let ignore_i (_ : int) = ()

(* The handle of every slab slot that holds a pooled run or nothing.
   It never escapes, so nothing can cancel it: it stays [Pending], as a
   pooled run is never a tombstone. *)
let no_handle = { st = Pending; run = ignore }

let no_times : float array = [||]

(* The queue is a structure of arrays in two parts.

   - The binary min-heap on [(at, seq)] keeps its keys flat: [at] is an
     unboxed float array, [seq] and [slot] are int arrays. A sift moves a
     hole and writes only floats and ints, so it pays no write barrier
     ([caml_modify]) per level and no pointer chase per comparison.
   - The slab holds what fires, indexed by [slot]: the classic handle (or
     [no_handle]), or a pooled run: its callback, the caller's [times]
     array, the index of the element that fires next and the index of the
     last one. A classic handle is written on schedule and reset to
     [no_handle] when it pops. A run's callback and array are written only
     when they differ from what the slot already holds, and a freed slot
     keeps its last run's pair: the fan-outs schedule their persistent
     pooled callbacks over their own scratch arrays, so in the steady
     state a run pays no pointer store and hence no write barrier. Free
     slots sit on the [free] stack. Every slot is either free or named by
     exactly one heap entry (tombstones included), so [len + nfree] is the
     capacity of all nine arrays, and a full slab means a full heap.
   - The clock is the one cell of a float array, not a mutable float
     field: a float stored into a record that also holds pointers is
     boxed afresh on every event, while a float-array store is flat.

   A run holds one heap entry for all of its elements. Its key is the next
   element's [(times.(j), seq)]; the run reserved the seq block of all its
   elements up front. When element [j] fires, the root key becomes
   element [j + 1]'s and sifts down in place. Each later element of a run
   has a larger key than the one before it, so the heap minimum is the
   same event at every step as if every element had been pushed on its
   own: firing order does not change. *)
type t = {
  mutable at : float array;
  mutable seq : int array; (* tie-break: schedule order *)
  mutable slot : int array;
  mutable len : int;
  mutable handle : event array;
  mutable fn : (int -> unit) array; (* pooled runs only *)
  mutable times : float array array;
  mutable arg : int array; (* the element that fires next *)
  mutable last : int array;
  mutable free : int array;
  mutable nfree : int;
  clock : float array; (* one cell: the virtual time *)
  mutable next_seq : int;
  mutable live : int; (* scheduled and not cancelled *)
  mutable fired : int; (* events executed since creation *)
  root_rng : Rng.t;
}

(* Slots [0 .. hi - 1] stacked lowest on top. A slab grown from [lo] slots
   marks only the top [hi - lo] entries free: the new slots [lo .. hi - 1]. *)
let free_stack ~hi = Array.init hi (fun i -> hi - 1 - i)

let create ?(seed = 1L) () =
  let cap = 64 in
  {
    at = Array.make cap 0.0;
    seq = Array.make cap 0;
    slot = Array.make cap 0;
    len = 0;
    handle = Array.make cap no_handle;
    fn = Array.make cap ignore_i;
    times = Array.make cap no_times;
    arg = Array.make cap 0;
    last = Array.make cap 0;
    free = free_stack ~hi:cap;
    nfree = cap;
    clock = [| 0.0 |];
    next_seq = 0;
    live = 0;
    fired = 0;
    root_rng = Rng.create seed;
  }

let now t = t.clock.(0)

let clock t = t.clock

let rng t = t.root_rng

(* Called only when the slab is full, hence also the heap. *)
let grow t =
  let cap = Array.length t.at in
  let ncap = 2 * cap in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.at <- extend t.at 0.0;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.handle <- extend t.handle no_handle;
  t.fn <- extend t.fn ignore_i;
  t.times <- extend t.times no_times;
  t.arg <- extend t.arg 0;
  t.last <- extend t.last 0;
  t.free <- free_stack ~hi:ncap;
  t.nfree <- cap

let alloc_slot t =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  t.free.(t.nfree)

let free_slot t s =
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* Insert key [(at, sq)] for slot [s]: open a hole at the end and move it
   up past every parent that sorts after the key. The order is the one
   [(at, seq)] has always had: earlier time first, then schedule order. *)
let[@inline] push t at sq s =
  let a = t.at and q = t.seq and sl = t.slot in
  let i = ref t.len in
  t.len <- t.len + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pa = Array.unsafe_get a p in
    if at < pa || (at = pa && sq < Array.unsafe_get q p) then begin
      Array.unsafe_set a !i pa;
      Array.unsafe_set q !i (Array.unsafe_get q p);
      Array.unsafe_set sl !i (Array.unsafe_get sl p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set a !i at;
  Array.unsafe_set q !i sq;
  Array.unsafe_set sl !i s

(* Put key [(ka, kq)] for slot [ks] at the root of a heap of [n] keys
   and move it down past every smaller child. Inlined, so the float key
   crosses no call boxed. *)
let[@inline] sift_down t n ka kq ks =
  let a = t.at and q = t.seq and sl = t.slot in
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n
           && (let ra = Array.unsafe_get a r and la = Array.unsafe_get a l in
               ra < la || (ra = la && Array.unsafe_get q r < Array.unsafe_get q l))
        then r
        else l
      in
      let ca = Array.unsafe_get a c in
      if ca < ka || (ca = ka && Array.unsafe_get q c < kq) then begin
        Array.unsafe_set a !i ca;
        Array.unsafe_set q !i (Array.unsafe_get q c);
        Array.unsafe_set sl !i (Array.unsafe_get sl c);
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set a !i ka;
  Array.unsafe_set q !i kq;
  Array.unsafe_set sl !i ks

(* Drop the top key (precondition: [t.len > 0]): the last key fills the
   hole at the root and sifts down. *)
let remove_top t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down t n t.at.(n) t.seq.(n) t.slot.(n)

let schedule_at t at run =
  let now = t.clock.(0) in
  let at = if at < now then now else at in
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  let e = { st = Pending; run } in
  let s = alloc_slot t in
  t.handle.(s) <- e;
  push t at sq s;
  t.live <- t.live + 1;
  e

let schedule_run t ~times ~first ~last h =
  if first < 0 || first > last || last >= Array.length times then
    invalid_arg "Engine.schedule_run: empty run or index out of bounds";
  let at = times.(first) and now = t.clock.(0) in
  let at = if at < now then now else at in
  let sq = t.next_seq in
  t.next_seq <- sq + (last - first + 1);
  let s = alloc_slot t in
  if t.fn.(s) != h then t.fn.(s) <- h;
  if t.times.(s) != times then t.times.(s) <- times;
  t.arg.(s) <- first;
  t.last.(s) <- last;
  push t at sq s;
  t.live <- t.live + (last - first + 1)

let schedule t ~delay run =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t (t.clock.(0) +. delay) run

let cancel t e =
  match e.st with
  | Pending ->
      e.st <- Cancelled;
      (* The tombstone stays queued and is discarded when popped. *)
      t.live <- t.live - 1
  | Cancelled | Fired -> ()

let periodic t ~every f =
  let rec tick () = if f () then ignore (schedule t ~delay:every tick) in
  ignore (schedule t ~delay:every tick)

let rec step t =
  if t.len = 0 then false
  else begin
    let s = t.slot.(0) in
    let at = t.at.(0) in
    let e = t.handle.(s) in
    if e == no_handle then begin
      let f = t.fn.(s) and j = t.arg.(s) in
      if j < t.last.(s) then begin
        (* Advance the run in place: element [j + 1] takes over the root
           with the next seq of the block, clamped like its first time. *)
        let next = t.times.(s).(j + 1) in
        t.arg.(s) <- j + 1;
        sift_down t t.len (if next < at then at else next) (t.seq.(0) + 1) s
      end
      else begin
        (* Read out the callback and free the slot before firing: the
           callback may schedule the next pooled run into this very slot.
           The slot keeps [f] and its array, so a run that reuses them
           stores nothing. *)
        remove_top t;
        free_slot t s
      end;
      t.live <- t.live - 1;
      t.fired <- t.fired + 1;
      t.clock.(0) <- at;
      f j;
      true
    end
    else begin
      remove_top t;
      t.handle.(s) <- no_handle;
      free_slot t s;
      match e.st with
      | Cancelled -> step t
      | Fired -> step t (* unreachable: a fired event is never re-queued *)
      | Pending ->
          e.st <- Fired;
          t.live <- t.live - 1;
          t.fired <- t.fired + 1;
          t.clock.(0) <- at;
          e.run ();
          true
    end
  end

(* A cancelled classic event at the top of the queue. *)
let tombstone_on_top t =
  match t.handle.(t.slot.(0)).st with Pending -> false | Cancelled | Fired -> true

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if t.len > 0 && tombstone_on_top t then begin
          let s = t.slot.(0) in
          remove_top t;
          t.handle.(s) <- no_handle;
          free_slot t s
        end
        else if t.len > 0 && t.at.(0) <= limit then ignore (step t)
        else begin
          continue := false;
          if t.clock.(0) < limit then t.clock.(0) <- limit
        end
      done

let pending t = t.live

let events_fired t = t.fired
