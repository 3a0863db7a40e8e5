(* Per-shard hold-back queues with cross-shard barrier gating.

   Each shard carries its own contiguous sequence-number stream with its own
   out-of-order buffer; one shard is the classic single sequencer's total
   order. A cross-shard barrier is a vector of per-shard
   positions stamped by the coordinator: the barrier payload fires exactly
   when every shard's applied position has reached its slot in the vector,
   and while a barrier is parked no shard may run past its slot — so every
   replica interleaves the barrier at the same logical point of all N
   streams. Updates are emitted as soon as their own shard allows (streams
   over disjoint keyspace slices commute), barriers alone synchronize. *)

type 'b barrier = { bar : int; vector : int array; payload : 'b }

type ('u, 'b) action = Deliver of int * 'u (* shard, item *) | Barrier of 'b

type 'u stream = {
  mutable next : int; (* next expected seqno on this shard *)
  buffer : (int, 'u) Hashtbl.t; (* out-of-order arrivals *)
  mutable min_buffered : int;
      (* Lower bound on the smallest buffered seqno; [max_int] when empty.
         Kept lazily: inserts tighten it in O(1), drains may leave it stale
         (below every buffered seqno), and [gap] recomputes only then — so a
         gap probe per offer is O(1), not a fold over the buffer. *)
}

type ('u, 'b) t = {
  shards : 'u stream array;
  mutable parked : 'b barrier list; (* ascending by bar *)
  mutable last_bar : int; (* highest fired barrier, duplicate filter *)
}

let create ~shards () =
  if shards < 1 then invalid_arg "Shard_holdback.create: shards < 1";
  {
    shards =
      Array.init shards (fun _ ->
          { next = 0; buffer = Hashtbl.create 8; min_buffered = max_int });
    parked = [];
    last_bar = -1;
  }

let next_expected t ~shard = t.shards.(shard).next

let positions t = Array.map (fun s -> s.next) t.shards

(* The head barrier caps every stream at its slot; with no barrier parked
   the cap is infinite. A late-arriving barrier may find a stream already
   past its slot (the commit raced the post-barrier traffic on another
   connection); the slot then no longer gates — only streams still short of
   their slot hold the barrier back. *)
let limit t shard =
  match t.parked with [] -> max_int | b :: _ -> b.vector.(shard)

let barrier_ready t (b : _ barrier) =
  let ready = ref true in
  Array.iteri (fun s slot -> if t.shards.(s).next < slot then ready := false) b.vector;
  !ready

(* Drain shard [s] up to the current cap, appending to [acc] in reverse. *)
let drain_shard t s acc =
  let st = t.shards.(s) in
  let continue_ = ref true in
  while !continue_ do
    if st.next >= limit t s then continue_ := false
    else
      match Hashtbl.find_opt st.buffer st.next with
      | None -> continue_ := false
      | Some item ->
          Hashtbl.remove st.buffer st.next;
          acc := Deliver (s, item) :: !acc;
          st.next <- st.next + 1
  done;
  if Hashtbl.length st.buffer = 0 then st.min_buffered <- max_int

(* Fire every satisfied head barrier, then re-drain all shards the lifted
   cap may have unblocked; repeat until a barrier still waits or none are
   parked. *)
let rec settle t acc =
  match t.parked with
  | b :: rest when barrier_ready t b ->
      t.parked <- rest;
      t.last_bar <- max t.last_bar b.bar;
      acc := Barrier b.payload :: !acc;
      for s = 0 to Array.length t.shards - 1 do
        drain_shard t s acc
      done;
      settle t acc
  | _ -> ()

let offer t ~shard ~seqno item =
  let st = t.shards.(shard) in
  if seqno < st.next || Hashtbl.mem st.buffer seqno then []
  else begin
    Hashtbl.replace st.buffer seqno item;
    if seqno < st.min_buffered then st.min_buffered <- seqno;
    let acc = ref [] in
    drain_shard t shard acc;
    settle t acc;
    List.rev !acc
  end

let offer_barrier t ~bar ~vector payload =
  if bar <= t.last_bar || List.exists (fun b -> b.bar = bar) t.parked then []
  else begin
    let b = { bar; vector = Array.copy vector; payload } in
    t.parked <-
      List.sort (fun a b -> Int.compare a.bar b.bar) (b :: t.parked);
    let acc = ref [] in
    settle t acc;
    List.rev !acc
  end

(* First missing contiguous range on a shard, for gap repair: [Some (from,
   upto)] when something is buffered beyond a hole. *)
let gap t ~shard =
  let st = t.shards.(shard) in
  if Hashtbl.length st.buffer = 0 then None
  else begin
    if st.min_buffered < st.next then
      (* Stale bound (a drain consumed the old minimum): recompute, amortized
         against the drain that invalidated it. *)
      st.min_buffered <- Hashtbl.fold (fun s _ acc -> min s acc) st.buffer max_int;
    if st.min_buffered > st.next then Some (st.next, st.min_buffered - 1) else None
  end

let pending t ~shard = Hashtbl.length t.shards.(shard).buffer

(* A barrier can also stall on streams that will never advance on their own
   (the missing updates were lost with a crashed sequencer): expose which
   shards are short so the caller can fetch the suffix. *)
let stalled_shards t =
  match t.parked with
  | [] -> []
  | b :: _ ->
      let out = ref [] in
      Array.iteri
        (fun s slot -> if t.shards.(s).next < slot then out := (s, t.shards.(s).next) :: !out)
        b.vector;
      List.rev !out

let pending_barriers t = List.length t.parked

(* Re-run barrier settling without a new arrival: used after [reset] adopts
   positions that may already satisfy a parked barrier. *)
let poll t =
  let acc = ref [] in
  settle t acc;
  List.rev !acc

(* Adopt externally recovered positions (state transfer, lagging-copy seed):
   buffered out-of-order arrivals are dropped with the old stream
   identities, but parked barriers survive — a join riding a barrier must
   still fire once the adopted positions reach its vector ([poll]). *)
let reset t ~vector =
  Array.iteri
    (fun s next ->
      let st = t.shards.(s) in
      Hashtbl.reset st.buffer;
      st.min_buffered <- max_int;
      st.next <- next)
    vector

(* Post-heal resync: the coordinator re-prepares every in-flight barrier, so
   barriers parked under the previous regime are dropped outright. *)
let clear_barriers t = t.parked <- []
