(* A retained record, or [Empty] in a slot outside the retained range. *)
type 'a slot = Empty | Record of { size : int; value : 'a }

(* Group commit (§6 amortization): appends that arrive while the disk is
   busy — most often because an earlier append of this same log is still on
   the platter — are coalesced into one physical write that pays a single
   seek. Bounded by [max_batch_bytes] per physical write and [max_delay] of
   added latency for an append that finds the disk idle. *)
type batch_config = { max_batch_bytes : int; max_delay : float }

let default_batch = { max_batch_bytes = 64 * 1024; max_delay = 1e-3 }

type commit_stats = {
  physical_writes : int;
  records_committed : int;
  max_batch_records : int;
}

type pending = { p_index : int; p_disk_bytes : int; p_on_durable : int -> unit }

type 'a t = {
  disk : Disk.t option; (* None = ephemeral, memory-only *)
  batching : batch_config option;
  name : string;
  records : 'a slot Window.t; (* the in-memory view, [first_index, next_index) *)
  mutable durable_upto : int;
  mutable bytes : int;
  (* group-commit state *)
  pending : pending Queue.t; (* enqueued but not yet issued to the disk *)
  mutable pending_bytes : int; (* disk bytes of [pending] *)
  mutable inflight : bool; (* a batch write of ours is on the disk queue *)
  mutable timer_armed : bool; (* a max_delay flush is scheduled *)
  mutable phys_writes : int;
  mutable recs_committed : int;
  mutable max_batch : int;
}

let make disk batching name =
  {
    disk;
    batching;
    name;
    records = Window.create ~empty:Empty ~first:0;
    durable_upto = 0;
    bytes = 0;
    pending = Queue.create ();
    pending_bytes = 0;
    inflight = false;
    timer_armed = false;
    phys_writes = 0;
    recs_committed = 0;
    max_batch = 0;
  }

let create ?batching disk ~name = make (Some disk) batching name

let create_ephemeral ~name = make None None name

let name t = t.name

let disk t =
  match t.disk with
  | Some d -> d
  | None -> invalid_arg "Wal.disk: ephemeral log has no disk"

let record_header_size = 16 (* index + length framing on disk *)

let commit_stats t =
  {
    physical_writes = t.phys_writes;
    records_committed = t.recs_committed;
    max_batch_records = t.max_batch;
  }

let note_commit t n =
  t.phys_writes <- t.phys_writes + 1;
  t.recs_committed <- t.recs_committed + n;
  if n > t.max_batch then t.max_batch <- n

(* Issue the next batch: drain pending records up to [max_batch_bytes]
   (always at least one) into a single physical write. Per-record durability
   callbacks fire in index order when the write completes, then the
   remainder (records that arrived while it was in flight) flushes. *)
let rec flush t disk cfg =
  if (not t.inflight) && not (Queue.is_empty t.pending) then begin
    let batch = ref [] and batch_bytes = ref 0 and count = ref 0 in
    let fits () =
      (not (Queue.is_empty t.pending))
      && (!count = 0
         || !batch_bytes + (Queue.peek t.pending).p_disk_bytes <= cfg.max_batch_bytes)
    in
    while fits () do
      let p = Queue.pop t.pending in
      batch := p :: !batch;
      batch_bytes := !batch_bytes + p.p_disk_bytes;
      incr count
    done;
    let batch = List.rev !batch and count = !count in
    t.pending_bytes <- t.pending_bytes - !batch_bytes;
    t.inflight <- true;
    Disk.write disk ~size:!batch_bytes ~on_durable:(fun () ->
        (* A crash between issue and completion never reaches here (the
           disk's epoch guard): the whole batch is lost together. *)
        t.inflight <- false;
        note_commit t count;
        List.iter
          (fun p ->
            if p.p_index >= t.durable_upto then t.durable_upto <- p.p_index + 1;
            p.p_on_durable p.p_index)
          batch;
        flush t disk cfg)
  end

let arm_timer t disk cfg ~delay =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    let host = Disk.host disk in
    let epoch = Net.Host.epoch host in
    ignore
      (Sim.Engine.schedule (Net.Host.engine host) ~delay (fun () ->
           t.timer_armed <- false;
           if Net.Host.is_alive host && Net.Host.epoch host = epoch then
             flush t disk cfg))
  end

let enqueue_batched t disk cfg ~index ~disk_bytes ~on_durable =
  Queue.add
    { p_index = index; p_disk_bytes = disk_bytes; p_on_durable = on_durable }
    t.pending;
  t.pending_bytes <- t.pending_bytes + disk_bytes;
  if not t.inflight then begin
    (* Our own in-flight batch is the usual reason to wait: its completion
       flushes. Otherwise decide between writing now and batching a bit. *)
    if t.pending_bytes >= cfg.max_batch_bytes then flush t disk cfg
    else begin
      let host = Disk.host disk in
      let now = Sim.Engine.now (Net.Host.engine host) in
      let busy_for = Disk.busy_until disk -. now in
      if busy_for > 0.0 then
        (* Someone else (a checkpoint, another group's log) holds the disk:
           batch until it frees, capped at [max_delay]. *)
        arm_timer t disk cfg ~delay:(Float.min busy_for cfg.max_delay)
      else if cfg.max_delay > 0.0 then arm_timer t disk cfg ~delay:cfg.max_delay
      else flush t disk cfg
    end
  end

let do_append t ~size value ~on_durable =
  let index = Window.next t.records in
  Window.push t.records (Record { size; value });
  t.bytes <- t.bytes + size;
  (match (t.disk, t.batching) with
  | Some disk, Some cfg ->
      enqueue_batched t disk cfg ~index ~disk_bytes:(size + record_header_size)
        ~on_durable
  | Some disk, None ->
      Disk.write disk ~size:(size + record_header_size) ~on_durable:(fun () ->
          (* Disk writes complete in order, so durability advances a prefix. *)
          note_commit t 1;
          if index >= t.durable_upto then t.durable_upto <- index + 1;
          on_durable index)
  | None, _ ->
      (* Ephemeral: report completion now; durability never advances. *)
      on_durable index);
  index

let append t ~size value = do_append t ~size value ~on_durable:(fun _ -> ())

let append_sync t ~size value ~on_durable =
  ignore (do_append t ~size value ~on_durable)

let first_index t = Window.first t.records

let next_index t = Window.next t.records

let length t = Window.length t.records

let get t i =
  match Window.get t.records i with Record r -> Some r.value | Empty -> None

let iter_from t from f =
  for i = max from (first_index t) to next_index t - 1 do
    match Window.get t.records i with Record r -> f i r.value | Empty -> ()
  done

(* Bytes of the retained records in [lo, hi), disk framing excluded. *)
let bytes_between t lo hi =
  let sum = ref 0 in
  for i = lo to hi - 1 do
    match Window.get t.records i with Record r -> sum := !sum + r.size | Empty -> ()
  done;
  !sum

let truncate_prefix t ~upto =
  let upto = min upto (next_index t) in
  if upto > first_index t then begin
    t.bytes <- t.bytes - bytes_between t (first_index t) upto;
    Window.drop_front t.records ~upto
  end;
  if t.durable_upto < first_index t then t.durable_upto <- first_index t

let durable_upto t = t.durable_upto

let bytes_retained t = t.bytes

let crash_recover t =
  (* The un-durable suffix is gone — including every record still pending
     in an unissued or in-flight batch: the whole batch dies together. *)
  t.bytes <- t.bytes - bytes_between t t.durable_upto (next_index t);
  Window.drop_back t.records ~from:t.durable_upto;
  Queue.clear t.pending;
  t.pending_bytes <- 0;
  t.inflight <- false;
  t.timer_armed <- false

let replay_cost t =
  match t.disk with
  | None -> 0.0
  | Some disk ->
      let first = first_index t in
      let records = t.durable_upto - first in
      let durable_bytes = bytes_between t first t.durable_upto + (records * record_header_size) in
      float_of_int durable_bytes /. Disk.transfer_rate disk
