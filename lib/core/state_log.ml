type checkpoint = {
  ck_group : Proto.Types.group_id;
  ck_persistent : bool;
  ck_at_seqno : int;
  ck_objects : (Proto.Types.object_id * string) list;
}

let checkpoint_size ck =
  let header = 64 in
  List.fold_left
    (fun acc (id, data) -> acc + String.length id + String.length data + 8)
    header ck.ck_objects

type reduction_policy =
  | No_reduction
  | Every_n_updates of int
  | Log_bytes_threshold of int

type t = {
  group : Proto.Types.group_id;
  persistent : bool;
  state : Shared_state.t;
  wal : Proto.Types.update Storage.Wal.t;
  checkpoints : checkpoint Storage.Snapshot.t;
  policy : reduction_policy;
  mutable reduction_in_flight : bool;
  mutable last_seqno : int; (* highest applied sequence number; -1 initially *)
  mutable base_objects : (Proto.Types.object_id * string) list;
  mutable base_seqno : int; (* the retained log starts here; base = state then *)
}

let update_wire_bytes (u : Proto.Types.update) =
  String.length u.data + String.length u.obj + String.length u.sender
  + String.length u.group + 32

let make_checkpoint t =
  {
    ck_group = t.group;
    ck_persistent = t.persistent;
    ck_at_seqno = t.last_seqno + 1;
    ck_objects = Shared_state.objects t.state;
  }

let write_checkpoint t ~on_durable =
  let ck = make_checkpoint t in
  Storage.Snapshot.save t.checkpoints ~key:t.group ~size:(checkpoint_size ck) ck
    ~on_durable:(fun () -> on_durable ck)

let make ~group ~persistent ~state ~wal ~checkpoints ~policy ~at_seqno ~base_objects =
  {
    group;
    persistent;
    state;
    wal;
    checkpoints;
    policy;
    reduction_in_flight = false;
    last_seqno = at_seqno - 1;
    base_objects;
    base_seqno = at_seqno;
  }

let create ~group ~persistent ~wal ~checkpoints ~policy ?(at_seqno = 0) ~initial () =
  let t =
    make ~group ~persistent
      ~state:(Shared_state.of_objects initial)
      ~wal ~checkpoints ~policy ~at_seqno ~base_objects:initial
  in
  if persistent then write_checkpoint t ~on_durable:(fun _ -> ());
  t

let recover ck ~wal ~checkpoints ~policy =
  Storage.Wal.crash_recover wal;
  let t =
    make ~group:ck.ck_group ~persistent:ck.ck_persistent
      ~state:(Shared_state.of_objects ck.ck_objects)
      ~wal ~checkpoints ~policy ~at_seqno:ck.ck_at_seqno
      ~base_objects:ck.ck_objects
  in
  (* Replay the durable suffix past the checkpoint (records are in seqno
     order but, in replicated mode, WAL indices need not equal seqnos). *)
  Storage.Wal.iter_from wal (Storage.Wal.first_index wal) (fun _ (u : Proto.Types.update) ->
      if u.seqno >= ck.ck_at_seqno then begin
        Shared_state.apply t.state u;
        if u.seqno > t.last_seqno then t.last_seqno <- u.seqno
      end);
  t

let group t = t.group

let state t = t.state

let next_seqno t = t.last_seqno + 1

let snapshot_seqno t = Storage.Wal.first_index t.wal

let log_length t = Storage.Wal.length t.wal

let do_reduce t ~on_done =
  if (not t.reduction_in_flight) && Storage.Wal.length t.wal > 0 then begin
    t.reduction_in_flight <- true;
    (* The checkpoint covers every applied update, so the whole retained log
       (everything up to the current WAL position) can go. *)
    let wal_upto = Storage.Wal.next_index t.wal in
    write_checkpoint t ~on_durable:(fun ck ->
        Storage.Wal.truncate_prefix t.wal ~upto:wal_upto;
        t.reduction_in_flight <- false;
        t.base_objects <- ck.ck_objects;
        t.base_seqno <- ck.ck_at_seqno;
        on_done ~upto:ck.ck_at_seqno)
  end

let maybe_auto_reduce t =
  let trigger =
    match t.policy with
    | No_reduction -> false
    | Every_n_updates n -> Storage.Wal.length t.wal >= n
    | Log_bytes_threshold bytes -> Storage.Wal.bytes_retained t.wal >= bytes
  in
  if trigger then do_reduce t ~on_done:(fun ~upto -> ignore upto)

(* Apply [u]; the caller logs it, then runs the reduction policy. *)
let record_update t (u : Proto.Types.update) =
  Shared_state.apply t.state u;
  t.last_seqno <- max t.last_seqno u.seqno

let append t ~kind ~obj ~data ~sender ~timestamp ~on_durable =
  let u =
    {
      Proto.Types.seqno = t.last_seqno + 1;
      group = t.group;
      kind;
      obj;
      data;
      sender;
      timestamp;
    }
  in
  record_update t u;
  Storage.Wal.append_sync t.wal ~size:(update_wire_bytes u) u
    ~on_durable:(fun _ -> on_durable u);
  maybe_auto_reduce t;
  u

let apply_sequenced t u =
  record_update t u;
  ignore (Storage.Wal.append t.wal ~size:(update_wire_bytes u) u);
  maybe_auto_reduce t

let updates_from t from =
  let acc = ref [] in
  Storage.Wal.iter_from t.wal (Storage.Wal.first_index t.wal)
    (fun _ (u : Proto.Types.update) -> if u.seqno >= from then acc := u :: !acc);
  List.rev !acc

let latest_updates t n =
  if n <= 0 then []
  else begin
    let from =
      max (Storage.Wal.first_index t.wal) (Storage.Wal.next_index t.wal - n)
    in
    let acc = ref [] in
    Storage.Wal.iter_from t.wal from (fun _ u -> acc := u :: !acc);
    List.rev !acc
  end

let reduce t ~on_done = do_reduce t ~on_done

let checkpoint_now t ~on_durable =
  write_checkpoint t ~on_durable:(fun _ -> on_durable ())

let base t = (t.base_objects, t.base_seqno)

let delete_durable t = Storage.Snapshot.delete t.checkpoints ~key:t.group
