(* Tests for the stable-storage substrate: disk timing model, WAL
   durability/crash semantics/truncation, ephemeral logs, snapshots. *)

let make_host () =
  let engine = Sim.Engine.create ~seed:9L () in
  let fabric = Net.Fabric.create engine in
  let host = Net.Fabric.add_host fabric ~name:"h" () in
  (engine, host)

(* --- disk ----------------------------------------------------------------- *)

let test_disk_write_timing () =
  let engine, host = make_host () in
  let disk = Storage.Disk.create host ~transfer_rate:1e6 ~seek_time:0.001 () in
  let at = ref nan in
  (* 1 ms seek + 10_000 / 1e6 = 11 ms. *)
  Storage.Disk.write disk ~size:10_000 ~on_durable:(fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "11 ms" 0.011 !at;
  Alcotest.(check int) "odometer" 10_000 (Storage.Disk.bytes_written disk)

let test_disk_fifo_queue () =
  let engine, host = make_host () in
  let disk = Storage.Disk.create host ~transfer_rate:1e6 ~seek_time:0.0 () in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Storage.Disk.write disk ~size:1000 ~on_durable:(fun () ->
        done_at := Sim.Engine.now engine :: !done_at)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "serialized" [ 0.001; 0.002; 0.003 ]
    (List.rev !done_at)

let test_disk_crash_loses_queued_writes () =
  let engine, host = make_host () in
  let disk = Storage.Disk.create host ~transfer_rate:1e4 ~seek_time:0.0 () in
  let durable = ref 0 in
  Storage.Disk.write disk ~size:1000 ~on_durable:(fun () -> incr durable);
  Storage.Disk.write disk ~size:1000 ~on_durable:(fun () -> incr durable);
  (* First finishes at 0.1 s, second at 0.2 s; crash in between. *)
  ignore (Sim.Engine.schedule engine ~delay:0.15 (fun () -> Net.Host.crash host));
  Sim.Engine.run engine;
  Alcotest.(check int) "only the first write survived" 1 !durable

(* --- wal ------------------------------------------------------------------- *)

let make_wal () =
  let engine, host = make_host () in
  let disk = Storage.Disk.create host () in
  (engine, host, Storage.Wal.create disk ~name:"log")

let test_wal_append_and_read () =
  let engine, _, wal = make_wal () in
  let i0 = Storage.Wal.append wal ~size:10 "a" in
  let i1 = Storage.Wal.append wal ~size:10 "b" in
  Alcotest.(check (pair int int)) "indices" (0, 1) (i0, i1);
  Alcotest.(check (option string)) "get 0" (Some "a") (Storage.Wal.get wal 0);
  Alcotest.(check int) "length" 2 (Storage.Wal.length wal);
  Alcotest.(check int) "not yet durable" 0 (Storage.Wal.durable_upto wal);
  Sim.Engine.run engine;
  Alcotest.(check int) "durable after run" 2 (Storage.Wal.durable_upto wal)

let test_wal_iter_order () =
  let _, _, wal = make_wal () in
  for i = 0 to 9 do
    ignore (Storage.Wal.append wal ~size:1 (string_of_int i))
  done;
  let acc = ref [] in
  Storage.Wal.iter_from wal 5 (fun i v -> acc := (i, v) :: !acc);
  Alcotest.(check int) "five records" 5 (List.length !acc);
  Alcotest.(check (pair int string)) "first is index 5" (5, "5")
    (List.nth (List.rev !acc) 0)

let test_wal_truncate_prefix () =
  let _, _, wal = make_wal () in
  for i = 0 to 9 do
    ignore (Storage.Wal.append wal ~size:100 (string_of_int i))
  done;
  Storage.Wal.truncate_prefix wal ~upto:6;
  Alcotest.(check int) "first index" 6 (Storage.Wal.first_index wal);
  Alcotest.(check int) "length" 4 (Storage.Wal.length wal);
  Alcotest.(check int) "bytes" 400 (Storage.Wal.bytes_retained wal);
  Alcotest.(check (option string)) "truncated gone" None (Storage.Wal.get wal 3);
  (* Indices keep counting after truncation. *)
  Alcotest.(check int) "next index unchanged" 10 (Storage.Wal.next_index wal)

let test_wal_crash_recover_drops_tail () =
  let engine, host, wal = make_wal () in
  for i = 0 to 4 do
    ignore (Storage.Wal.append wal ~size:1_000_000 (string_of_int i))
  done;
  (* At 4 MB/s each 1 MB write takes ~0.25 s; crash at 0.6 s -> 2 durable. *)
  ignore (Sim.Engine.schedule engine ~delay:0.6 (fun () -> Net.Host.crash host));
  Sim.Engine.run engine;
  Net.Host.restart host;
  Storage.Wal.crash_recover wal;
  Alcotest.(check int) "two durable records survive" 2 (Storage.Wal.length wal);
  Alcotest.(check int) "next rewinds" 2 (Storage.Wal.next_index wal)

let test_wal_ephemeral () =
  let _, _ = make_host () in
  let wal = Storage.Wal.create_ephemeral ~name:"mem" in
  let durable_called = ref false in
  Storage.Wal.append_sync wal ~size:10 "x" ~on_durable:(fun _ -> durable_called := true);
  Alcotest.(check bool) "completion reported immediately" true !durable_called;
  Alcotest.(check int) "never actually durable" 0 (Storage.Wal.durable_upto wal);
  Storage.Wal.crash_recover wal;
  Alcotest.(check int) "everything lost" 0 (Storage.Wal.length wal)

let prop_wal_retains_suffix =
  QCheck.Test.make ~name:"Wal.truncate keeps exactly the suffix" ~count:200
    QCheck.(pair (int_range 0 50) (int_range 0 60))
    (fun (n, upto) ->
      let _, _, wal = make_wal () in
      for i = 0 to n - 1 do
        ignore (Storage.Wal.append wal ~size:1 (string_of_int i))
      done;
      Storage.Wal.truncate_prefix wal ~upto;
      let expected = max 0 (n - max 0 (min upto n)) in
      Storage.Wal.length wal = expected)

(* --- wal against a list model ---------------------------------------------- *)

(* Random append / append_sync / truncate / step / crash sequences checked,
   after every operation, against a plain list model. Durability is read
   off the disk odometer, not the log: the disk serves this log alone and
   completes writes in order, so its byte count says exactly which records
   reached the platter. *)
type wal_op =
  | Append of int (* size *)
  | Append_sync of int
  | Truncate of int (* keep at most this many of the newest records *)
  | Step of int (* engine events to fire *)
  | Crash

let print_wal_op = function
  | Append n -> Printf.sprintf "append %d" n
  | Append_sync n -> Printf.sprintf "append_sync %d" n
  | Truncate k -> Printf.sprintf "truncate keep %d" k
  | Step n -> Printf.sprintf "step %d" n
  | Crash -> "crash"

(* Three phases, so that every sequence exercises the window's growth
   logic: 70 appends with no drop double the array three times (16 -> 128);
   then 450 appends, each followed by a truncation that keeps at most 30
   records, reach the array's end with at most a quarter of it live at
   least three times, so the window slides; then a free mix with crashes
   and truncations past the end. Steps are sprinkled throughout. *)
let gen_wal_ops =
  let open QCheck.Gen in
  let size = int_range 1 300 in
  let append = oneof [ map (fun n -> Append n) size; map (fun n -> Append_sync n) size ] in
  let maybe_step = frequency [ (2, return []); (1, map (fun n -> [ Step n ]) (int_range 1 4)) ] in
  let grow = list_repeat 70 (map2 (fun a s -> a :: s) append maybe_step) in
  let slide =
    list_repeat 450
      (map3 (fun a k s -> a :: Truncate k :: s) append (int_range 1 30) maybe_step)
  in
  let mix =
    list_repeat 120
      (frequency
         [
           (6, append);
           (3, map (fun n -> Step n) (int_range 1 6));
           (2, map (fun k -> Truncate k) (int_range (-3) 40));
           (1, return Crash);
         ])
  in
  map3 (fun g s m -> List.concat g @ List.concat s @ m) grow slide mix

let check_wal_against_model ~batching ops =
  let engine, host = make_host () in
  let disk = Storage.Disk.create host ~transfer_rate:1e6 ~seek_time:0.001 () in
  let wal =
    match batching with
    | None -> Storage.Wal.create disk ~name:"log"
    | Some (max_batch_bytes, max_delay) ->
        Storage.Wal.create ~batching:{ Storage.Wal.max_batch_bytes; max_delay } disk
          ~name:"log"
  in
  (* Model: retained records (index, size, value) oldest first, the next
     index, the durable prefix, writes not yet on the platter (index, disk
     bytes, synchronous?) and the synchronous callbacks due so far. *)
  let retained = ref [] and next = ref 0 and durable = ref 0 in
  let inflight = Queue.create () and odometer = ref 0 in
  let serial = ref 0 in
  let fired = ref [] and due = ref [] in
  let fail fmt = Printf.ksprintf failwith fmt in
  let first () = match !retained with (i, _, _) :: _ -> i | [] -> !next in
  let absorb_completions () =
    let delta = ref (Storage.Disk.bytes_written disk - !odometer) in
    odometer := Storage.Disk.bytes_written disk;
    while !delta > 0 do
      if Queue.is_empty inflight then fail "disk wrote bytes no record accounts for";
      let i, bytes, sync = Queue.pop inflight in
      delta := !delta - bytes;
      if i + 1 > !durable then durable := i + 1;
      if sync then due := i :: !due
    done;
    if !delta <> 0 then fail "a completed write split a record"
  in
  let append ~sync size =
    let v = !serial in
    incr serial;
    let i = !next in
    (if sync then Storage.Wal.append_sync wal ~size v ~on_durable:(fun i -> fired := i :: !fired)
     else
       let got = Storage.Wal.append wal ~size v in
       if got <> i then fail "append returned %d, model %d" got i);
    retained := !retained @ [ (i, size, v) ];
    Queue.add (i, size + 16, sync) inflight;
    incr next
  in
  let apply = function
    | Append n -> append ~sync:false n
    | Append_sync n -> append ~sync:true n
    | Truncate keep ->
        let upto = !next - keep in
        Storage.Wal.truncate_prefix wal ~upto;
        retained := List.filter (fun (i, _, _) -> i >= upto) !retained;
        if !durable < first () then durable := first ()
    | Step n ->
        for _ = 1 to n do
          ignore (Sim.Engine.step engine)
        done
    | Crash ->
        Net.Host.crash host;
        Net.Host.restart host;
        Storage.Wal.crash_recover wal;
        Queue.clear inflight;
        retained := List.filter (fun (i, _, _) -> i < !durable) !retained;
        next := !durable
  in
  let check () =
    absorb_completions ();
    let first = first () in
    let expect name got want = if got <> want then fail "%s: wal %d, model %d" name got want in
    expect "first_index" (Storage.Wal.first_index wal) first;
    expect "next_index" (Storage.Wal.next_index wal) !next;
    expect "length" (Storage.Wal.length wal) (List.length !retained);
    expect "bytes_retained" (Storage.Wal.bytes_retained wal)
      (List.fold_left (fun acc (_, s, _) -> acc + s) 0 !retained);
    expect "durable_upto" (Storage.Wal.durable_upto wal) !durable;
    for i = first - 2 to !next + 1 do
      let want = List.find_map (fun (j, _, v) -> if i = j then Some v else None) !retained in
      if Storage.Wal.get wal i <> want then fail "get %d disagrees" i
    done;
    List.iter
      (fun from ->
        let got = ref [] in
        Storage.Wal.iter_from wal from (fun i v -> got := (i, v) :: !got);
        let want =
          List.filter_map (fun (i, _, v) -> if i >= from then Some (i, v) else None) !retained
        in
        if List.rev !got <> want then fail "iter_from %d disagrees" from)
      [ first - 1; first; (first + !next) / 2; !next - 1; !next; !next + 1 ];
    let durable_bytes =
      List.fold_left (fun acc (i, s, _) -> if i < !durable then acc + s + 16 else acc) 0 !retained
    in
    if Storage.Wal.replay_cost wal <> float_of_int durable_bytes /. 1e6 then
      fail "replay_cost disagrees";
    if !fired <> !due then fail "durability callbacks disagree"
  in
  List.iter
    (fun op ->
      apply op;
      check ())
    ops;
  true

let prop_wal_matches_model ~batching name =
  QCheck.Test.make ~name ~count:25
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print_wal_op ops)) gen_wal_ops)
    (check_wal_against_model ~batching)

(* A record dropped by truncation or by a crash must not stay reachable
   from the log's in-memory view, nor from a slot the window left behind
   when it grew or slid. *)
let test_wal_drops_are_collectable () =
  let engine, host, wal = make_wal () in
  let weak = Weak.create 142 in
  let tracked = ref 0 in
  let append () =
    let v = Bytes.make 8 'x' in
    Weak.set weak !tracked (Some v);
    incr tracked;
    ignore (Storage.Wal.append wal ~size:8 v)
  in
  for _ = 1 to 40 do
    append ()
  done;
  (* Keep the log short while it runs past the array's end: it slides. *)
  for _ = 1 to 100 do
    Storage.Wal.truncate_prefix wal ~upto:(Storage.Wal.next_index wal - 2);
    append ()
  done;
  Sim.Engine.run engine;
  let kept = Storage.Wal.next_index wal - 1 in
  Storage.Wal.truncate_prefix wal ~upto:kept;
  append ();
  Net.Host.crash host;
  Net.Host.restart host;
  Storage.Wal.crash_recover wal;
  Gc.full_major ();
  Alcotest.(check int) "one record retained" 1 (Storage.Wal.length wal);
  Alcotest.(check bool) "retained record kept" true (Weak.check weak kept);
  Alcotest.(check (list int)) "every truncated or crash-dropped record collected" []
    (List.filter (fun i -> i <> kept && Weak.check weak i) (List.init !tracked Fun.id))

(* --- wal group commit ------------------------------------------------------ *)

(* 100-byte records carry [record_header_size] = 16 framing bytes, so one
   record is a 116 B write and batch arithmetic below counts in 116s. *)
let make_batched_wal ?(max_batch_bytes = 64 * 1024) ?(max_delay = 0.0) () =
  let engine, host = make_host () in
  let disk = Storage.Disk.create host ~transfer_rate:1e6 ~seek_time:0.001 () in
  let wal =
    Storage.Wal.create ~batching:{ Storage.Wal.max_batch_bytes; max_delay } disk
      ~name:"log"
  in
  (engine, host, wal)

let test_wal_group_commit_coalesces () =
  let engine, _, wal = make_batched_wal () in
  (* With max_delay = 0 the first append writes immediately; the other four
     arrive while it is on the platter and coalesce into one batch. *)
  let order = ref [] in
  let upto_trace = ref [] in
  for i = 0 to 4 do
    Storage.Wal.append_sync wal ~size:100 (string_of_int i) ~on_durable:(fun idx ->
        order := idx :: !order;
        upto_trace := Storage.Wal.durable_upto wal :: !upto_trace)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list int))
    "per-record callbacks in index order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Alcotest.(check (list int))
    "durable_upto monotone, covers each record at its callback" [ 1; 2; 3; 4; 5 ]
    (List.rev !upto_trace);
  let cs = Storage.Wal.commit_stats wal in
  Alcotest.(check int) "two physical writes" 2 cs.Storage.Wal.physical_writes;
  Alcotest.(check int) "five records committed" 5 cs.Storage.Wal.records_committed;
  Alcotest.(check int) "largest batch is four" 4 cs.Storage.Wal.max_batch_records

let test_wal_group_commit_idle_delay () =
  let engine, _, wal = make_batched_wal ~max_delay:0.005 () in
  (* Both appends find the disk idle: the first arms the max_delay timer,
     the second joins it, and one write commits the pair. *)
  let done_at = ref [] in
  for i = 0 to 1 do
    Storage.Wal.append_sync wal ~size:100 (string_of_int i) ~on_durable:(fun _ ->
        done_at := Sim.Engine.now engine :: !done_at)
  done;
  Sim.Engine.run engine;
  let cs = Storage.Wal.commit_stats wal in
  Alcotest.(check int) "one physical write" 1 cs.Storage.Wal.physical_writes;
  Alcotest.(check int) "batch of two" 2 cs.Storage.Wal.max_batch_records;
  (* 5 ms delay + 1 ms seek + 232 B / 1 MB/s. *)
  Alcotest.(check (list (float 1e-9))) "both durable together" [ 0.006232; 0.006232 ]
    !done_at

let test_wal_group_commit_crash_drops_batch () =
  let engine, host = make_host () in
  (* Slow disk: the first record's write (116 B at 10 kB/s, ~12.6 ms) is
     still in flight when the crash lands at 5 ms. *)
  let disk = Storage.Disk.create host ~transfer_rate:1e4 ~seek_time:0.001 () in
  let wal =
    Storage.Wal.create
      ~batching:{ Storage.Wal.max_batch_bytes = 64 * 1024; max_delay = 0.0 }
      disk ~name:"log"
  in
  for i = 0 to 2 do
    Storage.Wal.append_sync wal ~size:100 (string_of_int i) ~on_durable:(fun _ ->
        Alcotest.fail "nothing may become durable")
  done;
  ignore (Sim.Engine.schedule engine ~delay:0.005 (fun () -> Net.Host.crash host));
  Sim.Engine.run engine;
  Net.Host.restart host;
  Storage.Wal.crash_recover wal;
  Alcotest.(check int) "in-flight record and pending batch lost together" 0
    (Storage.Wal.length wal);
  Alcotest.(check int) "nothing durable" 0 (Storage.Wal.durable_upto wal);
  (* The log keeps working after recovery. *)
  let redone = ref None in
  Storage.Wal.append_sync wal ~size:100 "again" ~on_durable:(fun i -> redone := Some i);
  Sim.Engine.run engine;
  Alcotest.(check (option int)) "post-recovery append durable at index 0" (Some 0)
    !redone;
  Alcotest.(check int) "durable after recovery" 1 (Storage.Wal.durable_upto wal)

let test_wal_group_commit_byte_cap () =
  let engine, _, wal = make_batched_wal ~max_batch_bytes:232 () in
  for i = 0 to 4 do
    Storage.Wal.append_sync wal ~size:100 (string_of_int i) ~on_durable:(fun _ -> ())
  done;
  Sim.Engine.run engine;
  let cs = Storage.Wal.commit_stats wal in
  Alcotest.(check int) "record 0 alone, then two capped batches" 3
    cs.Storage.Wal.physical_writes;
  Alcotest.(check int) "all committed" 5 cs.Storage.Wal.records_committed;
  Alcotest.(check int) "cap at two records per write" 2 cs.Storage.Wal.max_batch_records;
  Alcotest.(check int) "all durable" 5 (Storage.Wal.durable_upto wal)

(* --- snapshot ----------------------------------------------------------------- *)

let test_snapshot_save_load () =
  let engine, _, wal = make_wal () in
  let disk = Storage.Wal.disk wal in
  let snaps = Storage.Snapshot.create disk ~name:"snaps" in
  let durable = ref false in
  Storage.Snapshot.save snaps ~key:"g" ~size:100 "v1" ~on_durable:(fun () ->
      durable := true);
  Alcotest.(check (option string)) "not visible before durable" None
    (Storage.Snapshot.load snaps ~key:"g");
  Sim.Engine.run engine;
  Alcotest.(check bool) "durable" true !durable;
  Alcotest.(check (option string)) "loaded" (Some "v1")
    (Storage.Snapshot.load snaps ~key:"g");
  Storage.Snapshot.save snaps ~key:"g" ~size:100 "v2" ~on_durable:(fun () -> ());
  Sim.Engine.run engine;
  Alcotest.(check (option string)) "latest wins" (Some "v2")
    (Storage.Snapshot.load snaps ~key:"g");
  Storage.Snapshot.delete snaps ~key:"g";
  Alcotest.(check (option string)) "deleted" None (Storage.Snapshot.load snaps ~key:"g")

let test_snapshot_crash_keeps_previous () =
  let engine, host, wal = make_wal () in
  let disk = Storage.Wal.disk wal in
  let snaps = Storage.Snapshot.create disk ~name:"snaps" in
  Storage.Snapshot.save snaps ~key:"g" ~size:100 "old" ~on_durable:(fun () -> ());
  Sim.Engine.run engine;
  (* A big save that will not complete before the crash. *)
  Storage.Snapshot.save snaps ~key:"g" ~size:100_000_000 "new" ~on_durable:(fun () ->
      Alcotest.fail "must not become durable");
  ignore (Sim.Engine.schedule engine ~delay:0.5 (fun () -> Net.Host.crash host));
  Sim.Engine.run engine;
  Alcotest.(check (option string)) "previous snapshot preserved" (Some "old")
    (Storage.Snapshot.load snaps ~key:"g")

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "disk",
        [
          tc "write timing" `Quick test_disk_write_timing;
          tc "fifo queue" `Quick test_disk_fifo_queue;
          tc "crash loses queued writes" `Quick test_disk_crash_loses_queued_writes;
        ] );
      ( "wal",
        [
          tc "append and read" `Quick test_wal_append_and_read;
          tc "iter order" `Quick test_wal_iter_order;
          tc "truncate prefix" `Quick test_wal_truncate_prefix;
          tc "crash recovery drops tail" `Quick test_wal_crash_recover_drops_tail;
          tc "ephemeral log" `Quick test_wal_ephemeral;
          q prop_wal_retains_suffix;
          q (prop_wal_matches_model ~batching:None "Wal matches a list model (unbatched)");
          q
            (prop_wal_matches_model ~batching:(Some (600, 0.002))
               "Wal matches a list model (group commit)");
          tc "dropped records are collectable" `Quick test_wal_drops_are_collectable;
        ] );
      ( "wal-group-commit",
        [
          tc "busy-disk appends coalesce" `Quick test_wal_group_commit_coalesces;
          tc "idle-disk appends wait max_delay for company" `Quick
            test_wal_group_commit_idle_delay;
          tc "crash mid-batch loses the whole batch" `Quick
            test_wal_group_commit_crash_drops_batch;
          tc "max_batch_bytes caps one physical write" `Quick
            test_wal_group_commit_byte_cap;
        ] );
      ( "snapshot",
        [
          tc "save, load, overwrite, delete" `Quick test_snapshot_save_load;
          tc "crash keeps previous" `Quick test_snapshot_crash_keeps_previous;
        ] );
    ]
