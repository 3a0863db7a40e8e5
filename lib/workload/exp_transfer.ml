(* §3.2 customized state transfer: what a joining client asks for shapes
   both its join latency and the bytes moved — the reason Corona lets
   clients on slow links request "only the latest updates" or "only the
   state of certain objects". *)

module T = Proto.Types

let objects = List.init 20 (fun i -> (Printf.sprintf "obj-%02d" i, String.make 5_000 'd'))

let history_updates = 200

let measure ?(seed = 23L) ~transfer () =
  let tb = Testbed.single_server ~seed () in
  let joined_at = ref None in
  let started_at = ref 0.0 in
  let before_bytes = ref 0 in
  Testbed.spawn_clients tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)
    ~n:2
    (fun cls ->
      let creator = cls.(0) and joiner = cls.(1) in
      Corona.Client.create_group creator ~group:"g" ~initial:objects
        ~k:(fun _ ->
          Corona.Client.join creator ~group:"g"
            ~k:(fun _ ->
              for i = 0 to history_updates - 1 do
                Corona.Client.bcast_update creator ~group:"g"
                  ~obj:(Printf.sprintf "obj-%02d" (i mod 20))
                  ~data:(String.make 500 'u') ()
              done;
              ignore
                (Sim.Engine.schedule tb.s_engine ~delay:2.0 (fun () ->
                     before_bytes :=
                       (Corona.Server.stats tb.s_server).Corona.Server.state_transfer_bytes;
                     started_at := Sim.Engine.now tb.s_engine;
                     Corona.Client.join joiner ~group:"g" ~transfer
                       ~k:(fun _ -> joined_at := Some (Sim.Engine.now tb.s_engine))
                       ())))
            ())
        ());
  Testbed.run_until tb.s_engine (fun () -> !joined_at <> None);
  let bytes =
    (Corona.Server.stats tb.s_server).Corona.Server.state_transfer_bytes
    - !before_bytes
  in
  (Option.get !joined_at -. !started_at, bytes)

let run () =
  Report.section "State-transfer policies (§3.2) — join latency vs bytes moved";
  Report.note "group: 20 objects x 5 kB plus 200 x 500 B update history";
  let cases =
    [
      ("full state", T.Full_state);
      ("latest 20 updates", T.Latest_updates 20);
      ("latest 100 updates", T.Latest_updates 100);
      ("2 objects of 20", T.Objects [ "obj-00"; "obj-01" ]);
      ("no state", T.No_state);
    ]
  in
  let rows =
    List.map
      (fun (label, transfer) ->
        let latency, bytes = measure ~transfer () in
        [ label; Report.ms latency; Report.fbytes bytes ])
      cases
  in
  Report.table ~header:[ "policy"; "join latency (ms)"; "state bytes" ] rows

(* --- join-storm amortization (snapshot cache) ---------------------------- *)

(* [members] clients join one 100 kB group inside a tight window while a
   writer keeps mutating the state. Without the snapshot cache every join
   pays a full materialize + encode; with it all joiners of one state
   version share a single one, so misses track the handful of versions the
   writer produces, not the joiner count. *)

type storm_result = {
  st_members : int;
  st_hits : int;
  st_misses : int;
  st_span : float;  (** virtual seconds, first join issued -> last accepted *)
  st_bytes : int;  (** join-state bytes served during the storm *)
  st_minor_words_per_join : float;
      (** minor-heap words allocated per completed join, whole world *)
}

let join_storm ?(seed = 29L) ~members () =
  let tb = Testbed.single_server ~seed ~client_machines:12 () in
  let engine = tb.Testbed.s_engine in
  let group = "storm" in
  let creator = ref None in
  Testbed.spawn_clients tb.Testbed.s_fabric ~hosts:tb.Testbed.s_client_hosts
    ~server_for:(fun _ -> tb.Testbed.s_server_host)
    ~n:1 ~prefix:"w"
    (fun cls ->
      Corona.Client.create_group cls.(0) ~group ~initial:objects
        ~k:(fun _ ->
          Corona.Client.join cls.(0) ~group ~notify:false
            ~k:(fun _ -> creator := Some cls.(0))
            ())
        ());
  Testbed.run_until engine (fun () -> !creator <> None);
  let writer = Option.get !creator in
  (* Stagger connects 1 ms apart: thousands of simultaneous SYNs against one
     serialized server CPU would blow TCP's handshake timeout. *)
  let joiners = Array.make members None in
  let connected = ref 0 in
  for i = 0 to members - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(0.001 *. float_of_int i)
         (fun () ->
           Corona.Client.connect tb.Testbed.s_fabric
             ~host:tb.Testbed.s_client_hosts.(i mod Array.length tb.Testbed.s_client_hosts)
             ~server:tb.Testbed.s_server_host
             ~member:(Printf.sprintf "j%d" i)
             ~on_connected:(fun cl ->
               joiners.(i) <- Some cl;
               incr connected)
             ~on_failed:(fun () -> failwith (Printf.sprintf "storm: joiner %d lost" i))
             ()))
  done;
  Testbed.run_until engine (fun () -> !connected = members);
  let hits0, misses0 = Corona.Server.transfer_cache_stats tb.Testbed.s_server in
  let bytes0 =
    (Corona.Server.stats tb.Testbed.s_server).Corona.Server.state_transfer_bytes
  in
  let minor0 = Gc.minor_words () in
  let started = Sim.Engine.now engine in
  let joined = ref 0 in
  let finished_at = ref started in
  for i = 0 to members - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(0.0005 *. float_of_int i)
         (fun () ->
           Corona.Client.join (Option.get joiners.(i)) ~group ~transfer:T.Full_state
             ~notify:false
             ~k:(fun _ ->
               incr joined;
               finished_at := Sim.Engine.now engine)
             ()))
  done;
  (* A writer mutating mid-storm invalidates the cached snapshot a few
     times: misses count state versions, hits everything amortized away. *)
  let storm_window = 0.0005 *. float_of_int members in
  for w = 1 to 4 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(storm_window *. float_of_int w /. 5.0)
         (fun () ->
           Corona.Client.bcast_update writer ~group ~obj:"obj-00"
             ~data:(String.make 200 'w') ()))
  done;
  Testbed.run_until engine (fun () -> !joined = members);
  let minor_words = Gc.minor_words () -. minor0 in
  let hits, misses = Corona.Server.transfer_cache_stats tb.Testbed.s_server in
  {
    st_members = members;
    st_hits = hits - hits0;
    st_misses = misses - misses0;
    st_span = !finished_at -. started;
    st_bytes =
      (Corona.Server.stats tb.Testbed.s_server).Corona.Server.state_transfer_bytes
      - bytes0;
    st_minor_words_per_join = minor_words /. float_of_int members;
  }

(* --- durable-multicast throughput (WAL group commit) --------------------- *)

(* Two senders stream [records] small appends through a Sync_logging server
   (fan-out waits for durability), so time-to-durable is bounded by the
   disk: one seek per record without batching, one seek per coalesced batch
   with it. The quad-Pentium server keeps record arrival well above the
   seek rate — the regime where group commit pays; on the slower UltraSparc
   the batched run goes CPU-bound and batches stay small. *)

type durable_result = {
  du_span : float;  (** virtual seconds, first send -> last delivery *)
  du_rps : float;  (** records per virtual second *)
  du_physical_writes : int;
  du_records_committed : int;
  du_max_batch : int;
  du_minor_words_per_bcast : float;
      (** minor-heap words per durable broadcast, whole world *)
}

let durable_multicast ?(seed = 31L) ~size ~records ~batching () =
  let config =
    { Corona.Server.default_config with
      Corona.Server.logging = Corona.Server.Sync_logging;
      wal_batching = batching;
    }
  in
  let tb =
    Testbed.single_server ~seed ~server_cpu:Net.Host.pentium_ii_quad ~config ()
  in
  let engine = tb.Testbed.s_engine in
  let group = "durable" in
  let n_senders = 2 in
  let senders = ref None in
  Testbed.spawn_clients tb.Testbed.s_fabric ~hosts:tb.Testbed.s_client_hosts
    ~server_for:(fun _ -> tb.Testbed.s_server_host)
    ~n:n_senders ~prefix:"d"
    (fun cls ->
      Corona.Client.create_group cls.(0) ~group ~persistent:true
        ~k:(fun _ ->
          Testbed.join_all cls ~group ~transfer:T.No_state (fun () ->
              senders := Some cls))
        ());
  Testbed.run_until engine (fun () -> !senders <> None);
  let senders = Option.get !senders in
  (* The group's log exists by now (persistent create), so this returns the
     server's own WAL: the span runs from the first send to the last record
     on the platter — the durability horizon a durable multicast gates on. *)
  let wal = Corona.Server_storage.wal_for tb.Testbed.s_storage group in
  let durable_goal = Storage.Wal.next_index wal + records in
  let minor0 = Gc.minor_words () in
  let started = Sim.Engine.now engine in
  for i = 0 to records - 1 do
    Corona.Client.bcast_update senders.(i mod n_senders) ~group
      ~obj:(Printf.sprintf "o%d" (i mod 8))
      ~data:(String.make size 'r') ~mode:T.Sender_exclusive ()
  done;
  Testbed.run_until engine (fun () -> Storage.Wal.durable_upto wal >= durable_goal);
  let minor_words = Gc.minor_words () -. minor0 in
  let span = Sim.Engine.now engine -. started in
  let cs = Storage.Wal.commit_stats wal in
  {
    du_span = span;
    du_rps = float_of_int records /. span;
    du_physical_writes = cs.Storage.Wal.physical_writes;
    du_records_committed = cs.Storage.Wal.records_committed;
    du_max_batch = cs.Storage.Wal.max_batch_records;
    du_minor_words_per_bcast = minor_words /. float_of_int records;
  }
