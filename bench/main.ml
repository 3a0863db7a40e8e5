(* Performance harness: Bechamel micro-benchmarks of the hot in-process
   paths, plus the fan-out, scale, sharded, relay and transfer sweeps whose
   rows it writes to BENCH_*.json. The paper's tables and figures are run
   by the experiment CLI ([dune exec bin/corona_cli.exe -- all]).

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- micro fanout  # a subset
     dune exec bench/main.exe -- --quick       # reduced sizes
     dune exec bench/main.exe -- --smoke scale # smallest sizes, no JSON *)

module T = Proto.Types

(* --- machine-readable results (BENCH_*.json) ---------------------------- *)

(* Rows accumulate as experiments run; if any were produced, the harness
   writes them out on exit so successive PRs can track the perf trajectory.
   One Sweep instance per output file — micro numbers, scale curves and the
   transfer sweep refresh independently and can never leak rows into each
   other (Workload.Sweep documents the stale-row bug that motivated the
   instantiation). *)
let micro_sweep = Workload.Sweep.create ()

let scale_sweep = Workload.Sweep.create ()

let transfer_sweep = Workload.Sweep.create ()

let json_num = Workload.Sweep.num

let json_add section fields = Workload.Sweep.add micro_sweep ~section fields

let scale_add section fields = Workload.Sweep.add scale_sweep ~section fields

let transfer_add section fields = Workload.Sweep.add transfer_sweep ~section fields

let write_json_results () =
  Workload.Sweep.write micro_sweep "BENCH_micro.json";
  Workload.Sweep.write scale_sweep "BENCH_scale.json";
  Workload.Sweep.write transfer_sweep "BENCH_transfer.json"

let quick = ref false

let smoke = ref false

(* --- Bechamel micro-benchmarks ----------------------------------------- *)

let sample_update =
  {
    T.seqno = 42;
    group = "whiteboard";
    kind = T.Append_update;
    obj = "canvas";
    data = String.make 1000 'x';
    sender = "alice";
    timestamp = 123.456;
  }

let sample_message =
  Proto.Message.Request
    (Proto.Message.Bcast
       {
         group = "whiteboard";
         sender = "alice";
         kind = T.Append_update;
         obj = "canvas";
         data = String.make 1000 'x';
         mode = T.Sender_inclusive;
       })

let encoded_sample =
  let w = Proto.Codec.Writer.create () in
  Proto.Message.encode w sample_message;
  Proto.Codec.Writer.contents w

let bench_encode () =
  let w = Proto.Codec.Writer.create () in
  Proto.Message.encode w sample_message;
  Proto.Codec.Writer.size w

let bench_decode () =
  Proto.Message.decode (Proto.Codec.Reader.of_string encoded_sample)

let bench_state_apply () =
  let state = Corona.Shared_state.create () in
  for _ = 1 to 100 do
    Corona.Shared_state.apply state sample_update
  done;
  Corona.Shared_state.total_bytes state

let make_bench_log =
  (* One simulated world reused across iterations; the log is ephemeral. *)
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let host = Net.Fabric.add_host fabric ~name:"bench-host" () in
  let checkpoints = Storage.Snapshot.create (Storage.Disk.create host ()) ~name:"cks" in
  fun () ->
    Corona.State_log.create ~group:"g" ~persistent:false
      ~wal:(Storage.Wal.create_ephemeral ~name:"bench")
      ~checkpoints ~policy:Corona.State_log.No_reduction ~initial:[] ()

let bench_log_append () =
  let log = make_bench_log () in
  for _ = 1 to 100 do
    ignore
      (Corona.State_log.append log ~kind:T.Append_update ~obj:"o" ~data:"0123456789"
         ~sender:"s" ~timestamp:0.0 ~on_durable:(fun _ -> ()))
  done;
  Corona.State_log.next_seqno log

(* The classic sequencer's hold-back: one stream of [Shard_holdback],
   offered seqnos in reverse (every arrival but the last is buffered) or in
   order (every arrival is delivered on arrival, as every offer is on the
   replicated_failover benchmark). *)
let bench_holdback ~in_order () =
  let hb = Ordering.Shard_holdback.create ~shards:1 () in
  for i = 0 to 99 do
    let seqno = if in_order then i else 99 - i in
    ignore (Ordering.Shard_holdback.offer hb ~shard:0 ~seqno seqno)
  done;
  Ordering.Shard_holdback.next_expected hb ~shard:0

let bench_vclock () =
  let sites = Array.init 16 (Printf.sprintf "site-%d") in
  let v =
    Array.fold_left (fun acc s -> Ordering.Vclock.tick acc s) Ordering.Vclock.empty sites
  in
  let w = Ordering.Vclock.tick v "site-3" in
  Ordering.Vclock.compare_causal v w

(* Codec allocation rows: minor-heap words per encode/decode operation.
   The decode side compares a full record materialization against a
   fixed-offset header peek — the path Server/Node/Relay dispatch rides. *)
let run_codec_alloc () =
  let iters = 2000 in
  let words_per f =
    (* warm up: stabilize the minor heap before the measured window *)
    for _ = 1 to 200 do ignore (f ()) done;
    let m0 = Gc.minor_words () in
    for _ = 1 to iters do ignore (f ()) done;
    (Gc.minor_words () -. m0) /. float_of_int iters
  in
  let cases =
    [
      ("codec encode 1kB bcast (copied)", fun () -> bench_encode ());
      ("codec decode 1kB bcast (full record)", fun () -> ignore (bench_decode ()); 0);
      ( "codec decode 1kB bcast (header peek)",
        fun () ->
          match Proto.Message.peek_kind encoded_sample with
          | Proto.Message.Peek_request k | Proto.Message.Peek_response k -> k );
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let words = words_per f in
        json_add "micro"
          [
            ("name", Printf.sprintf "%S" name);
            ("minor_words_per_bcast", json_num words);
          ];
        [ name; Printf.sprintf "%.1f" words ])
      cases
  in
  Workload.Report.table ~header:[ "codec path"; "minor w/op" ] rows

(* Allocation rows of the update log: minor-heap words per
   [State_log.append] on an in-memory log, and per [State_log.apply_sequenced]
   (the replicated apply path) on a disk-backed WAL whose writes complete
   before the next apply. Both logs are long-lived and warmed up, so their
   in-memory windows grow in the major heap and a row counts what one update
   allocates. Gated: an int-keyed [Hashtbl] back on either path (a bucket
   cell per update) exceeds its bound. *)
let log_append_words_bound = 22.0

let log_apply_words_bound = 44.0

let log_words_row ~name ~bound op =
  for i = 0 to 999 do op i done;
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 1_000 to 999 + iters do op i done;
  let words = (Gc.minor_words () -. w0) /. float_of_int iters in
  if words > bound then
    failwith (Printf.sprintf "%s: %.1f minor words/update > bound %.1f" name words bound);
  json_add "micro" [ ("name", Printf.sprintf "%S" name); ("minor_words_per_update", json_num words) ];
  [ name; Printf.sprintf "%.1f" words ]

let run_log_alloc () =
  let log = make_bench_log () in
  let append _ =
    ignore
      (Corona.State_log.append log ~kind:T.Append_update ~obj:"o" ~data:"0123456789"
         ~sender:"s" ~timestamp:0.0 ~on_durable:(fun _ -> ()))
  in
  let engine = Sim.Engine.create () in
  let host = Net.Fabric.add_host (Net.Fabric.create engine) ~name:"bench-disk" () in
  let disk = Storage.Disk.create host () in
  let replica =
    Corona.State_log.create ~group:"g" ~persistent:true
      ~wal:(Storage.Wal.create disk ~name:"g")
      ~checkpoints:(Storage.Snapshot.create disk ~name:"cks")
      ~policy:Corona.State_log.No_reduction ~initial:[] ()
  in
  let apply seqno =
    Corona.State_log.apply_sequenced replica
      { T.seqno; group = "g"; kind = T.Append_update; obj = "o"; data = "0123456789";
        sender = "s"; timestamp = 0.0 };
    Sim.Engine.run engine
  in
  Workload.Report.table
    ~header:[ "update log"; "minor w/update" ]
    [
      log_words_row ~name:"state-log append (long-lived log)" ~bound:log_append_words_bound
        append;
      log_words_row ~name:"state-log apply_sequenced (disk WAL)"
        ~bound:log_apply_words_bound apply;
    ]

(* Coordinator-directory rows: host ns and minor words per
   [Replication.Directory.join] while one group fills to [members], spread
   over three serving replicas (every join after the first three lands on a
   server that already has members). Each batch fills [groups] fresh groups
   of one directory; the time is the median of five batches, the words
   their mean. Gated: when a join does work that grows with the group (an
   appended join-order list, a replica set re-derived from every member),
   the words per join at 500 members exceed [directory_join_growth_bound]
   times those at 50. *)
let directory_join_growth_bound = 1.5

let directory_join_row ~members =
  let groups = max 1 (20_000 / members) in
  let names = Array.init members (Printf.sprintf "member-%d") in
  let servers = [| "s1"; "s2"; "s3" |] in
  let batch () =
    let d = Replication.Directory.create ~lock_table:(fun _ -> ignore) in
    let ids = Array.init groups (Printf.sprintf "g%d") in
    Array.iter
      (fun group ->
        ignore (Replication.Directory.add_group d ~group ~persistent:false ~first_holder:"s1"))
      ids;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun group ->
        for i = 0 to members - 1 do
          ignore
            (Replication.Directory.join d ~group ~member:names.(i) ~role:T.Principal
               ~notify:false ~server:servers.(i mod 3))
        done)
      ids;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Gc.minor_words () -. w0)
  in
  ignore (batch ());
  let runs = List.init 5 (fun _ -> batch ()) in
  let joins = float_of_int (groups * members) in
  let ns = List.nth (List.sort Float.compare (List.map fst runs)) 2 *. 1e9 /. joins in
  let words = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 runs /. (5.0 *. joins) in
  let name = Printf.sprintf "directory join @%d members" members in
  json_add "micro"
    [
      ("name", Printf.sprintf "%S" name);
      ("host_ns_per_join", json_num ns);
      ("minor_words_per_join", json_num words);
    ];
  (words, [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.1f" words ])

let run_directory_micro () =
  let small, small_row = directory_join_row ~members:50 in
  let large, large_row = directory_join_row ~members:500 in
  Workload.Report.table
    ~header:[ "coordinator directory"; "ns/join"; "minor w/join" ]
    [ small_row; large_row ];
  if large > directory_join_growth_bound *. small then
    failwith
      (Printf.sprintf "directory join: %.1f minor words/join at 500 members > %.1fx %.1f at 50"
         large directory_join_growth_bound small)

(* Membership-notification rows: wire bytes per subscriber when one member
   joins a group of [subscribers] members that all asked for change
   notifications: the join's bytes on the fabric, minus those of the same
   join into a group where nobody asked, over [subscribers]. Gated: a
   notification that carries the member list grows with the group, so the
   figure at 500 subscribers exceeds the one at 50 by more than the length
   of a member name. *)
let notify_joiner = "joiner"

let join_bytes ~subscribers ~notify =
  let tb = Workload.Testbed.single_server ~net:Net.Fabric.lan () in
  let open Workload.Testbed in
  let group = "watched" in
  let joiner = ref None in
  spawn_clients tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)
    ~n:subscribers
    (fun clients ->
      Corona.Client.create_group clients.(0) ~group
        ~k:(fun _ -> join_all clients ~group ~transfer:T.No_state ~notify ignore)
        ());
  Corona.Client.connect tb.s_fabric ~host:tb.s_client_hosts.(0) ~server:tb.s_server_host
    ~member:notify_joiner
    ~on_connected:(fun c -> joiner := Some c)
    ~on_failed:(fun () -> failwith "notify row: joiner failed to connect")
    ();
  run_until tb.s_engine (fun () -> false);
  let before = Net.Fabric.bytes_sent tb.s_fabric in
  Corona.Client.join (Option.get !joiner) ~group ~transfer:T.No_state ~notify:false
    ~k:ignore ();
  run_until tb.s_engine (fun () -> false);
  Net.Fabric.bytes_sent tb.s_fabric - before

let notify_join_row ~subscribers =
  let extra =
    join_bytes ~subscribers ~notify:true - join_bytes ~subscribers ~notify:false
  in
  let per = float_of_int extra /. float_of_int subscribers in
  let name = Printf.sprintf "join notification @%d subscribers" subscribers in
  json_add "micro"
    [ ("name", Printf.sprintf "%S" name); ("wire_bytes_per_subscriber", json_num per) ];
  (per, [ name; Printf.sprintf "%.1f" per ])

let run_notify_micro () =
  let small, small_row = notify_join_row ~subscribers:50 in
  let large, large_row = notify_join_row ~subscribers:500 in
  Workload.Report.table
    ~header:[ "membership notification"; "wire B/subscriber" ]
    [ small_row; large_row ];
  let bound = small +. float_of_int (String.length notify_joiner) in
  if large > bound then
    failwith
      (Printf.sprintf
         "join notification: %.1f wire bytes/subscriber at 500 subscribers > %.1f at 50 + \
          a member name (%.1f)"
         large small bound)

(* Join-reply rows: host ns to size one [Join_accepted] for a joiner of a
   [Membership] of [members] members, the way [Group_engine.accept_join]
   does, from the table's kept list length. The time is the median of five
   batches. Gated: a reply sized by walking its member list costs eight to
   ten times more at 500 members than at 50, so the figure at 500 may not exceed
   [join_reply_growth_bound] times the one at 50. *)
let join_reply_growth_bound = 3.0

let join_reply_row ~members =
  let ms = Corona.Membership.create () in
  for i = 0 to members - 1 do
    Corona.Membership.add ms ~member:(Printf.sprintf "member-%d" i) ~role:T.Principal
      ~notify:false ~joined_at:0.0 ~cell:{ Corona.Membership.conn = None }
  done;
  let state = Proto.Message.Snapshot { objects = []; log_tail = [] } in
  let per_batch = 200_000 in
  let sized = ref 0 in
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_batch do
      let e =
        Proto.Message.pre_encode_members
          ~members_size:(Corona.Membership.members_size ms)
          (Proto.Message.Join_accepted
             {
               group = "g";
               at_seqno = 0;
               state;
               members = Corona.Membership.members ms;
               multicast = false;
             })
      in
      sized := Proto.Message.encoded_wire_size e
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int per_batch
  in
  ignore (batch ());
  let ns = List.nth (List.sort Float.compare (List.init 5 (fun _ -> batch ()))) 2 in
  assert (!sized > 0);
  let name = Printf.sprintf "join reply sizing @%d members" members in
  json_add "micro" [ ("name", Printf.sprintf "%S" name); ("host_ns_per_reply", json_num ns) ];
  (ns, [ name; Printf.sprintf "%.1f" ns ])

let run_join_reply_micro () =
  let small, small_row = join_reply_row ~members:50 in
  let large, large_row = join_reply_row ~members:500 in
  Workload.Report.table ~header:[ "join reply"; "ns/reply" ] [ small_row; large_row ];
  if large > join_reply_growth_bound *. small then
    failwith
      (Printf.sprintf "join reply sizing: %.1f ns/reply at 500 members > %.1fx %.1f at 50"
         large join_reply_growth_bound small)

(* Event-loop row: the host cost of one pooled schedule + step pair with
   2000 events pending, the fan-out loop's steady state. Each event is a
   run of one over a one-slot times array, which the engine reads at the
   call. The loop reads the clock from its cell, as the hosts do, so the
   words count what the engine allocates per event. The time is the
   median of five batches. *)
let run_engine_micro () =
  let pending = 2000 and per_batch = 200_000 in
  let e = Sim.Engine.create () in
  let clock = Sim.Engine.clock e in
  let hits = ref 0 in
  let f (_ : int) = incr hits in
  let times = [| 0.0 |] in
  let delay i = float_of_int (i * 7919 mod 1000) in
  for i = 0 to pending - 1 do
    times.(0) <- delay i;
    Sim.Engine.schedule_run e ~times ~first:0 ~last:0 f
  done;
  let batch () =
    for i = 1 to per_batch do
      times.(0) <- clock.(0) +. delay i;
      Sim.Engine.schedule_run e ~times ~first:0 ~last:0 f;
      ignore (Sim.Engine.step e)
    done
  in
  batch ();
  let w0 = Gc.minor_words () in
  let ns =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        batch ();
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int per_batch)
  in
  let words = (Gc.minor_words () -. w0) /. float_of_int (5 * per_batch) in
  let ns = List.nth (List.sort Float.compare ns) 2 in
  assert (Sim.Engine.pending e = pending && !hits = 6 * per_batch);
  let name = "engine pooled step @2000 pending" in
  json_add "micro"
    [
      ("name", Printf.sprintf "%S" name);
      ("host_ns_per_event", json_num ns);
      ("minor_words_per_event", json_num words);
    ];
  Workload.Report.table
    ~header:[ "event loop"; "ns/event"; "minor w/event" ]
    [ [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.1f" words ] ]

let run_micro () =
  Workload.Report.section "Micro-benchmarks (Bechamel) — in-process hot paths";
  let open Bechamel in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      test "codec encode 1kB bcast" (fun () -> ignore (bench_encode ()));
      test "codec decode 1kB bcast" (fun () -> ignore (bench_decode ()));
      test "shared-state apply x100" (fun () -> ignore (bench_state_apply ()));
      test "state-log append x100" (fun () -> ignore (bench_log_append ()));
      test "holdback reorder x100" (fun () -> ignore (bench_holdback ~in_order:false ()));
      test "holdback in order x100" (fun () -> ignore (bench_holdback ~in_order:true ()));
      test "vclock tick+compare (16 sites)" (fun () -> ignore (bench_vclock ()));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.concat_map
      (fun t ->
        List.map
          (fun tst ->
            let m = Benchmark.run cfg [ instance ] tst in
            let est = Analyze.one ols instance m in
            let ns =
              match Analyze.OLS.estimates est with
              | Some [ v ] -> Some v
              | Some _ | None -> None
            in
            let name = Test.Elt.name tst in
            json_add "micro"
              [
                ("name", Printf.sprintf "%S" name);
                ("host_ns_per_run", match ns with Some v -> json_num v | None -> "null");
              ];
            [ name; (match ns with Some v -> Printf.sprintf "%.0f" v | None -> "n/a") ])
          (Test.elements t))
      tests
  in
  Workload.Report.table ~header:[ "benchmark"; "ns/run" ] rows;
  run_codec_alloc ();
  run_log_alloc ();
  run_directory_micro ();
  run_notify_micro ();
  run_join_reply_micro ();
  run_engine_micro ()

(* --- fan-out macro-benchmark -------------------------------------------- *)

(* One sequencer, [members] clients in one group, [bcasts] 1kB broadcasts
   from the first member. The encode counter proves the encode-once
   invariant: each logical broadcast costs one request encode on the sending
   client plus exactly one Deliver encode on the server, however many
   recipients the fan-out reaches. *)
let fanout_world ~members ~bcasts ~multicast =
  let config = { Corona.Server.default_config with use_ip_multicast = multicast } in
  let tb = Workload.Testbed.single_server ~net:Net.Fabric.lan ~config () in
  let open Workload.Testbed in
  let group = "fan" in
  let the_clients = ref [||] in
  spawn_clients tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)
    ~n:members
    (fun clients ->
      Corona.Client.create_group clients.(0) ~group ~persistent:false
        ~k:(fun _ ->
          join_all clients ~group ~transfer:T.No_state (fun () ->
            the_clients := clients))
        ());
  run_until tb.s_engine (fun () -> false);
  let clients = !the_clients in
  assert (Array.length clients = members);
  let encodes_before = Proto.Message.encode_count () in
  (* Drop garbage from setup (and, when run after the micro group, from
     Bechamel) so the timed window measures the fan-out, not a major GC. *)
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  for i = 0 to bcasts - 1 do
    ignore
      (Sim.Engine.schedule tb.s_engine
         ~delay:(0.01 *. float_of_int i)
         (fun () ->
           Corona.Client.bcast_update clients.(0) ~group ~obj:"o"
             ~data:(String.make 1000 'x') ~mode:T.Sender_inclusive ()))
  done;
  run_until tb.s_engine (fun () -> false);
  let wall = Unix.gettimeofday () -. wall0 in
  (* Allocation pressure of the fan-out path: minor-heap words per logical
     broadcast (the whole world — server, clients, simulator — shares the
     runtime, so this is the end-to-end figure). *)
  let minor_words_per_bcast = (Gc.minor_words () -. minor0) /. float_of_int bcasts in
  let encodes = Proto.Message.encode_count () - encodes_before in
  (* Subtract the [bcasts] client-side request encodes; what remains is the
     server's fan-out cost per logical broadcast. *)
  let fanout_encodes_per_bcast = float_of_int (encodes - bcasts) /. float_of_int bcasts in
  let st = Corona.Server.stats tb.s_server in
  ( wall /. float_of_int bcasts *. 1e9,
    fanout_encodes_per_bcast,
    st.Corona.Server.deliveries_sent,
    st.Corona.Server.responses_sent,
    minor_words_per_bcast )

(* The codec work alone, out of the simulator: what the seed server did per
   300-member broadcast (a [wire_size] encode for stats plus a fresh encode
   in [send], per recipient) against the encode-once discipline (one
   [pre_encode], recipients reuse the bytes and the memoized size). *)
let codec_path_pair ~members =
  let deliver = Proto.Message.Response (Proto.Message.Deliver sample_update) in
  let seed_path () =
    let bytes = ref 0 in
    for _ = 1 to members do
      bytes := !bytes + Proto.Message.wire_size deliver;
      let w = Proto.Codec.Writer.create () in
      Proto.Message.encode w deliver;
      ignore (Proto.Codec.Writer.size w)
    done;
    !bytes
  in
  let encode_once () =
    let e = Proto.Message.pre_encode deliver in
    let bytes = ref 0 in
    for _ = 1 to members do
      bytes := !bytes + Proto.Message.encoded_wire_size e
    done;
    !bytes
  in
  assert (seed_path () = encode_once ());
  (* Minimum over batches: immune to GC pauses and to whatever heap shape a
     preceding experiment left behind. *)
  let time f =
    Gc.compact ();
    for _ = 1 to 5 do ignore (f ()) done;
    let best = ref infinity in
    for _ = 1 to 30 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 10 do ignore (f ()) done;
      let per_call = (Unix.gettimeofday () -. t0) /. 10.0 in
      if per_call < !best then best := per_call
    done;
    !best *. 1e9
  in
  (time seed_path, time encode_once)

let run_fanout () =
  Workload.Report.section
    "Fan-out macro-benchmark — 300-member group, 1kB broadcasts, encode-once";
  let members = 300 in
  let bcasts = if !quick then 30 else 100 in
  let seed_ns, once_ns = codec_path_pair ~members in
  Workload.Report.note
    "codec path per broadcast (x%d recipients): seed discipline %.0f ns, encode-once %.0f ns (%.1fx)"
    members seed_ns once_ns (seed_ns /. once_ns);
  json_add "fanout"
    [
      ("name", "\"codec-path x300\"");
      ("host_seed_ns_per_bcast", json_num seed_ns);
      ("host_encode_once_ns_per_bcast", json_num once_ns);
      ("speedup", Printf.sprintf "%.1f" (seed_ns /. once_ns));
    ];
  let rows =
    List.map
      (fun (label, multicast) ->
        (* Best of five trials: the wall clock shares the machine with
           whatever else is running; the minimum is the least-perturbed
           sample. The simulator-side numbers are identical across trials
           (the worlds are deterministic), so only ns/bcast varies. *)
        let trials =
          List.init 5 (fun _ -> fanout_world ~members ~bcasts ~multicast)
        in
        let ns, enc, deliveries, responses, minor_words =
          List.fold_left
            (fun (bns, _, _, _, _ as best) (ns, _, _, _, _ as trial) ->
              if ns < bns then trial else best)
            (List.hd trials) (List.tl trials)
        in
        (* Allocation-regression gate: the fan-out path must stay at least
           5x below the baseline measured before its hot loop was made
           allocation-free (30399 minor words/bcast p2p, 19917 multicast). *)
        let baseline = if multicast then 19917.0 else 30399.0 in
        if minor_words > 0.2 *. baseline then
          failwith
            (Printf.sprintf
               "fanout (%s): %.0f minor words/bcast > 0.2x baseline %.0f —\
                allocation regression on the fan-out path"
               label minor_words baseline);
        json_add "fanout"
          [
            ("name", Printf.sprintf "%S" label);
            ("members", string_of_int members);
            ("bcasts", string_of_int bcasts);
            ("host_ns_per_bcast", json_num ns);
            ("minor_words_per_bcast", json_num minor_words);
            ("fanout_encodes_per_bcast", Printf.sprintf "%.2f" enc);
            ("deliveries_sent", string_of_int deliveries);
            ("responses_sent", string_of_int responses);
          ];
        [
          label;
          Printf.sprintf "%.0f" ns;
          Printf.sprintf "%.0f" minor_words;
          Printf.sprintf "%.2f" enc;
          string_of_int deliveries;
          string_of_int responses;
        ])
      [ ("p2p", false); ("multicast", true) ]
  in
  Workload.Report.table
    ~header:
      [ "delivery"; "ns/bcast"; "minor w/bcast"; "fan-out encodes/bcast"; "deliveries";
        "responses" ]
    rows;
  Workload.Report.note
    "fan-out encodes/bcast must be 1.00: one pre-encoded Deliver shared by all recipients.";
  Workload.Report.note
    "minor w/bcast gated at <= 0.2x the pre-allocation-free baseline (30399 p2p / 19917 mcast)."

(* --- scaling sweep ------------------------------------------------------ *)

(* Connect [n] clients with starts staggered 1 ms apart: ten thousand
   simultaneous SYNs against one serialized server CPU would blow TCP's 5 s
   handshake timeout, and real load generators ramp up anyway. *)
let spawn_clients_staggered engine fabric ~hosts ~server_for ~n k =
  let clients = Array.make n None in
  let connected = ref 0 in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(0.001 *. float_of_int i)
         (fun () ->
           Corona.Client.connect fabric
             ~host:hosts.(i mod Array.length hosts)
             ~server:(server_for i)
             ~member:(Printf.sprintf "s%d" i)
             ~on_connected:(fun cl ->
               clients.(i) <- Some cl;
               incr connected;
               if !connected = n then k (Array.map Option.get clients))
             ~on_failed:(fun () ->
               failwith (Printf.sprintf "scale: client %d failed to connect" i))
             ()))
  done

(* One deployment data point: [members] clients in one group, [bcasts] 1kB
   broadcasts from the last-joined member. The measured window covers only
   the broadcast phase; connect and join setup is excluded. Reported:
   wall-clock ns per logical broadcast and simulator events/second — the
   substrate-scalability numbers the 10k-client experiments depend on. *)
let scale_point ~label ~members ~bcasts ~engine ~fabric ~hosts ~server_for =
  Workload.Report.note "measuring %s at %d members..." label members;
  let group = "scale" in
  let probe = ref None in
  spawn_clients_staggered engine fabric ~hosts ~server_for ~n:members
    (fun clients ->
      Corona.Client.create_group clients.(0) ~group ~persistent:false
        ~k:(fun _ ->
          Workload.Testbed.join_all clients ~group ~transfer:T.No_state (fun () ->
              probe := Some clients.(members - 1)))
        ());
  Workload.Testbed.run_until engine (fun () -> !probe <> None);
  let probe =
    match !probe with Some c -> c | None -> failwith "scale: setup stalled"
  in
  let received = ref 0 in
  Corona.Client.set_on_event probe (fun _ ev ->
      match ev with Corona.Client.Delivered _ -> incr received | _ -> ());
  let events0 = Sim.Engine.events_fired engine in
  let batches0 = Net.Fabric.batches_sent fabric in
  (* Drop join-wave garbage so the timed window measures the broadcast
     phase, not a major GC inherited from setup. *)
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  for i = 0 to bcasts - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(0.05 *. float_of_int i)
         (fun () ->
           Corona.Client.bcast_update probe ~group ~obj:"o"
             ~data:(String.make 1000 'x') ~mode:T.Sender_inclusive ()))
  done;
  Workload.Testbed.run_until engine (fun () -> !received >= bcasts);
  (* Let the tail of the last fan-out drain so the event count covers every
     recipient, not just the probe. *)
  let settle = Sim.Engine.now engine +. 0.5 in
  Workload.Testbed.run_until engine (fun () -> Sim.Engine.now engine > settle);
  let wall = Unix.gettimeofday () -. wall0 in
  let minor_words_per_bcast = (Gc.minor_words () -. minor0) /. float_of_int bcasts in
  let events = Sim.Engine.events_fired engine - events0 in
  let batches = Net.Fabric.batches_sent fabric - batches0 in
  if batches = 0 then
    failwith (Printf.sprintf "scale %s/%d: batched fan-out path never used" label members);
  let ns_per_bcast = wall /. float_of_int bcasts *. 1e9 in
  let events_per_sec = float_of_int events /. wall in
  scale_add "scale"
    [
      ("deployment", Printf.sprintf "%S" label);
      ("members", string_of_int members);
      ("bcasts", string_of_int bcasts);
      ("host_ns_per_bcast", json_num ns_per_bcast);
      ("minor_words_per_bcast", json_num minor_words_per_bcast);
      ("host_events_per_sec", json_num events_per_sec);
      ("sim_events", string_of_int events);
      ("batches", string_of_int batches);
    ];
  [
    label;
    string_of_int members;
    Printf.sprintf "%.0f" ns_per_bcast;
    Printf.sprintf "%.0f" minor_words_per_bcast;
    Printf.sprintf "%.2fM" (events_per_sec /. 1e6);
    string_of_int events;
    string_of_int batches;
  ]

let scale_single ~members ~bcasts =
  let tb =
    Workload.Testbed.single_server ~net:Net.Fabric.lan ~client_machines:12 ()
  in
  let open Workload.Testbed in
  scale_point ~label:"single" ~members ~bcasts ~engine:tb.s_engine
    ~fabric:tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)

let scale_replicated ~members ~bcasts =
  (* Quiet failure detector: at thousands of members the per-join O(members)
     membership updates keep every replica CPU busy for multiples of the
     default 1.6 s failure timeout, and a spurious election mid-join-phase
     would measure failover, not the substrate. No faults are injected here,
     so the detector has nothing legitimate to find. *)
  let config =
    {
      Replication.Node.default_config with
      Replication.Node.heartbeat_interval = 30.0;
      failure_timeout = 1.0e6;
    }
  in
  let tb =
    Workload.Testbed.replicated ~net:Net.Fabric.lan ~config ~replicas:6
      ~client_machines:12 ()
  in
  let open Workload.Testbed in
  let replica_host i =
    Replication.Node.host (Replication.Cluster.replica_for tb.r_cluster i)
  in
  scale_point ~label:"replicated" ~members ~bcasts ~engine:tb.r_engine
    ~fabric:tb.r_fabric ~hosts:tb.r_client_hosts ~server_for:replica_host

let run_scale () =
  Workload.Report.section
    "Scaling sweep — members vs wall-clock cost, single and replicated";
  let sizes =
    match Sys.getenv_opt "SCALE_SIZES" with
    | Some s -> List.map int_of_string (String.split_on_char ',' s)
    | None ->
        if !smoke then [ 100 ]
        else if !quick then [ 100; 300; 1000 ]
        else [ 100; 300; 1000; 3000; 10000 ]
  in
  let bcasts = if !smoke || !quick then 10 else 20 in
  let rows =
    List.concat_map
      (fun members ->
        [
          scale_single ~members ~bcasts;
          scale_replicated ~members ~bcasts;
        ])
      sizes
  in
  Workload.Report.table
    ~header:
      [ "deployment"; "members"; "ns/bcast"; "minor w/bcast"; "events/s"; "sim events";
        "batches" ]
    rows;
  Workload.Report.note
    "batches > 0 proves the batched fan-out transmit is on the hot path."

(* --- sharded sequencing sweep ------------------------------------------- *)

(* Partition ordering, measured. [members] clients form groups of eight with
   one writer each; the deterministic keyspace map spreads the groups'
   seqno streams over the shard owners, so broadcast completion is bound by
   the busiest sequencer CPU. [shards = 1] funnels every group through the
   single classic sequencer — the baseline the speedup is against. The
   clock is virtual: wall time measures this machine, virtual time measures
   the deployment. *)
let sharded_point ~members ~shards ~bcasts_per_writer =
  let per_group = 8 in
  let groups = members / per_group in
  (* Same quiet failure detector as [scale_replicated], same reason. *)
  let config =
    {
      Replication.Node.default_config with
      Replication.Node.heartbeat_interval = 30.0;
      failure_timeout = 1.0e6;
      shards;
    }
  in
  let tb =
    Workload.Testbed.replicated ~net:Net.Fabric.lan ~config ~replicas:6
      ~client_machines:12 ()
  in
  let open Workload.Testbed in
  let engine = tb.r_engine in
  let replica_host i =
    Replication.Node.host (Replication.Cluster.replica_for tb.r_cluster i)
  in
  let gname g = Printf.sprintf "sg%d" g in
  let ready = ref 0 in
  let all = ref [||] in
  spawn_clients_staggered engine tb.r_fabric ~hosts:tb.r_client_hosts
    ~server_for:replica_host ~n:members (fun clients ->
      all := clients;
      for g = 0 to groups - 1 do
        let slice = Array.sub clients (g * per_group) per_group in
        Corona.Client.create_group slice.(0) ~group:(gname g) ~persistent:false
          ~k:(fun _ ->
            join_all slice ~group:(gname g) ~transfer:T.No_state (fun () ->
                incr ready))
          ()
      done);
  run_until engine (fun () -> !ready = groups);
  let clients = !all in
  let received = ref 0 in
  for g = 0 to groups - 1 do
    let probe = clients.((g * per_group) + per_group - 1) in
    Corona.Client.set_on_event probe (fun _ ev ->
        match ev with
        | Corona.Client.Delivered _ | Corona.Client.Shard_delivered _ ->
            incr received
        | _ -> ())
  done;
  let total = groups * bcasts_per_writer in
  let events0 = Sim.Engine.events_fired engine in
  Gc.compact ();
  let wall0 = Unix.gettimeofday () in
  let t0 = Sim.Engine.now engine in
  (* Every writer fires at once (2 ms between its own updates): the burst is
     what exposes the sequencer bottleneck that pacing would mask. *)
  for g = 0 to groups - 1 do
    let writer = clients.(g * per_group) in
    let group = gname g in
    for b = 0 to bcasts_per_writer - 1 do
      ignore
        (Sim.Engine.schedule engine
           ~delay:(0.002 *. float_of_int b)
           (fun () ->
             Corona.Client.bcast_update writer ~group ~obj:"o"
               ~data:(String.make 1000 'x') ~mode:T.Sender_inclusive ()))
    done
  done;
  run_until engine (fun () -> !received >= total);
  let span = Sim.Engine.now engine -. t0 in
  let wall = Unix.gettimeofday () -. wall0 in
  let events = Sim.Engine.events_fired engine - events0 in
  let us_per_bcast = span /. float_of_int total *. 1e6 in
  scale_add "sharded"
    [
      ("members", string_of_int members);
      ("groups", string_of_int groups);
      ("shards", string_of_int shards);
      ("bcasts", string_of_int total);
      ("us_per_bcast", json_num us_per_bcast);
      ("virtual_span_s", Printf.sprintf "%.4f" span);
      ("sim_events", string_of_int events);
      ("host_wall_s", Printf.sprintf "%.2f" wall);
    ];
  (us_per_bcast, span, events)

let run_sharded () =
  Workload.Report.section
    "Sharded sequencing sweep — per-shard owners vs the single sequencer";
  let sizes =
    if !smoke then [ 96 ]
    else if !quick then [ 96; 1000 ]
    else [ 96; 1000; 10_000 ]
  in
  let bcasts_per_writer = if !smoke || !quick then 2 else 4 in
  let rows =
    List.concat_map
      (fun members ->
        let baseline = ref nan in
        List.map
          (fun shards ->
            Workload.Report.note "measuring %d members at %d shard(s)..." members
              shards;
            let us, span, events = sharded_point ~members ~shards ~bcasts_per_writer in
            if shards = 1 then baseline := us;
            let speedup = !baseline /. us in
            (* The tentpole's acceptance bar: at 10k members, four or more
               shards must at least halve the per-broadcast cost of the
               single-sequencer replicated deployment. *)
            if members >= 10_000 && shards >= 4 && speedup < 2.0 then
              failwith
                (Printf.sprintf
                   "sharded %d/%d: %.1f us/bcast vs baseline %.1f — speedup %.2fx < 2x"
                   members shards us !baseline speedup);
            [
              string_of_int members;
              string_of_int shards;
              Printf.sprintf "%.1f" us;
              Printf.sprintf "%.3f s" span;
              Printf.sprintf "%.2fx" speedup;
              string_of_int events;
            ])
          [ 1; 2; 4; 8 ])
      sizes
  in
  Workload.Report.table
    ~header:[ "members"; "shards"; "us/bcast"; "virtual span"; "speedup"; "sim events" ]
    rows;
  Workload.Report.note
    "speedup is virtual-time us/bcast relative to shards=1 at the same size."

(* --- hierarchical relay fan-out sweep ----------------------------------- *)

(* The relay tier's claim, measured end to end: with [relays] edge relays
   each fronting a contiguous slice of a huge group, a broadcast costs the
   root one pre-encoded [Relay_fanout] frame per relay instead of one
   [Deliver] per member. [relays = 0] runs the flat baseline — the same
   size connected straight to the root — so the root-transmit reduction is
   measured in-run, not assumed. *)
type relay_result = {
  ns_per_bcast : float;
  root_tx_per_bcast : float;
  minor_words_per_bcast : float;
  setup_virt_s : float; (* virtual time until the last member has joined *)
  join_bytes : float;
      (* fabric bytes per join over the join phase: the Join request plus
         the Join_accepted reply (no member asks for notifications) *)
}

let relay_world ?(lean_joins = true) ~members ~relays ~bcasts () =
  (* lean joins: at 10^5 members an O(members) membership list per
     Join_accepted would make setup quadratic; the relay tier targets
     exactly the deployments that opt out of it *)
  let config = { Corona.Server.default_config with lean_joins } in
  let tb =
    Workload.Testbed.single_server ~net:Net.Fabric.lan ~config ~client_machines:12 ()
  in
  let open Workload.Testbed in
  let engine = tb.s_engine in
  let ready = ref 0 in
  let relay_hosts =
    Array.init relays (fun i ->
        let name = Printf.sprintf "relay-%d" i in
        let host = Net.Fabric.add_host tb.s_fabric ~name () in
        ignore
          (Corona.Relay.create tb.s_fabric host ~relay:name ~root:tb.s_server_host
             ~on_ready:(fun _ -> incr ready)
             ~on_failed:(fun () -> failwith (name ^ ": root unreachable"))
             ());
        host)
  in
  run_until engine (fun () -> !ready = relays);
  let server_for =
    if relays = 0 then fun _ -> tb.s_server_host
    else fun i -> relay_hosts.(Corona.Membership.slice_owner ~relays ~members i)
  in
  let group = "huge" in
  let probe = ref None in
  let setup_virt_s = ref 0.0 and join_bytes = ref 0 in
  spawn_clients_staggered engine tb.s_fabric ~hosts:tb.s_client_hosts ~server_for
    ~n:members (fun clients ->
      Corona.Client.create_group clients.(0) ~group ~persistent:false
        ~k:(fun _ ->
          let bytes0 = Net.Fabric.bytes_sent tb.s_fabric in
          Workload.Testbed.join_all clients ~group ~transfer:T.No_state (fun () ->
              setup_virt_s := Sim.Engine.now engine;
              join_bytes := Net.Fabric.bytes_sent tb.s_fabric - bytes0;
              probe := Some clients.(members - 1)))
        ());
  run_until engine (fun () -> !probe <> None);
  let probe =
    match !probe with Some c -> c | None -> failwith "relay: setup stalled"
  in
  let received = ref 0 in
  Corona.Client.set_on_event probe (fun _ ev ->
      match ev with Corona.Client.Delivered _ -> incr received | _ -> ());
  let st0 = Corona.Server.stats tb.s_server in
  Gc.compact ();
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  for i = 0 to bcasts - 1 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(0.05 *. float_of_int i)
         (fun () ->
           Corona.Client.bcast_update probe ~group ~obj:"o"
             ~data:(String.make 1000 'x') ~mode:T.Sender_inclusive ()))
  done;
  run_until engine (fun () -> !received >= bcasts);
  (* Drain the fan-out tail so the transmit counters cover every recipient,
     not just the probe. *)
  let settle = Sim.Engine.now engine +. 0.5 in
  run_until engine (fun () -> Sim.Engine.now engine > settle);
  let wall = Unix.gettimeofday () -. wall0 in
  let minor_words_per_bcast = (Gc.minor_words () -. minor0) /. float_of_int bcasts in
  let st = Corona.Server.stats tb.s_server in
  let frames =
    st.Corona.Server.relay_frames_sent - st0.Corona.Server.relay_frames_sent
  in
  let direct = st.Corona.Server.deliveries_sent - st0.Corona.Server.deliveries_sent in
  let root_tx_per_bcast = float_of_int (frames + direct) /. float_of_int bcasts in
  (* The frame bound, asserted on every run: one shared Relay_fanout frame
     per relay per broadcast, never more. *)
  if relays > 0 && root_tx_per_bcast > float_of_int relays +. 0.001 then
    failwith
      (Printf.sprintf "relay %d/%d: %.2f root transmits/bcast > relay count" members
         relays root_tx_per_bcast);
  {
    ns_per_bcast = wall /. float_of_int bcasts *. 1e9;
    root_tx_per_bcast;
    minor_words_per_bcast;
    setup_virt_s = !setup_virt_s;
    join_bytes = float_of_int !join_bytes /. float_of_int members;
  }

(* [lean_joins] on and off in the flat world, at a size where the full
   member list per Join_accepted still finishes: the list is the only
   difference, so the bytes per join and the set-up time show what eliding
   it saves. *)
let run_lean_joins_row () =
  let members = if !smoke then 200 else 2_000 in
  Workload.Report.note "measuring lean joins on/off, %d members flat..." members;
  let rows =
    List.map
      (fun lean_joins ->
        let r = relay_world ~lean_joins ~members ~relays:0 ~bcasts:3 () in
        scale_add "relay_lean_joins"
          [
            ("members", string_of_int members);
            ("lean_joins", string_of_bool lean_joins);
            ("virt_setup_s", json_num r.setup_virt_s);
            ("join_bytes", json_num r.join_bytes);
          ];
        [
          string_of_int members;
          (if lean_joins then "on" else "off");
          Printf.sprintf "%.3f" r.setup_virt_s;
          Printf.sprintf "%.0f" r.join_bytes;
        ])
      [ true; false ]
  in
  Workload.Report.table
    ~header:[ "members"; "lean_joins"; "virtual set-up s"; "bytes/join" ]
    rows;
  Workload.Report.note
    "bytes/join counts the Join request and its Join_accepted reply; only the reply's \
     member list differs."

let run_relay () =
  Workload.Report.section
    "Hierarchical relay fan-out — root transmits O(relays), not O(members)";
  let relays = 32 in
  let sizes =
    match Sys.getenv_opt "RELAY_SIZES" with
    | Some s -> List.map int_of_string (String.split_on_char ',' s)
    | None ->
        if !smoke then [ 100_000 ]
        else if !quick then [ 10_000 ]
        else [ 10_000; 100_000 ]
  in
  let rows =
    List.map
      (fun members ->
        let bcasts = if members >= 100_000 then 3 else if !quick then 5 else 10 in
        Workload.Report.note "measuring %d members behind %d relays..." members relays;
        let r = relay_world ~members ~relays ~bcasts () in
        let r_ns, r_tx, r_minor =
          (r.ns_per_bcast, r.root_tx_per_bcast, r.minor_words_per_bcast)
        in
        (* Flat baseline at the 10k point (at 100k+ a per-member flat
           fan-out is exactly the cost the tier exists to avoid paying):
           the acceptance bar is a >= 5x root-transmit reduction. *)
        let flat =
          if members <= 10_000 then begin
            Workload.Report.note "measuring %d members flat (no relays)..." members;
            let f = relay_world ~members ~relays:0 ~bcasts () in
            let f_ns, f_tx = (f.ns_per_bcast, f.root_tx_per_bcast) in
            let ratio = f_tx /. r_tx in
            if ratio < 5.0 then
              failwith
                (Printf.sprintf
                   "relay %d: root-transmit reduction %.1fx < 5x (flat %.1f vs relay %.1f tx/bcast)"
                   members ratio f_tx r_tx);
            Some (f_ns, f_tx, ratio)
          end
          else None
        in
        scale_add "relay"
          ([
             ("members", string_of_int members);
             ("relays", string_of_int relays);
             ("bcasts", string_of_int bcasts);
             ("root_tx_per_bcast", Printf.sprintf "%.2f" r_tx);
             ("host_ns_per_bcast", json_num r_ns);
             ("minor_words_per_bcast", json_num r_minor);
           ]
          @
          match flat with
          | None -> []
          | Some (f_ns, f_tx, ratio) ->
              [
                ("flat_root_tx_per_bcast", Printf.sprintf "%.2f" f_tx);
                ("host_flat_ns_per_bcast", json_num f_ns);
                ("root_tx_reduction", Printf.sprintf "%.1f" ratio);
              ]);
        [
          string_of_int members;
          string_of_int relays;
          Printf.sprintf "%.1f" r_tx;
          (match flat with Some (_, f_tx, _) -> Printf.sprintf "%.0f" f_tx | None -> "-");
          (match flat with Some (_, _, ratio) -> Printf.sprintf "%.0fx" ratio | None -> "-");
          Printf.sprintf "%.0f" r_ns;
          Printf.sprintf "%.0f" r_minor;
        ])
      sizes
  in
  Workload.Report.table
    ~header:
      [ "members"; "relays"; "root tx/bcast"; "flat tx/bcast"; "reduction"; "ns/bcast";
        "minor w/bcast" ]
    rows;
  Workload.Report.note
    "root tx/bcast is bounded by the relay count: one shared pre-encoded frame per relay.";
  run_lean_joins_row ()

(* --- join-storm + durable-multicast sweep (BENCH_transfer.json) --------- *)

(* The PR-5 perf claims, measured: a join storm must amortize snapshot
   encodes through the transfer cache (hits >> misses), and small-record
   durable multicast must group-commit (few seeks for many records). Both
   are asserted, in smoke and full runs alike. *)
let run_transfer_sweep () =
  Workload.Report.section
    "Join-storm snapshot cache + WAL group commit (BENCH_transfer.json)";
  let sizes =
    if !smoke then [ 100 ]
    else if !quick then [ 100; 500 ]
    else [ 100; 500; 1000; 2000 ]
  in
  let storm_rows =
    List.map
      (fun members ->
        let r = Workload.Exp_transfer.join_storm ~members () in
        let open Workload.Exp_transfer in
        let ratio = float_of_int r.st_members /. float_of_int (max 1 r.st_misses) in
        if r.st_hits = 0 then
          failwith (Printf.sprintf "storm %d: no cache hit during join storm" members);
        if ratio < 2.0 then
          failwith
            (Printf.sprintf "storm %d: encode-work ratio %.1f < 2 (misses %d)" members
               ratio r.st_misses);
        transfer_add "join_storm"
          [
            ("members", string_of_int r.st_members);
            ("cache_hits", string_of_int r.st_hits);
            ("cache_misses", string_of_int r.st_misses);
            ("encode_work_ratio", Printf.sprintf "%.1f" ratio);
            ("storm_virtual_s", Printf.sprintf "%.4f" r.st_span);
            ("state_bytes", string_of_int r.st_bytes);
            ("minor_words_per_join", json_num r.st_minor_words_per_join);
          ];
        [
          string_of_int r.st_members;
          string_of_int r.st_hits;
          string_of_int r.st_misses;
          Printf.sprintf "%.0fx" ratio;
          Printf.sprintf "%.0f ms" (r.st_span *. 1e3);
          Workload.Report.fbytes r.st_bytes;
          Printf.sprintf "%.0f" r.st_minor_words_per_join;
        ])
      sizes
  in
  Workload.Report.table
    ~header:
      [ "joiners"; "cache hits"; "misses"; "encode work saved"; "storm span"; "bytes";
        "minor w/join" ]
    storm_rows;
  Workload.Report.note
    "misses track state versions the mid-storm writer produces, not joiner count.";
  let records = if !smoke then 80 else 200 in
  let durable_rows =
    List.map
      (fun size ->
        let open Workload.Exp_transfer in
        let off = durable_multicast ~size ~records ~batching:None () in
        let on_ =
          durable_multicast ~size ~records ~batching:(Some Storage.Wal.default_batch) ()
        in
        let speedup = on_.du_rps /. off.du_rps in
        if on_.du_max_batch < 2 then
          failwith
            (Printf.sprintf "durable %dB: no multi-record batch committed" size);
        if speedup < 3.0 then
          failwith
            (Printf.sprintf "durable %dB: group-commit speedup %.1fx < 3x" size speedup);
        transfer_add "durable_multicast"
          [
            ("record_bytes", string_of_int size);
            ("records", string_of_int records);
            ("rps_per_record_seek", Printf.sprintf "%.1f" off.du_rps);
            ("rps_group_commit", Printf.sprintf "%.1f" on_.du_rps);
            ("speedup", Printf.sprintf "%.1f" speedup);
            ("physical_writes", string_of_int on_.du_physical_writes);
            ("records_committed", string_of_int on_.du_records_committed);
            ("max_batch_records", string_of_int on_.du_max_batch);
            ("minor_words_per_bcast", json_num on_.du_minor_words_per_bcast);
          ];
        [
          string_of_int size;
          Printf.sprintf "%.0f" off.du_rps;
          Printf.sprintf "%.0f" on_.du_rps;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%d/%d" on_.du_physical_writes on_.du_records_committed;
          string_of_int on_.du_max_batch;
          Printf.sprintf "%.0f" on_.du_minor_words_per_bcast;
        ])
      [ 64; 256 ]
  in
  Workload.Report.table
    ~header:
      [ "record B"; "rec/s (seek each)"; "rec/s (batched)"; "speedup"; "writes/records";
        "max batch"; "minor w/bcast" ]
    durable_rows;
  Workload.Report.note
    "Sync_logging fan-out waits for durability: throughput is seeks, not bytes."

(* --- experiment registry ------------------------------------------------ *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("micro", "Bechamel micro-benchmarks", run_micro);
    ("fanout", "300-member fan-out macro-benchmark (encode-once)", run_fanout);
    ("scale", "Scaling sweep: 100 -> 10k members, single + replicated", run_scale);
    ( "sharded",
      "Sharded sequencing sweep: shard owners vs single sequencer",
      run_sharded );
    ( "relay",
      "Hierarchical relay fan-out: 10k -> 100k members behind 32 relays",
      run_relay );
    ("transfer", "Join-storm snapshot cache + WAL group commit", run_transfer_sweep);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" || a = "-q" then begin
          quick := true;
          false
        end
        else if a = "--smoke" then begin
          (* CI stage: smallest sizes, no BENCH_*.json rewrite. *)
          smoke := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] -> List.map (fun (name, _, _) -> name) experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (_, _, run) -> run ()
      | None ->
          Format.printf "unknown experiment %S; available:@." name;
          List.iter
            (fun (n, descr, _) -> Format.printf "  %-14s %s@." n descr)
            experiments;
          exit 1)
    selected;
  (* A smoke run checks that each sweep still runs end to end; its sizes
     are not measurements, so it leaves every BENCH_*.json as it was. *)
  if not !smoke then write_json_results ();
  Format.printf "@.done: %d experiment group(s).@." (List.length selected)
