(* Tests for the experiment harness itself: report formatting, testbed
   helpers, and tiny-scale sanity runs of each experiment's measurement
   function (these guard the bench harness against regressions without
   paying full sweep costs). *)

module T = Proto.Types

(* --- report -------------------------------------------------------------- *)

let capture f =
  let buf = Buffer.create 256 in
  let old = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buf) (fun () -> ());
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      let out, flush = old in
      Format.set_formatter_output_functions out flush)
    f;
  Buffer.contents buf

let test_report_table_alignment () =
  let out =
    capture (fun () ->
        Workload.Report.table ~header:[ "name"; "value" ]
          [ [ "a"; "1" ]; [ "long-name"; "22" ] ])
  in
  let lines = String.split_on_char '\n' out in
  (* All non-empty lines are equally indented and at least as wide as the
     longest cell. *)
  List.iter
    (fun l ->
      if l <> "" then
        Alcotest.(check bool) "indented" true (String.length l > 2 && l.[0] = ' '))
    lines;
  Alcotest.(check bool) "has underline" true
    (List.exists (fun l -> String.length l > 0 && String.contains l '-') lines)

let test_report_units () =
  Alcotest.(check string) "ms" "12.3" (Workload.Report.ms 0.01234);
  Alcotest.(check string) "kbs" "600" (Workload.Report.kbs 600_000.);
  Alcotest.(check string) "bytes" "512 B" (Workload.Report.fbytes 512);
  Alcotest.(check string) "kbytes" "2.0 kB" (Workload.Report.fbytes 2_000);
  Alcotest.(check string) "mbytes" "1.5 MB" (Workload.Report.fbytes 1_500_000)

(* --- testbed -------------------------------------------------------------- *)

let test_spawn_and_join_order () =
  let tb = Workload.Testbed.single_server () in
  let joined = ref [] in
  Workload.Testbed.spawn_clients tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)
    ~n:5 ~prefix:"m"
    (fun cls ->
      Alcotest.(check int) "all connected" 5 (Array.length cls);
      Corona.Client.create_group cls.(0) ~group:"g" ~k:(fun _ -> ()) ();
      Workload.Testbed.join_all cls ~group:"g" (fun () ->
          joined := List.map Corona.Client.member (Array.to_list cls)));
  Sim.Engine.run tb.s_engine;
  Alcotest.(check (list string)) "joined strictly in order"
    [ "m0"; "m1"; "m2"; "m3"; "m4" ] !joined;
  (* Fan-out order = join order: the probe (last joiner) is served last. *)
  Alcotest.(check (list string)) "server membership order"
    [ "m0"; "m1"; "m2"; "m3"; "m4" ]
    (List.map (fun (m : T.member) -> m.member)
       (Corona.Server.group_members tb.s_server "g"))

let test_paced_probe_counts () =
  let tb = Workload.Testbed.single_server () in
  let stats = ref None in
  Workload.Testbed.spawn_clients tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)
    ~n:2
    (fun cls ->
      Corona.Client.create_group cls.(0) ~group:"g" ~k:(fun _ -> ()) ();
      Workload.Testbed.join_all cls ~group:"g" (fun () ->
          Workload.Testbed.paced_probe tb.s_engine ~probe:cls.(1) ~group:"g"
            ~size:500 ~period:0.05 ~count:25
            ~on_done:(fun s -> stats := Some s)));
  Sim.Engine.run tb.s_engine;
  let s = Option.get !stats in
  Alcotest.(check int) "25 samples" 25 (Sim.Stats.count s);
  Alcotest.(check bool) "positive rtts" true (Sim.Stats.min_value s > 0.0)

(* --- experiment sanity (tiny scale) ----------------------------------------- *)

let test_fig3_shape () =
  let p10 = Workload.Exp_fig3.measure ~stateful:true ~clients:10 ~size:1000 ~count:20 () in
  let p40 = Workload.Exp_fig3.measure ~stateful:true ~clients:40 ~size:1000 ~count:20 () in
  let sless = Workload.Exp_fig3.measure ~stateful:false ~clients:40 ~size:1000 ~count:20 () in
  let m40 = p40.Workload.Exp_fig3.rtt.Sim.Stats.mean in
  let m10 = p10.Workload.Exp_fig3.rtt.Sim.Stats.mean in
  Alcotest.(check bool) "rtt grows ~linearly with clients" true
    (m40 /. m10 > 2.0 && m40 /. m10 < 5.0);
  Alcotest.(check bool) "stateful within 5% of stateless" true
    (abs_float (m40 -. sless.Workload.Exp_fig3.rtt.Sim.Stats.mean) /. m40 < 0.05)

let test_fig3_multicast_flatter () =
  let tcp = Workload.Exp_fig3.measure ~stateful:true ~clients:40 ~size:1000 ~count:20 () in
  let mc =
    Workload.Exp_fig3.measure ~multicast:true ~stateful:true ~clients:40 ~size:1000
      ~count:20 ()
  in
  Alcotest.(check bool) "multicast at least 3x faster at 40 clients" true
    (tcp.Workload.Exp_fig3.rtt.Sim.Stats.mean
    > 3.0 *. mc.Workload.Exp_fig3.rtt.Sim.Stats.mean)

let test_table1_network_bound () =
  let p =
    Workload.Exp_table1.measure ~server_cpu:Net.Host.ultrasparc ~size:1000 ~clients:6
      ~duration:3.0 ()
  in
  (* 10 Mbps NIC = 1.25 MB/s ceiling for fan-out payload. *)
  Alcotest.(check bool)
    (Printf.sprintf "close to the wire ceiling (%.0f kB/s)" (p.delivered_kbs /. 1e3))
    true
    (p.Workload.Exp_table1.delivered_kbs > 0.8e6
    && p.Workload.Exp_table1.delivered_kbs < 1.25e6)

let test_table2_replicated_wins () =
  let s = Workload.Exp_table2.measure_single ~clients:80 ~size:1000 ~count:10 () in
  let r = Workload.Exp_table2.measure_replicated ~clients:80 ~size:1000 ~count:10 () in
  Alcotest.(check bool) "replicated faster" true
    (r.Sim.Stats.mean < s.Sim.Stats.mean)

let test_join_ordering () =
  let corona = Workload.Exp_join.corona_join ~busy_group:false () in
  let healthy = Workload.Exp_join.isis_join ~scenario:`Healthy () in
  let slow = Workload.Exp_join.isis_join ~scenario:`Slow_member () in
  let crashed = Workload.Exp_join.isis_join ~scenario:`Crashed_donor () in
  Alcotest.(check bool) "corona <= isis healthy" true (corona <= healthy);
  Alcotest.(check bool) "slow member dominates healthy" true (slow > healthy +. 1.0);
  Alcotest.(check bool) "crashed donor pays the timeout" true (crashed > 3.0)

(* Virtual-time golden for the single-server fan-out: 300 members on the
   jittered LAN every testbed uses, the last joiner broadcasting 20
   sender-inclusive updates 20 ms apart. Every delivery, in firing order,
   as (member, seqno, delivery time to the bit), hashes to one pinned
   digest. A queue or fan-out change that moves any delivery, or reorders
   two of them, changes the digest. *)
let test_fanout_virtual_time_golden () =
  let tb = Workload.Testbed.single_server ~seed:19L () in
  let members = 300 and bcasts = 20 in
  let log = Buffer.create (members * bcasts * 32) and deliveries = ref 0 in
  let on_event cl = function
    | Corona.Client.Delivered u ->
        incr deliveries;
        Printf.bprintf log "%s %d %h\n" (Corona.Client.member cl) u.T.seqno
          (Sim.Engine.now tb.s_engine)
    | _ -> ()
  in
  Workload.Testbed.spawn_clients tb.s_fabric ~hosts:tb.s_client_hosts
    ~server_for:(fun _ -> tb.s_server_host)
    ~n:members
    (fun cls ->
      Corona.Client.create_group cls.(0) ~group:"g"
        ~k:(fun _ ->
          Workload.Testbed.join_all cls ~group:"g" ~transfer:T.No_state (fun () ->
              Array.iter (fun cl -> Corona.Client.set_on_event cl on_event) cls;
              let probe = cls.(members - 1) in
              for k = 0 to bcasts - 1 do
                ignore
                  (Sim.Engine.schedule tb.s_engine ~delay:(0.02 *. float_of_int k)
                     (fun () ->
                       Corona.Client.bcast_update probe ~group:"g" ~obj:"o"
                         ~data:(String.make 100 'x') ()))
              done))
        ());
  Sim.Engine.run tb.s_engine;
  Alcotest.(check int) "every member got every broadcast" (members * bcasts) !deliveries;
  Alcotest.(check string) "delivery digest" "10eed77e415df493b0d59ec7808c3bd6"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* Virtual-time goldens for the replicated service, built like the fan-out
   one: every delivery, in firing order, as (member, seqno, delivery time to
   the bit), hashed to one pinned digest per run. The classic run crashes
   the coordinator mid-stream, so election, the recovery round and gap
   repair all sit on the delivery path; the sharded run sequences two
   streams through their owners with barriered joins. *)
let replicated_delivery_digest ?config ~replicas ~members ~objs ~writes ~crash () =
  let tb =
    Workload.Testbed.replicated ~seed:7L ?config ~replicas ~client_machines:members ()
  in
  let c = tb.r_cluster and engine = tb.r_engine in
  let log = Buffer.create 4096 and deliveries = ref 0 in
  let record cl shard (u : T.update) =
    incr deliveries;
    Printf.bprintf log "%s %d:%d %h\n" (Corona.Client.member cl) shard u.seqno
      (Sim.Engine.now engine)
  in
  let start = ref infinity in
  Workload.Testbed.spawn_clients tb.r_fabric ~hosts:tb.r_client_hosts
    ~server_for:(fun i -> Replication.Node.host (Replication.Cluster.replica_for c i))
    ~n:members
    (fun cls ->
      Array.iter
        (fun cl ->
          Corona.Client.set_on_event cl (fun cl -> function
            | Corona.Client.Delivered u -> record cl 0 u
            | Corona.Client.Shard_delivered { shard; update } -> record cl shard update
            | _ -> ()))
        cls;
      Corona.Client.create_group cls.(0) ~group:"g" ~k:(fun _ -> ()) ();
      Workload.Testbed.join_all cls ~group:"g" (fun () ->
          start := Sim.Engine.now engine;
          for k = 0 to writes - 1 do
            ignore
              (Sim.Engine.schedule engine ~delay:(0.02 *. float_of_int k) (fun () ->
                   List.iter
                     (fun obj ->
                       Corona.Client.bcast_update cls.(1) ~group:"g" ~obj
                         ~data:(Printf.sprintf "%d;" k) ())
                     objs))
          done;
          if crash then
            Net.Fault.crash_at tb.r_fabric
              (Replication.Node.host (Replication.Cluster.node c "srv-0"))
              ~at:(!start +. 0.5 +. 3.8e-3)));
  Workload.Testbed.run_until engine (fun () -> Sim.Engine.now engine > !start +. 15.0);
  (!deliveries, Digest.to_hex (Digest.string (Buffer.contents log)))

let test_replicated_virtual_time_golden () =
  (* The crash lands mid fan-out: some copies miss the last update, and the
     recovery round repairs them with an [Updates_blob] from the freshest. *)
  let n, digest =
    replicated_delivery_digest ~replicas:6 ~members:6 ~objs:[ "o" ] ~writes:50
      ~crash:true ()
  in
  Alcotest.(check int) "classic: every member got every update" (6 * 50) n;
  Alcotest.(check string) "classic failover digest" "39b68830e12dbfbb856592e4b709d6d3"
    digest;
  let config = { Replication.Node.default_config with shards = 2 } in
  Alcotest.(check (list int)) "one object per shard" [ 1; 0 ]
    (List.map
       (fun obj -> Ordering.Shard_map.shard_of ~shards:2 ~group:"g" ~obj)
       [ "o0"; "o1" ]);
  let n, digest =
    replicated_delivery_digest ~config ~replicas:3 ~members:4 ~objs:[ "o0"; "o1" ]
      ~writes:40 ~crash:false ()
  in
  Alcotest.(check int) "sharded: every member got every update" (4 * 80) n;
  Alcotest.(check string) "sharded digest" "299071913772a8921860fb7de1732b7f" digest

let test_disk_regimes () =
  let _, async_backlog =
    Workload.Exp_disk.flood ~logging:Corona.Server.Async_logging ~disk_rate:0.1e6
      ~size:1000 ~duration:3.0 ()
  in
  let sync_kbs, _ =
    Workload.Exp_disk.flood ~logging:Corona.Server.Sync_logging ~disk_rate:0.1e6
      ~size:1000 ~duration:3.0 ()
  in
  let nolog_kbs, _ =
    Workload.Exp_disk.flood ~logging:Corona.Server.No_logging ~disk_rate:0.1e6
      ~size:1000 ~duration:3.0 ()
  in
  Alcotest.(check bool) "async piles up an unflushed tail" true (async_backlog > 100);
  Alcotest.(check bool) "sync is disk-bound below no-logging" true
    (sync_kbs < 0.6 *. nolog_kbs)

(* --- sweep accumulators --------------------------------------------------- *)

(* The committed BENCH_scale.json once carried a pair of deployments with a
   byte-identical ns_per_bcast — rows leaking between the bench's global
   accumulators. Sweep instances must accumulate independently and render
   section grouping in first-appearance order. *)
let test_sweep_independent_accumulation () =
  let a = Workload.Sweep.create () in
  let b = Workload.Sweep.create () in
  Alcotest.(check bool) "fresh sweeps are empty" true
    (Workload.Sweep.is_empty a && Workload.Sweep.is_empty b);
  Workload.Sweep.add a ~section:"scale" [ ("members", "100"); ("ns", "1.0") ];
  Workload.Sweep.add b ~section:"micro" [ ("name", "\"x\"") ];
  Workload.Sweep.add a ~section:"relay" [ ("members", "10000") ];
  Workload.Sweep.add a ~section:"scale" [ ("members", "300") ];
  (* nothing from [b] in [a] and vice versa *)
  Alcotest.(check (list string)) "a sections in insertion order"
    [ "scale"; "relay"; "scale" ]
    (List.map fst (Workload.Sweep.rows a));
  Alcotest.(check (list string)) "b untouched by a's adds" [ "micro" ]
    (List.map fst (Workload.Sweep.rows b));
  Alcotest.(check string) "row rendering"
    "{\"members\": 100, \"ns\": 1.0}"
    (snd (List.hd (Workload.Sweep.rows a)));
  (* writing one sweep must not drain or disturb the other *)
  let path = Filename.temp_file "sweep" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Sweep.write a path;
      let ic = open_in path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "scale section grouped once" true
        (String.length contents > 0
        && String.index_opt contents '{' = Some 0);
      Alcotest.(check (list string)) "a rows survive write"
        [ "scale"; "relay"; "scale" ]
        (List.map fst (Workload.Sweep.rows a)));
  Alcotest.(check string) "non-finite renders null" "null" (Workload.Sweep.num nan);
  Alcotest.(check string) "finite renders 1dp" "12.3" (Workload.Sweep.num 12.34)

(* A partial bench run (say [scale] alone) rewrites its output file with
   only its own sections; the file's other sections must survive as they
   were, in their place. *)
let test_sweep_write_keeps_other_sections () =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let path = Filename.temp_file "sweep" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let first = Workload.Sweep.create () in
      Workload.Sweep.add first ~section:"a" [ ("members", "100"); ("ns", "1.0") ];
      Workload.Sweep.add first ~section:"a" [ ("members", "300"); ("ns", "2.0") ];
      Workload.Sweep.add first ~section:"b" [ ("relays", "32") ];
      Workload.Sweep.write first path;
      let again = Workload.Sweep.create () in
      Workload.Sweep.add again ~section:"b" [ ("relays", "64") ];
      Workload.Sweep.write again path;
      Alcotest.(check string) "a kept, b replaced"
        "{\n\
        \  \"a\": [\n\
        \    {\"members\": 100, \"ns\": 1.0},\n\
        \    {\"members\": 300, \"ns\": 2.0}\n\
        \  ],\n\
        \  \"b\": [\n\
        \    {\"relays\": 64}\n\
        \  ]\n\
         }\n"
        (read path);
      let late = Workload.Sweep.create () in
      Workload.Sweep.add late ~section:"c" [ ("x", "1") ];
      Workload.Sweep.write late path;
      let contents = read path in
      Alcotest.(check bool) "a new section goes last, the others stay" true
        (String.length contents > 0
        && String.starts_with ~prefix:"{\n  \"a\": [" contents
        && String.ends_with ~suffix:"  \"c\": [\n    {\"x\": 1}\n  ]\n}\n" contents))

(* --- config ledger ----------------------------------------------------------- *)

(* Every field of the two production configs, with the experiment that sets
   it both ways ([Row]: a [corona_cli] subcommand or a [bench/main.exe]
   section) or the reason it is fixed per deployment. Each ledger is a
   complete record literal, not a [with] update: a new config field does
   not compile until it is entered here. *)
type mark = Row of string | Deployment_constant of string

(* [mark] records a field's entry and returns its value unchanged. *)
type marker = { mark : 'a. string -> mark -> 'a -> 'a }

let ledger build =
  let marks = ref [] in
  ignore
    (build
       {
         mark =
           (fun name m v ->
             marks := (name, m) :: !marks;
             v);
       });
  List.sort compare !marks

let timing =
  Deployment_constant
    "protocol timing: only bench/main.ml raises it, to keep the failure detector out of \
     fault-free sweeps"

let server_ledger =
  ledger (fun { mark } ->
      let d = Corona.Server.default_config in
      {
        Corona.Server.port = mark "port" (Deployment_constant "listening port") d.port;
        maintain_state = mark "maintain_state" (Row "corona_cli fig3") d.maintain_state;
        logging = mark "logging" (Row "corona_cli disk") d.logging;
        reduction = mark "reduction" (Row "corona_cli logreduction") d.reduction;
        access = mark "access" (Deployment_constant "application access policy") d.access;
        use_ip_multicast = mark "use_ip_multicast" (Row "corona_cli fig3-mcast") d.use_ip_multicast;
        transfer_chunk_bytes =
          mark "transfer_chunk_bytes" (Row "corona_cli qos") d.transfer_chunk_bytes;
        wal_batching = mark "wal_batching" (Row "corona_cli transfer") d.wal_batching;
        lean_joins = mark "lean_joins" (Row "bench/main.exe relay") d.lean_joins;
      })

let node_ledger =
  ledger (fun { mark } ->
      let d = Replication.Node.default_config in
      {
        Replication.Node.client_port =
          mark "client_port" (Deployment_constant "client listening port") d.client_port;
        server_port = mark "server_port" (Deployment_constant "peer-mesh port") d.server_port;
        heartbeat_interval = mark "heartbeat_interval" timing d.heartbeat_interval;
        failure_timeout = mark "failure_timeout" timing d.failure_timeout;
        reduction =
          mark "reduction"
            (Deployment_constant
               "no experiment varies it on a Node; corona_cli logreduction measures the \
                same State_log policy on Corona.Server")
            d.reduction;
        access = mark "access" (Deployment_constant "application access policy") d.access;
        relaxed_membership =
          mark "relaxed_membership" (Row "corona_cli failover") d.relaxed_membership;
        shards = mark "shards" (Row "bench/main.exe sharded") d.shards;
      })

let check_ledger ~fields marks =
  Alcotest.(check int) "one mark per field" fields (List.length marks);
  Alcotest.(check int) "field names distinct" fields
    (List.length (List.sort_uniq compare (List.map fst marks)));
  List.iter
    (fun (name, m) ->
      match m with
      | Row experiment ->
          Alcotest.(check bool)
            (name ^ ": a row names a corona_cli subcommand or a bench/main.exe section")
            true
            (String.starts_with ~prefix:"corona_cli " experiment
            || String.starts_with ~prefix:"bench/main.exe " experiment)
      | Deployment_constant reason ->
          Alcotest.(check bool) (name ^ ": a constant gives its reason") true (reason <> ""))
    marks

let test_server_config_ledger () = check_ledger ~fields:9 server_ledger

let test_node_config_ledger () = check_ledger ~fields:8 node_ledger

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workload"
    [
      ( "report",
        [
          tc "table alignment" `Quick test_report_table_alignment;
          tc "unit renderers" `Quick test_report_units;
          tc "sweep accumulators are independent" `Quick
            test_sweep_independent_accumulation;
          tc "sweep write keeps other sections" `Quick
            test_sweep_write_keeps_other_sections;
        ] );
      ( "testbed",
        [
          tc "spawn and join order" `Quick test_spawn_and_join_order;
          tc "paced probe counts" `Quick test_paced_probe_counts;
        ] );
      ( "experiments",
        [
          tc "fig3 shape: linear, stateful=stateless" `Quick test_fig3_shape;
          tc "fig3 multicast flatter" `Quick test_fig3_multicast_flatter;
          tc "table1 network-bound" `Quick test_table1_network_bound;
          tc "table2 replicated wins" `Quick test_table2_replicated_wins;
          tc "join ordering corona < slow < crashed" `Quick test_join_ordering;
          tc "disk regimes" `Quick test_disk_regimes;
          tc "fan-out virtual-time golden" `Quick test_fanout_virtual_time_golden;
          tc "replicated virtual-time golden" `Quick test_replicated_virtual_time_golden;
        ] );
      ( "config",
        [
          tc "server ledger: every field marked" `Quick test_server_config_ledger;
          tc "node ledger: every field marked" `Quick test_node_config_ledger;
        ] );
    ]
