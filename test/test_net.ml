(* Tests for the network substrate: host CPU/NIC cost model, fabric
   transmission pipeline, TCP semantics (FIFO, retransmission, close and
   crash notification), multicast and partitions. *)

let make_world ?(config = Net.Fabric.lan) () =
  let engine = Sim.Engine.create ~seed:5L () in
  let fabric = Net.Fabric.create ~config engine in
  (engine, fabric)

(* --- host --------------------------------------------------------------- *)

let test_cpu_serializes_work () =
  let engine, fabric = make_world () in
  let h = Net.Fabric.add_host fabric ~name:"h" () in
  let finished = ref [] in
  (* Two 10 ms jobs on a single worker must finish at 10 and 20 ms. *)
  Net.Host.exec h ~cost:0.010 (fun () -> finished := Sim.Engine.now engine :: !finished);
  Net.Host.exec h ~cost:0.010 (fun () -> finished := Sim.Engine.now engine :: !finished);
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "serialized" [ 0.010; 0.020 ] (List.rev !finished)

let test_multiworker_parallelism () =
  let engine, fabric = make_world () in
  let h =
    Net.Fabric.add_host fabric ~name:"smp" ~cpu:Net.Host.pentium_ii_quad ()
  in
  let finished = ref [] in
  for _ = 1 to 4 do
    Net.Host.exec h ~cost:0.010 (fun () -> finished := Sim.Engine.now engine :: !finished)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9)))
    "four jobs in parallel on four cores"
    [ 0.010; 0.010; 0.010; 0.010 ]
    (List.rev !finished)

let test_crash_drops_queued_work () =
  let engine, fabric = make_world () in
  let h = Net.Fabric.add_host fabric ~name:"h" () in
  let ran = ref false in
  Net.Host.exec h ~cost:1.0 (fun () -> ran := true);
  ignore (Sim.Engine.schedule engine ~delay:0.5 (fun () -> Net.Host.crash h));
  Sim.Engine.run engine;
  Alcotest.(check bool) "work dropped by crash" false !ran;
  Alcotest.(check bool) "host down" false (Net.Host.is_alive h)

let test_restart_fresh_epoch () =
  let _, fabric = make_world () in
  let h = Net.Fabric.add_host fabric ~name:"h" () in
  let e0 = Net.Host.epoch h in
  Net.Host.crash h;
  Net.Host.restart h;
  Alcotest.(check bool) "alive again" true (Net.Host.is_alive h);
  Alcotest.(check int) "epoch advanced twice" (e0 + 2) (Net.Host.epoch h)

let test_nic_transmission_time () =
  let engine, fabric = make_world () in
  (* 1.25e6 B/s NIC: 12500 bytes take 10 ms. *)
  let h = Net.Fabric.add_host fabric ~name:"h" () in
  let at = ref nan in
  Net.Host.nic_send h ~size:12_500 (fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "10 ms" 0.010 !at

(* --- fabric -------------------------------------------------------------- *)

let test_transmit_pipeline_cost () =
  let engine, fabric = make_world () in
  let a = Net.Fabric.add_host fabric ~name:"a" () in
  let b = Net.Fabric.add_host fabric ~name:"b" () in
  let arrived = ref nan in
  Net.Fabric.transmit fabric ~src:a ~dst:b ~size:1000 (fun () ->
      arrived := Sim.Engine.now engine);
  Sim.Engine.run engine;
  (* serialize (250us + 180ns*1000) + NIC (1000/1.25e6) + latency (0.3ms)
     + deserialize (200us + 180us) = 0.43ms + 0.8ms + 0.3ms + 0.38ms *)
  let expected = 0.00043 +. 0.0008 +. 0.0003 +. 0.00038 in
  Alcotest.(check (float 1e-6)) "pipeline cost" expected !arrived

let test_loopback_skips_network () =
  let engine, fabric = make_world () in
  let a = Net.Fabric.add_host fabric ~name:"a" () in
  let arrived = ref nan in
  Net.Fabric.transmit fabric ~src:a ~dst:a ~size:1000 (fun () ->
      arrived := Sim.Engine.now engine);
  Sim.Engine.run engine;
  Alcotest.(check bool) "no NIC or latency charged" true (!arrived < 0.001);
  Alcotest.(check int) "no packet counted" 0 (Net.Fabric.packets_sent fabric)

let test_partition_blocks_and_heals () =
  let engine, fabric = make_world () in
  let a = Net.Fabric.add_host fabric ~name:"a" () in
  let b = Net.Fabric.add_host fabric ~name:"b" () in
  let got = ref 0 in
  let dropped = ref 0 in
  Net.Fabric.partition fabric [ [ "a" ]; [ "b" ] ];
  Alcotest.(check bool) "unreachable" false (Net.Fabric.reachable fabric a b);
  Net.Fabric.transmit fabric ~src:a ~dst:b ~size:10
    ~on_dropped:(fun () -> incr dropped)
    (fun () -> incr got);
  Sim.Engine.run engine;
  Alcotest.(check int) "dropped during partition" 1 !dropped;
  Net.Fabric.heal fabric;
  Alcotest.(check bool) "reachable after heal" true (Net.Fabric.reachable fabric a b);
  Net.Fabric.transmit fabric ~src:a ~dst:b ~size:10 (fun () -> incr got);
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered after heal" 1 !got

(* --- transmit_many golden equivalence ------------------------------------ *)

(* Identical worlds fed either N chained [transmit] calls at one instant or a
   single [transmit_many]; per-recipient delivery (and drop) timestamps must
   match exactly. The topology deliberately stresses every equivalence
   subtlety: multi-worker sender (NIC reservation order = stable sort on exec
   finish), mixed destination profiles, a repeated destination host, a
   loopback recipient, and nonzero jitter (RNG draw order). *)
let fanout_world ~config ~seed =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Net.Fabric.create ~config engine in
  let src =
    Net.Fabric.add_host fabric ~name:"src" ~cpu:Net.Host.pentium_ii_quad ()
  in
  let mk name cpu = Net.Fabric.add_host fabric ~name ~cpu () in
  let d0 = mk "d0" Net.Host.sparc20 in
  let d1 = mk "d1" Net.Host.ultrasparc in
  let d2 = mk "d2" Net.Host.modem_client in
  let d3 = mk "d3" Net.Host.sparc20 in
  let d5 = mk "d5" Net.Host.ultrasparc in
  let dsts = [| d0; d1; d2; d3; src (* loopback *); d5; d1 (* repeat *) |] in
  (engine, fabric, src, dsts)

let run_fanout ~config ~seed ~size ?crash_src_at ~batched () =
  let engine, fabric, src, dsts = fanout_world ~config ~seed in
  let n = Array.length dsts in
  let delivered = Array.make n nan and dropped = Array.make n nan in
  (match crash_src_at with
  | Some at -> ignore (Sim.Engine.schedule_at engine at (fun () -> Net.Host.crash src))
  | None -> ());
  ignore
    (Sim.Engine.schedule engine ~delay:0.002 (fun () ->
         if batched then
           Net.Fabric.transmit_many fabric ~src ~size ~dsts
             ~on_dropped:(fun i -> dropped.(i) <- Sim.Engine.now engine)
             (fun i -> delivered.(i) <- Sim.Engine.now engine)
         else
           Array.iteri
             (fun i dst ->
               Net.Fabric.transmit fabric ~src ~dst ~size
                 ~on_dropped:(fun () -> dropped.(i) <- Sim.Engine.now engine)
                 (fun () -> delivered.(i) <- Sim.Engine.now engine))
             dsts));
  Sim.Engine.run engine;
  (fabric, Array.to_list delivered, Array.to_list dropped)

let check_fanout_equivalence ~config ?crash_src_at name =
  let _, chained_del, chained_drop =
    run_fanout ~config ~seed:11L ~size:1024 ?crash_src_at ~batched:false ()
  in
  let fabric, batched_del, batched_drop =
    run_fanout ~config ~seed:11L ~size:1024 ?crash_src_at ~batched:true ()
  in
  Alcotest.(check int) "batched path exercised" 1 (Net.Fabric.batches_sent fabric);
  (* NaN-safe exact comparison: undelivered slots must stay undelivered. *)
  let show l = String.concat "," (List.map (Printf.sprintf "%h") l) in
  Alcotest.(check string)
    (name ^ ": delivery timestamps identical")
    (show chained_del) (show batched_del);
  Alcotest.(check string)
    (name ^ ": drop timestamps identical")
    (show chained_drop) (show batched_drop)

let test_transmit_many_golden () =
  check_fanout_equivalence ~config:Net.Fabric.lan "lan";
  (* Campus profile: nonzero jitter exercises RNG draw ordering. *)
  check_fanout_equivalence ~config:Net.Fabric.campus "campus"

let test_transmit_many_golden_with_loss () =
  let lossy = { Net.Fabric.base_latency = 1.5e-3; jitter = 0.2e-3; loss_rate = 0.3 } in
  check_fanout_equivalence ~config:lossy "lossy";
  (* Same dropped set and drop instants under loss: verified by the exact
     drop-timestamp comparison above; make sure the case is non-trivial. *)
  let _, _, drops = run_fanout ~config:lossy ~seed:11L ~size:1024 ~batched:true () in
  Alcotest.(check bool) "at least one loss drawn" true
    (List.exists (fun d -> not (Float.is_nan d)) drops)

(* A fan-out over a jittered LAN (every testbed's network) allocates only
   the jitter draw and the boxed delivery time per recipient: at most 6
   minor words. *)
let test_transmit_many_jitter_allocation () =
  let engine = Sim.Engine.create ~seed:3L () in
  let config = { Net.Fabric.lan with Net.Fabric.jitter = 0.8e-3 } in
  let fabric = Net.Fabric.create ~config engine in
  let src = Net.Fabric.add_host fabric ~name:"src" () in
  let n = 250 in
  let dsts =
    Array.init n (fun i -> Net.Fabric.add_host fabric ~name:(Printf.sprintf "d%d" i) ())
  in
  let got = ref 0 in
  let k (_ : int) = incr got in
  (* the first fan-out sizes the recycled batch arrays *)
  Net.Fabric.transmit_many fabric ~src ~size:1000 ~dsts k;
  Sim.Engine.run engine;
  let w0 = Gc.minor_words () in
  Net.Fabric.transmit_many fabric ~src ~size:1000 ~dsts k;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Sim.Engine.run engine;
  Alcotest.(check int) "every recipient reached twice" (2 * n) !got;
  if words > 6.0 then Alcotest.failf "%.2f minor words per recipient (at most 6)" words

let test_transmit_many_golden_src_crash () =
  (* Crash the sender mid-fan-out: the delivered prefix and the silenced
     suffix must be identical between the chained and batched paths. *)
  let crash_at = 0.002 +. 0.0015 in
  check_fanout_equivalence ~config:Net.Fabric.lan ~crash_src_at:crash_at "crash";
  let _, delivered, _ =
    run_fanout ~config:Net.Fabric.lan ~seed:11L ~size:1024 ~crash_src_at:crash_at
      ~batched:true ()
  in
  let live = List.filter (fun d -> not (Float.is_nan d)) delivered in
  Alcotest.(check bool) "some recipients delivered before the crash" true
    (live <> []);
  Alcotest.(check bool) "some recipients silenced by the crash" true
    (List.length live < 7)

let test_latency_override () =
  let engine, fabric = make_world () in
  let a = Net.Fabric.add_host fabric ~name:"a" () in
  let b = Net.Fabric.add_host fabric ~name:"b" () in
  Net.Fabric.set_latency fabric ~src:"a" ~dst:"b" 0.2;
  let at = ref nan in
  Net.Fabric.transmit fabric ~src:a ~dst:b ~size:0 (fun () -> at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  Alcotest.(check bool) "slow path used" true (!at > 0.2)

(* --- tcp ------------------------------------------------------------------ *)

let connect_pair ?(config = Net.Fabric.lan) () =
  let engine, fabric = make_world ~config () in
  let a = Net.Fabric.add_host fabric ~name:"a" () in
  let b = Net.Fabric.add_host fabric ~name:"b" () in
  let server_side = ref None and client_side = ref None in
  ignore
    (Net.Tcp.listen fabric b ~port:80 ~on_accept:(fun conn -> server_side := Some conn));
  Net.Tcp.connect fabric ~src:a ~dst:b ~port:80
    ~on_connected:(fun conn -> client_side := Some conn)
    ~on_failed:(fun () -> Alcotest.fail "connect failed")
    ();
  Sim.Engine.run engine;
  (engine, fabric, a, b, Option.get !client_side, Option.get !server_side)

let test_tcp_connect_and_send () =
  let engine, _, _, _, client, server = connect_pair () in
  let got = ref [] in
  Net.Tcp.set_receiver server (fun ~size payload ->
      match payload with
      | Net.Payload.Raw s -> got := (s, size) :: !got
      | _ -> ());
  Net.Tcp.send client ~size:100 (Net.Payload.Raw "hello");
  Net.Tcp.send client ~size:200 (Net.Payload.Raw "world");
  Sim.Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "in order with sizes" [ ("hello", 100); ("world", 200) ] (List.rev !got)

let test_tcp_connect_no_listener () =
  let engine, fabric = make_world () in
  let a = Net.Fabric.add_host fabric ~name:"a" () in
  let b = Net.Fabric.add_host fabric ~name:"b" () in
  let failed = ref false in
  Net.Tcp.connect fabric ~src:a ~dst:b ~port:81
    ~on_connected:(fun _ -> Alcotest.fail "must not connect")
    ~on_failed:(fun () -> failed := true)
    ();
  Sim.Engine.run engine;
  Alcotest.(check bool) "refused" true !failed

let test_tcp_fifo_under_jitter () =
  (* Heavy jitter reorders packets on the wire; the connection must still
     deliver FIFO. *)
  let config = { Net.Fabric.lan with Net.Fabric.jitter = 5e-3 } in
  let engine, _, _, _, client, server = connect_pair ~config () in
  let got = ref [] in
  Net.Tcp.set_receiver server (fun ~size:_ payload ->
      match payload with Net.Payload.Raw s -> got := s :: !got | _ -> ());
  for i = 0 to 19 do
    Net.Tcp.send client ~size:10 (Net.Payload.Raw (string_of_int i))
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "fifo despite jitter"
    (List.init 20 string_of_int) (List.rev !got)

let test_tcp_retransmits_across_partition () =
  let engine, fabric, _, _, client, server = connect_pair () in
  let got = ref [] in
  Net.Tcp.set_receiver server (fun ~size:_ payload ->
      match payload with Net.Payload.Raw s -> got := s :: !got | _ -> ());
  Net.Fabric.partition fabric [ [ "a" ]; [ "b" ] ];
  Net.Tcp.send client ~size:10 (Net.Payload.Raw "stalled");
  ignore (Sim.Engine.schedule engine ~delay:2.0 (fun () -> Net.Fabric.heal fabric));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "delivered after heal" [ "stalled" ] !got

let test_tcp_graceful_close_notifies_peer () =
  let engine, _, _, _, client, server = connect_pair () in
  let reason = ref None in
  Net.Tcp.set_on_close server (fun r -> reason := Some r);
  Net.Tcp.close client;
  Sim.Engine.run engine;
  Alcotest.(check bool) "client closed" false (Net.Tcp.is_open client);
  (match !reason with
  | Some Net.Tcp.Graceful -> ()
  | _ -> Alcotest.fail "expected graceful close notification");
  Alcotest.(check bool) "server side closed too" false (Net.Tcp.is_open server)

let test_tcp_crash_notifies_peer () =
  let engine, _, a, _, client, server = connect_pair () in
  ignore client;
  let reason = ref None in
  Net.Tcp.set_on_close server (fun r -> reason := Some r);
  ignore (Sim.Engine.schedule engine ~delay:0.1 (fun () -> Net.Host.crash a));
  Sim.Engine.run engine;
  match !reason with
  | Some Net.Tcp.Peer_crashed -> ()
  | _ -> Alcotest.fail "expected peer-crashed notification"

let test_send_on_closed_conn_is_noop () =
  let engine, _, _, _, client, server = connect_pair () in
  let got = ref 0 in
  Net.Tcp.set_receiver server (fun ~size:_ _ -> incr got);
  Net.Tcp.close client;
  Net.Tcp.send client ~size:10 (Net.Payload.Raw "late");
  Sim.Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !got

let test_early_messages_buffered_until_receiver () =
  let engine, _, _, _, client, server = connect_pair () in
  Net.Tcp.send client ~size:10 (Net.Payload.Raw "early");
  Sim.Engine.run engine;
  let got = ref [] in
  Net.Tcp.set_receiver server (fun ~size:_ payload ->
      match payload with Net.Payload.Raw s -> got := s :: !got | _ -> ());
  Alcotest.(check (list string)) "flushed on install" [ "early" ] !got

let prop_tcp_fifo_random_traffic =
  (* Any mix of sizes under jitter arrives complete and in order. *)
  QCheck.Test.make ~name:"tcp: random sizes under jitter stay FIFO" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 5_000))
    (fun sizes ->
      let config = { Net.Fabric.lan with Net.Fabric.jitter = 3e-3 } in
      let engine, _, _, _, client, server = connect_pair ~config () in
      let got = ref [] in
      Net.Tcp.set_receiver server (fun ~size payload ->
          match payload with
          | Net.Payload.Raw _ -> got := size :: !got
          | _ -> ());
      List.iter
        (fun size -> Net.Tcp.send client ~size (Net.Payload.Raw "m"))
        sizes;
      Sim.Engine.run engine;
      List.rev !got = sizes)

(* --- multicast ------------------------------------------------------------ *)

let test_multicast_delivery () =
  let engine, fabric = make_world () in
  let src = Net.Fabric.add_host fabric ~name:"src" () in
  let members = List.init 3 (fun i -> Net.Fabric.add_host fabric ~name:(Printf.sprintf "m%d" i) ()) in
  let chan = Net.Multicast.channel fabric ~name:"chan" in
  let got = ref [] in
  List.iter
    (fun h ->
      Net.Multicast.join chan h
        ~handler:(fun ~size:_ payload ->
          match payload with
          | Net.Payload.Raw s -> got := (Net.Host.name h, s) :: !got
          | _ -> ())
        ())
    (src :: members);
  Net.Multicast.send chan ~src ~size:100 (Net.Payload.Raw "x");
  Sim.Engine.run engine;
  Alcotest.(check int) "three receivers, not the sender" 3 (List.length !got);
  Alcotest.(check bool) "sender excluded" false
    (List.exists (fun (n, _) -> n = "src") !got);
  (* One NIC transmission regardless of fan-out. *)
  Alcotest.(check int) "one packet on the source NIC" 1
    (Net.Fabric.packets_sent fabric)

let test_multicast_respects_partition_and_crash () =
  let engine, fabric = make_world () in
  let src = Net.Fabric.add_host fabric ~name:"src" () in
  let ok = Net.Fabric.add_host fabric ~name:"ok" () in
  let cut = Net.Fabric.add_host fabric ~name:"cut" () in
  let dead = Net.Fabric.add_host fabric ~name:"dead" () in
  let chan = Net.Multicast.channel fabric ~name:"chan" in
  let got = ref [] in
  List.iter
    (fun h ->
      Net.Multicast.join chan h
        ~handler:(fun ~size:_ _ -> got := Net.Host.name h :: !got)
        ())
    [ ok; cut; dead ];
  Net.Fabric.partition fabric [ [ "src"; "ok"; "dead" ]; [ "cut" ] ];
  Net.Host.crash dead;
  Net.Multicast.send chan ~src ~size:10 (Net.Payload.Raw "x");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "only the reachable live member" [ "ok" ] !got

(* --- fault helpers ---------------------------------------------------------- *)

let test_multicast_multiple_subscribers_per_host () =
  let engine, fabric = make_world () in
  let src = Net.Fabric.add_host fabric ~name:"src" () in
  let shared = Net.Fabric.add_host fabric ~name:"shared" () in
  let chan = Net.Multicast.channel fabric ~name:"chan" in
  let got = ref [] in
  Net.Multicast.join chan shared ~key:"client-1"
    ~handler:(fun ~size:_ _ -> got := "client-1" :: !got) ();
  Net.Multicast.join chan shared ~key:"client-2"
    ~handler:(fun ~size:_ _ -> got := "client-2" :: !got) ();
  Alcotest.(check int) "two subscriptions" 2 (Net.Multicast.subscriber_count chan);
  Net.Multicast.send chan ~src ~size:10 (Net.Payload.Raw "x");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "both clients on the host got it"
    [ "client-1"; "client-2" ] (List.sort compare !got);
  Net.Multicast.leave chan shared ~key:"client-1" ();
  Alcotest.(check int) "one left" 1 (Net.Multicast.subscriber_count chan)

let test_multicast_registry_shared () =
  let _, fabric = make_world () in
  let a = Net.Multicast.channel fabric ~name:"same" in
  let b = Net.Multicast.channel fabric ~name:"same" in
  Alcotest.(check bool) "same object" true (a == b)

let test_crash_for () =
  let engine, fabric = make_world () in
  let h = Net.Fabric.add_host fabric ~name:"h" () in
  Net.Fault.crash_for fabric h ~at:1.0 ~duration:2.0;
  Sim.Engine.run ~until:1.5 engine;
  Alcotest.(check bool) "down during window" false (Net.Host.is_alive h);
  Sim.Engine.run ~until:3.5 engine;
  Alcotest.(check bool) "back after window" true (Net.Host.is_alive h)

let test_flaky_host () =
  let engine, fabric = make_world () in
  let f = Net.Fabric.add_host fabric ~name:"f" () in
  let obs = Net.Fabric.add_host fabric ~name:"obs" () in
  (* a live connection into the flaky host: its first crash must surface as
     [Peer_crashed] on the surviving peer *)
  let close_reason = ref None in
  let client = ref None in
  ignore
    (Net.Tcp.listen fabric f ~port:80 ~on_accept:(fun _ -> ()));
  Net.Tcp.connect fabric ~src:obs ~dst:f ~port:80
    ~on_connected:(fun conn ->
      client := Some conn;
      Net.Tcp.set_on_close conn (fun r -> close_reason := Some r))
    ~on_failed:(fun () -> Alcotest.fail "connect failed")
    ();
  Net.Fault.flaky_host fabric f ~mean_uptime:1.0 ~mean_downtime:0.5;
  (* sample the incarnation epoch as the host cycles *)
  let epochs = ref [ Net.Host.epoch f ] in
  let transitions = ref 0 in
  Sim.Engine.periodic engine ~every:0.005 (fun () ->
      let e = Net.Host.epoch f in
      if e <> List.hd !epochs then begin
        epochs := e :: !epochs;
        incr transitions
      end;
      Sim.Engine.now engine < 30.0);
  Sim.Engine.run ~until:30.0 engine;
  let rec strictly_increasing = function
    | a :: (b :: _ as tl) -> b < a && strictly_increasing tl (* newest first *)
    | _ -> true
  in
  Alcotest.(check bool) "epoch strictly increases" true (strictly_increasing !epochs);
  Alcotest.(check bool)
    (Printf.sprintf "several cycles in 30 s (saw %d transitions)" !transitions)
    true (!transitions >= 5);
  (match !close_reason with
  | Some Net.Tcp.Peer_crashed -> ()
  | Some r -> Alcotest.failf "expected Peer_crashed, got %a" Net.Tcp.pp_close_reason r
  | None -> Alcotest.fail "connection never observed the crash");
  Alcotest.(check bool) "no half-open surviving side" false
    (Net.Tcp.is_open (Option.get !client))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "net"
    [
      ( "host",
        [
          tc "cpu serializes work" `Quick test_cpu_serializes_work;
          tc "multi-worker parallelism" `Quick test_multiworker_parallelism;
          tc "crash drops queued work" `Quick test_crash_drops_queued_work;
          tc "restart gives fresh epoch" `Quick test_restart_fresh_epoch;
          tc "nic transmission time" `Quick test_nic_transmission_time;
        ] );
      ( "fabric",
        [
          tc "transmit pipeline cost" `Quick test_transmit_pipeline_cost;
          tc "loopback skips network" `Quick test_loopback_skips_network;
          tc "partition blocks and heals" `Quick test_partition_blocks_and_heals;
          tc "latency override" `Quick test_latency_override;
          tc "transmit_many golden equivalence" `Quick test_transmit_many_golden;
          tc "transmit_many golden under loss" `Quick
            test_transmit_many_golden_with_loss;
          tc "transmit_many golden under src crash" `Quick
            test_transmit_many_golden_src_crash;
          tc "transmit_many allocation under jitter" `Quick
            test_transmit_many_jitter_allocation;
        ] );
      ( "tcp",
        [
          tc "connect and send in order" `Quick test_tcp_connect_and_send;
          tc "connect without listener fails" `Quick test_tcp_connect_no_listener;
          tc "fifo under jitter" `Quick test_tcp_fifo_under_jitter;
          tc "retransmits across partition" `Quick test_tcp_retransmits_across_partition;
          tc "graceful close notifies peer" `Quick test_tcp_graceful_close_notifies_peer;
          tc "crash notifies peer" `Quick test_tcp_crash_notifies_peer;
          tc "send on closed conn is noop" `Quick test_send_on_closed_conn_is_noop;
          tc "early messages buffered" `Quick test_early_messages_buffered_until_receiver;
          QCheck_alcotest.to_alcotest prop_tcp_fifo_random_traffic;
        ] );
      ( "multicast",
        [
          tc "delivery excludes sender" `Quick test_multicast_delivery;
          tc "respects partition and crash" `Quick test_multicast_respects_partition_and_crash;
          tc "multiple subscribers per host" `Quick
            test_multicast_multiple_subscribers_per_host;
          tc "registry shares channels" `Quick test_multicast_registry_shared;
        ] );
      ( "fault",
        [
          tc "crash_for window" `Quick test_crash_for;
          tc "flaky_host cycles epochs, crashes connections" `Quick test_flaky_host;
        ] );
    ]
