(* §4.2 fault tolerance: crash the coordinator under load and measure the
   service interruption — detection (heartbeat timeout), the list-order
   election, directory recovery and the re-send of pending forwards. Also
   compares the paper's list-order election with the classical bully and
   ring algorithms on an abstract harness. *)

module T = Proto.Types

type failover_result = {
  crash_at : float;
  last_before : float;
  first_after : float;
  lost : int;
  new_coordinator : string;
}

let measure_failover ?(seed = 31L) () =
  let tb = Testbed.replicated ~seed ~replicas:4 () in
  let deliveries = ref [] in
  let sent = ref 0 in
  let crash_time = 5.0 in
  Testbed.spawn_clients tb.r_fabric ~hosts:tb.r_client_hosts
    ~server_for:(fun i ->
      Replication.Node.host (Replication.Cluster.replica_for tb.r_cluster i))
    ~n:2
    (fun cls ->
      Corona.Client.create_group cls.(0) ~group:"g"
        ~k:(fun _ ->
          Testbed.join_all cls ~group:"g" (fun () ->
              Corona.Client.set_on_event cls.(1) (fun _ -> function
                | Corona.Client.Delivered u ->
                    deliveries := (Sim.Engine.now tb.r_engine, u.T.seqno) :: !deliveries
                | _ -> ());
              Sim.Engine.periodic tb.r_engine ~every:0.05 (fun () ->
                  if !sent < 400 then begin
                    incr sent;
                    Corona.Client.bcast_update cls.(0) ~group:"g" ~obj:"o"
                      ~data:(Printf.sprintf "m%d" !sent) ();
                    true
                  end
                  else false)))
        ());
  Net.Fault.crash_at tb.r_fabric
    (Replication.Node.host (Replication.Cluster.node tb.r_cluster "srv-0"))
    ~at:crash_time;
  let horizon = 40.0 in
  Testbed.run_until tb.r_engine (fun () -> Sim.Engine.now tb.r_engine >= horizon);
  let ds = List.rev !deliveries in
  let before = List.filter (fun (at, _) -> at < crash_time) ds in
  let after = List.filter (fun (at, _) -> at >= crash_time) ds in
  let seqnos = List.map snd ds in
  let lost =
    (* Gaps in the delivered sequence = lost updates. *)
    match (seqnos, List.rev seqnos) with
    | first :: _, last :: _ -> last - first + 1 - List.length seqnos
    | _ -> 0
  in
  {
    crash_at = crash_time;
    last_before = (match List.rev before with (at, _) :: _ -> at | [] -> nan);
    first_after = (match after with (at, _) :: _ -> at | [] -> nan);
    lost;
    new_coordinator =
      Replication.Node.id (Replication.Cluster.coordinator tb.r_cluster);
  }

let run_failover () =
  Report.section "Coordinator failover (§4.2) — service interruption under 20 msg/s";
  let r = measure_failover () in
  Report.kv
    [
      ("coordinator crashed at", Printf.sprintf "%.2f s" r.crash_at);
      ("last delivery before crash", Printf.sprintf "%.2f s" r.last_before);
      ("first delivery after recovery", Printf.sprintf "%.2f s" r.first_after);
      ( "service interruption",
        Printf.sprintf
          "%.2f s (failure detection + election + directory rebuild + re-send)"
          (r.first_after -. r.crash_at) );
      ("updates lost", string_of_int r.lost);
      ("new coordinator", r.new_coordinator);
    ]

(* --- §4.1 relaxation: local membership notification latency ------------- *)

(* "A broadcast message may be distributed locally by the server connected
   with the sender before being sent to the clients connected to other
   servers" — for membership changes, the origin replica can notify its own
   clients without waiting for the coordinator round-trip. *)
let measure_relaxation ~relaxed () =
  let config = { Replication.Node.default_config with relaxed_membership = relaxed } in
  let tb = Testbed.replicated ~seed:61L ~config ~replicas:3 () in
  let noticed_at = ref nan and join_sent_at = ref nan in
  Testbed.spawn_clients tb.r_fabric ~hosts:tb.r_client_hosts
    ~server_for:(fun _ ->
      (* Both clients on the same replica: the relaxation applies. *)
      Replication.Node.host (Replication.Cluster.replica_for tb.r_cluster 0))
    ~n:2
    (fun cls ->
      Corona.Client.set_on_event cls.(0) (fun _ -> function
        | Corona.Client.Membership_changed
            { change = Proto.Types.Member_joined { member = "c1"; _ }; _ } ->
            noticed_at := Sim.Engine.now tb.r_engine
        | _ -> ());
      Corona.Client.create_group cls.(0) ~group:"g" ~k:(fun _ -> ()) ();
      Corona.Client.join cls.(0) ~group:"g"
        ~k:(fun _ ->
          join_sent_at := Sim.Engine.now tb.r_engine;
          Corona.Client.join cls.(1) ~group:"g" ~k:(fun _ -> ()) ())
        ());
  Testbed.run_until tb.r_engine (fun () -> not (Float.is_nan !noticed_at));
  !noticed_at -. !join_sent_at

let run_relaxation () =
  Report.section
    "Sequencer relaxation (§4.1) — local membership notification latency";
  Report.note
    "time from a co-located client's join request to an existing local member's notification";
  Report.table
    ~header:[ "mode"; "notification latency (ms)" ]
    [
      [ "total order (via coordinator)"; Report.ms (measure_relaxation ~relaxed:false ()) ];
      [ "relaxed (notified by the local replica)"; Report.ms (measure_relaxation ~relaxed:true ()) ];
    ]

(* --- election algorithm comparison on the abstract harness -------------- *)

type election_run = { algorithm : string; n : int; messages : int; time : float; winner : string }

let run_election_timed (module A : Replication.Election.ALGORITHM) ~n ~seed =
  (* Like [run_election] but watches the clock of the final decision. *)
  let engine = Sim.Engine.create ~seed () in
  let all = List.init n (Printf.sprintf "s%02d") in
  let dead = [ List.hd all ] in
  let messages = ref 0 in
  let outcomes : (string, string * float) Hashtbl.t = Hashtbl.create 8 in
  let instances : (string, A.t) Hashtbl.t = Hashtbl.create 8 in
  let is_alive s = not (List.mem s dead) in
  List.iter
    (fun self ->
      if is_alive self then begin
        let env =
          {
            Replication.Election.self;
            all;
            is_alive;
            send =
              (fun ~dst msg ->
                incr messages;
                if is_alive dst then
                  ignore
                    (Sim.Engine.schedule engine ~delay:0.001 (fun () ->
                         match Hashtbl.find_opt instances dst with
                         | Some inst -> A.handle inst ~from:self msg
                         | None -> ())));
            schedule = (fun ~delay f -> ignore (Sim.Engine.schedule engine ~delay f));
            on_elected =
              (fun winner ->
                if not (Hashtbl.mem outcomes self) then
                  Hashtbl.replace outcomes self (winner, Sim.Engine.now engine));
          }
        in
        Hashtbl.replace instances self (A.create env)
      end)
    all;
  Hashtbl.iter (fun _ inst -> A.start inst) instances;
  Sim.Engine.run ~until:30.0 engine;
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) outcomes [] in
  let winner = match entries with (w, _) :: _ -> w | [] -> "<none>" in
  let agreed = List.for_all (fun (w, _) -> w = winner) entries in
  if (not agreed) || List.length entries <> n - 1 then
    failwith (Printf.sprintf "%s with n=%d did not converge" A.name n);
  let time = List.fold_left (fun acc (_, at) -> max acc at) 0.0 entries in
  { algorithm = A.name; n; messages = !messages; time; winner }

let run_elections () =
  Report.section "Election algorithms (§4.2) — list-order vs bully vs ring";
  Report.note
    "coordinator (first in list) dead, all others start; 1 ms links; winner must be unanimous";
  let algos : (module Replication.Election.ALGORITHM) list =
    [ (module Replication.Election.List_order);
      (module Replication.Election.Bully);
      (module Replication.Election.Ring) ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun algo ->
            let r = run_election_timed algo ~n ~seed:37L in
            [
              r.algorithm;
              string_of_int r.n;
              string_of_int r.messages;
              Report.ms r.time;
              r.winner;
            ])
          algos)
      [ 3; 7; 15 ]
  in
  Report.table ~header:[ "algorithm"; "servers"; "messages"; "time (ms)"; "winner" ] rows

let run () =
  run_failover ();
  run_relaxation ();
  run_elections ()
