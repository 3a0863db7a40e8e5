(* Integration tests for the replicated Corona service: star sequencing,
   state fetch ordering, failover election, re-replication, and partition
   reconciliation. *)

module T = Proto.Types

type world = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  cluster : Replication.Cluster.t;
  client_hosts : Net.Host.t array;
}

let make_world ?(seed = 7L) ?(replicas = 3) ?(clients = 6) ?config ?hooks () =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Net.Fabric.create engine in
  let cluster = Replication.Cluster.create fabric ?config ?hooks ~replicas () in
  let client_hosts =
    Array.init clients (fun i ->
        Net.Fabric.add_host fabric ~name:(Printf.sprintf "cl-%d" i)
          ~cpu:Net.Host.sparc20 ())
  in
  { engine; fabric; cluster; client_hosts }

let connect w ~idx ~member k =
  let replica = Replication.Cluster.replica_for w.cluster idx in
  Corona.Client.connect w.fabric ~host:w.client_hosts.(idx)
    ~server:(Replication.Node.host replica) ~member ~on_connected:k
    ~on_failed:(fun () -> Alcotest.failf "connect failed for %s" member)
    ()

let expect_ok name = function
  | Corona.Client.R_ok -> ()
  | Corona.Client.R_failed reason -> Alcotest.failf "%s failed: %s" name reason
  | _ -> Alcotest.failf "%s: unexpected reply" name

let expect_join name = function
  | Corona.Client.R_join { at_seqno; members } -> (at_seqno, members)
  | Corona.Client.R_failed reason -> Alcotest.failf "%s failed: %s" name reason
  | _ -> Alcotest.failf "%s: unexpected reply" name

let run ?until w = Sim.Engine.run ?until w.engine

(* Two clients on different replicas exchange updates through the
   coordinator; both replicas end with identical copies. *)
let test_cross_replica_multicast () =
  let w = make_world () in
  let got_a = ref [] and got_b = ref [] in
  let record cell = fun _ -> function
    | Corona.Client.Delivered u -> cell := u.T.data :: !cell
    | _ -> ()
  in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (record got_a);
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join a" r);
          connect w ~idx:1 ~member:"b" (fun b ->
              (* b replies only after seeing a's update, so the order is
                 causal, not racy. *)
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Delivered u ->
                    got_b := u.T.data :: !got_b;
                    if u.T.data = "from-a" then
                      Corona.Client.bcast_update b ~group:"g" ~obj:"o" ~data:"+b" ()
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun r ->
                  ignore (expect_join "join b" r);
                  Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:"from-a" ())
                ()))
        ());
  run ~until:30.0 w;
  Alcotest.(check (list string)) "a sees both in order" [ "from-a"; "+b" ] (List.rev !got_a);
  Alcotest.(check (list string)) "b sees both in order" [ "from-a"; "+b" ] (List.rev !got_b);
  (* Both replicas hold identical state copies. *)
  let r0 = Replication.Cluster.replica_for w.cluster 0 in
  let r1 = Replication.Cluster.replica_for w.cluster 1 in
  let state n =
    Option.map
      (fun s -> Corona.Shared_state.get s "o")
      (Replication.Node.group_state n "g")
  in
  Alcotest.(check (option (option string))) "replica 0 copy" (Some (Some "from-a+b")) (state r0);
  Alcotest.(check (option (option string))) "replica 1 copy" (Some (Some "from-a+b")) (state r1)

(* A late joiner on a third replica gets the state via the
   coordinator-ordered fetch. *)
let test_state_fetch_on_new_replica () =
  let w = make_world () in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~initial:[ ("o", "base") ]
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join a" r);
          Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"+1" ();
          connect w ~idx:2 ~member:"c" (fun c ->
              Corona.Client.join c ~group:"g"
                ~k:(fun r ->
                  ignore (expect_join "join c" r);
                  let st = Option.get (Corona.Client.replica c "g") in
                  (* c's replica had no copy; state came from a's replica. *)
                  match Corona.Shared_state.get st "o" with
                  | Some ("base" | "base+1") -> ()
                  | other ->
                      Alcotest.failf "unexpected transferred state %s"
                        (Option.value other ~default:"<none>"))
                ()))
        ());
  run ~until:30.0 w;
  (* Eventually all copies converge. *)
  let r2 = Replication.Cluster.replica_for w.cluster 2 in
  match Replication.Node.group_state r2 "g" with
  | Some st ->
      Alcotest.(check (option string)) "converged" (Some "base+1")
        (Corona.Shared_state.get st "o")
  | None -> Alcotest.fail "replica 2 holds no copy"

(* The state blob for a new holder can overtake its [Add_replica]. The
   group is created at srv-1; the coordinator (srv-0) names srv-2 its
   backup and asks srv-1 for the copy. srv-2 is cut off while both
   messages leave, then only srv-0 is, while both are resent: srv-1's blob
   reaches srv-2 before srv-2 knows the group, and [Add_replica] arrives
   after the heal. srv-2 must seed its copy from the early blob, so a
   client joining there is answered and the copies agree. *)
let test_early_state_blob_kept () =
  let w = make_world () in
  let a_client = ref None and joined = ref false in
  connect w ~idx:0 ~member:"a" (fun a ->
      a_client := Some a;
      Net.Fabric.partition w.fabric [ [ "srv-2" ]; [ "srv-0"; "srv-1"; "cl-0"; "cl-1" ] ];
      ignore
        (Sim.Engine.schedule w.engine ~delay:0.2 (fun () ->
             Net.Fabric.partition w.fabric
               [ [ "srv-0" ]; [ "srv-1"; "srv-2"; "cl-0"; "cl-1" ] ]));
      ignore (Sim.Engine.schedule w.engine ~delay:0.7 (fun () -> Net.Fabric.heal w.fabric));
      Corona.Client.create_group a ~group:"g" ~initial:[ ("o", "base") ]
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~k:(fun r -> ignore (expect_join "join a" r)) ());
  run ~until:0.8 w;
  let r1 = Replication.Cluster.replica_for w.cluster 0 in
  let r2 = Replication.Cluster.replica_for w.cluster 1 in
  Alcotest.(check string) "creator's replica" "srv-1" (Replication.Node.id r1);
  Alcotest.(check string) "backup replica" "srv-2" (Replication.Node.id r2);
  Alcotest.(check bool) "srv-2 has no copy before Add_replica" true
    (Replication.Node.group_state r2 "g" = None);
  connect w ~idx:1 ~member:"b" (fun b ->
      Corona.Client.join b ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join b" r);
          joined := true;
          Corona.Client.bcast_update (Option.get !a_client) ~group:"g" ~obj:"o" ~data:"+1" ())
        ());
  run ~until:30.0 w;
  Alcotest.(check bool) "join at srv-2 answered" true !joined;
  let digest n = Option.map Corona.Shared_state.digest (Replication.Node.group_state n "g") in
  Alcotest.(check (option string)) "srv-2's copy is srv-1's" (digest r1) (digest r2);
  Alcotest.(check (option (option string))) "the write reached srv-2" (Some (Some "base+1"))
    (Option.map (fun s -> Corona.Shared_state.get s "o") (Replication.Node.group_state r2 "g"))

(* Heavy interleaving from three senders on three replicas: every member
   sees the same total order. *)
let test_total_order_three_replicas () =
  let w = make_world () in
  let logs = Array.make 3 [] in
  let record i = fun _ -> function
    | Corona.Client.Delivered u -> logs.(i) <- (u.T.seqno, u.T.data) :: logs.(i)
    | _ -> ()
  in
  let burst cl tag =
    for i = 0 to 9 do
      Corona.Client.bcast_update cl ~group:"g" ~obj:"o"
        ~data:(Printf.sprintf "%s%d" tag i) ()
    done
  in
  connect w ~idx:0 ~member:"m0" (fun c0 ->
      Corona.Client.set_on_event c0 (record 0);
      Corona.Client.create_group c0 ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join c0 ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:1 ~member:"m1" (fun c1 ->
              Corona.Client.set_on_event c1 (record 1);
              Corona.Client.join c1 ~group:"g"
                ~k:(fun _ ->
                  connect w ~idx:2 ~member:"m2" (fun c2 ->
                      Corona.Client.set_on_event c2 (record 2);
                      Corona.Client.join c2 ~group:"g"
                        ~k:(fun _ ->
                          burst c0 "a";
                          burst c1 "b";
                          burst c2 "c")
                        ()))
                ()))
        ());
  run ~until:60.0 w;
  let seq i = List.rev logs.(i) in
  Alcotest.(check int) "m0 got 30" 30 (List.length (seq 0));
  Alcotest.(check bool) "same order 0=1" true (seq 0 = seq 1);
  Alcotest.(check bool) "same order 1=2" true (seq 1 = seq 2);
  let seqnos = List.map fst (seq 0) in
  Alcotest.(check (list int)) "gapless total order" (List.init 30 Fun.id) seqnos

(* §4.1 relaxation: the origin replica notifies its local clients of a
   join before the coordinator round-trip; remote clients still hear it
   exactly once. *)
let test_relaxed_membership_notification () =
  let config =
    { Replication.Node.default_config with relaxed_membership = true }
  in
  let w = make_world ~config () in
  let a_events = ref 0 and done_ = ref false in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Membership_changed
            { change = T.Member_joined { member = "b"; _ }; _ } ->
            incr a_events
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:1 ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g"
                ~k:(fun _ -> done_ := true)
                ()))
        ());
  run ~until:20.0 w;
  Alcotest.(check bool) "join completed" true !done_;
  Alcotest.(check int) "a notified exactly once" 1 !a_events

(* §4.1 relaxation: the coordinator skips the origin when it fans a relaxed
   leave, so the origin applies the leave to its own copy of the list: a
   later Get_membership there no longer lists the member who left, and a
   co-located subscriber's view agrees. *)
let test_relaxed_leave_updates_origin_view () =
  let config =
    { Replication.Node.default_config with relaxed_membership = true }
  in
  let w = make_world ~config () in
  let listed = ref None and view = ref [] in
  (* idx 0 and idx 3 share a replica *)
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:3 ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.leave b ~group:"g" ~k:(fun _ ->
                      ignore
                        (Sim.Engine.schedule w.engine ~delay:2.0 (fun () ->
                             view := Corona.Client.members a ~group:"g";
                             Corona.Client.get_membership a ~group:"g" ~k:(function
                               | Corona.Client.R_membership ms ->
                                   listed :=
                                     Some (List.map (fun (m : T.member) -> m.member) ms)
                               | _ -> Alcotest.fail "expected membership")))))
                ()))
        ());
  run ~until:20.0 w;
  Alcotest.(check (option (list string))) "origin lists a alone" (Some [ "a" ]) !listed;
  Alcotest.(check (list string)) "a's view" [ "a" ]
    (List.map (fun (m : T.member) -> m.member) !view)

(* §4.1 relaxation: co-located subscribers hear of a join before the
   coordinator decides on it, so a join the coordinator refuses is taken
   back with a leave: the subscriber's view and the origin's list end
   without the refused member. *)
let test_relaxed_refused_join_taken_back () =
  let config =
    {
      Replication.Node.default_config with
      relaxed_membership = true;
      access =
        Corona.Access_control.(with_join_allowlist allow_all [ ("g", [ "a" ]) ]);
    }
  in
  let w = make_world ~config () in
  let changes = ref [] and refused = ref false and listed = ref None and view = ref [] in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Membership_changed { change; _ } -> changes := change :: !changes
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:3 ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g"
                ~k:(fun r ->
                  refused := (match r with Corona.Client.R_failed _ -> true | _ -> false);
                  view := Corona.Client.members a ~group:"g";
                  Corona.Client.get_membership a ~group:"g" ~k:(function
                    | Corona.Client.R_membership ms ->
                        listed := Some (List.map (fun (m : T.member) -> m.member) ms)
                    | _ -> Alcotest.fail "expected membership"))
                ()))
        ());
  run ~until:20.0 w;
  Alcotest.(check bool) "b refused" true !refused;
  (match List.rev !changes with
  | [ T.Member_joined { member = "b"; _ }; T.Member_left "b" ] -> ()
  | _ -> Alcotest.fail "expected +b then -b");
  Alcotest.(check (list string)) "a's view" [ "a" ]
    (List.map (fun (m : T.member) -> m.member) !view);
  Alcotest.(check (option (list string))) "origin lists a alone" (Some [ "a" ]) !listed

(* Kill the coordinator mid-run: the first replica takes over, pending
   broadcasts are re-sent, and the service continues. *)
let test_coordinator_failover () =
  let w = make_world ~replicas:3 () in
  let delivered = ref [] in
  let phase2 = ref (fun () -> ()) in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered u -> delivered := u.T.data :: !delivered
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"before" ();
          phase2 :=
            fun () -> Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"after" ())
        ());
  (* Let 'before' flow, then crash srv-0 (the coordinator). *)
  run ~until:2.0 w;
  let coord_host = Replication.Node.host (Replication.Cluster.node w.cluster "srv-0") in
  Net.Host.crash coord_host;
  (* Send another update while the cluster is headless; it sits in the
     origin replica's pending queue until the new coordinator emerges. *)
  !phase2 ();
  run ~until:30.0 w;
  Alcotest.(check (list string)) "both updates survive failover"
    [ "before"; "after" ] (List.rev !delivered);
  let new_coord = Replication.Cluster.coordinator w.cluster in
  Alcotest.(check string) "first live server took over" "srv-1"
    (Replication.Node.id new_coord)

(* Kill a replica holding the only... actually one of two copies: the
   coordinator must re-replicate to restore two holders, and the crashed
   replica's clients are reported crashed. *)
let test_replica_crash_rereplication () =
  let w = make_world ~replicas:3 () in
  let crash_seen = ref [] in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Membership_changed { change = T.Member_crashed m; _ } ->
            crash_seen := m :: !crash_seen
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~initial:[ ("o", "V") ]
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:1 ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g" ~k:(fun _ -> ()) ()))
        ());
  run ~until:3.0 w;
  (* Replica of client b (srv-2, round robin: idx1 -> srv-2) holds a copy;
     crash it. *)
  let victim = Replication.Cluster.replica_for w.cluster 1 in
  Net.Host.crash (Replication.Node.host victim);
  run ~until:30.0 w;
  Alcotest.(check (list string)) "b reported crashed" [ "b" ] !crash_seen;
  (* Some other live server now holds a second copy. *)
  let holders =
    List.filter
      (fun n ->
        Replication.Node.id n <> Replication.Node.id victim
        && List.mem "g" (Replication.Node.groups_held n))
      (Replication.Cluster.live_nodes w.cluster)
  in
  Alcotest.(check bool)
    (Printf.sprintf "two live copies (got %d)" (List.length holders))
    true
    (List.length holders >= 2)

(* Partition the cluster, let both sides evolve, heal, reconcile with each
   policy. *)
let test_partition_and_reconcile () =
  let w = make_world ~replicas:3 ~clients:4 () in
  let ca = ref None and cb = ref None in
  connect w ~idx:0 ~member:"a" (fun a ->
      ca := Some a;
      Corona.Client.create_group a ~group:"g" ~initial:[ ("o", "base:") ]
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:1 ~member:"b" (fun b ->
              cb := Some b;
              Corona.Client.join b ~group:"g" ~k:(fun _ -> ()) ()))
        ());
  run ~until:3.0 w;
  let a = Option.get !ca and b = Option.get !cb in
  (* Client a is on srv-1, client b on srv-2 (round-robin).  Partition:
     {srv-0, srv-1, cl-0} vs {srv-2, srv-3, cl-1}. *)
  Net.Fabric.partition w.fabric
    [ [ "srv-0"; "srv-1"; "cl-0"; "cl-2" ]; [ "srv-2"; "srv-3"; "cl-1"; "cl-3" ] ];
  (* Both sides keep updating. Side B must first elect its own coordinator. *)
  Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"A1;" ();
  run ~until:10.0 w;
  Corona.Client.bcast_update b ~group:"g" ~obj:"o" ~data:"B1;" ();
  Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"A2;" ();
  run ~until:25.0 w;
  (* Side B elected srv-2 as its coordinator. *)
  let side_b_coord = Replication.Cluster.node w.cluster "srv-2" in
  Alcotest.(check bool) "minority side elected its own coordinator" true
    (Replication.Node.role side_b_coord = Replication.Node.Coordinator);
  let n1 = Replication.Cluster.node w.cluster "srv-1" in
  let sa =
    Corona.Shared_state.get (Option.get (Replication.Node.group_state n1 "g")) "o"
  in
  let sb =
    Corona.Shared_state.get
      (Option.get (Replication.Node.group_state side_b_coord "g"))
      "o"
  in
  Alcotest.(check (option string)) "side A state" (Some "base:A1;A2;") sa;
  Alcotest.(check (option string)) "side B state" (Some "base:B1;") sb;
  (* Heal and reconcile by adopting side A. *)
  Net.Fabric.heal w.fabric;
  let d =
    Replication.Cluster.reconcile w.cluster ~group:"g" ~side_a:n1
      ~side_b:side_b_coord ~resolution:Replication.Reconcile.Adopt_a
  in
  Alcotest.(check bool) "divergence detected" false (Replication.Reconcile.is_consistent d);
  run ~until:40.0 w;
  List.iter
    (fun n ->
      match Replication.Node.group_state n "g" with
      | Some st ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s adopted side A" (Replication.Node.id n))
            (Some "base:A1;A2;")
            (Corona.Shared_state.get st "o")
      | None -> ())
    (Replication.Cluster.live_nodes w.cluster)

(* Locks are coordinator-owned: grant/busy/handoff works across replicas. *)
let test_locks_across_replicas () =
  let w = make_world () in
  let later = ref [] in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:1 ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Lock_granted_later { lock; _ } -> later := lock :: !later
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.acquire_lock a ~group:"g" ~lock:"pen" ~k:(function
                    | Corona.Client.R_lock `Granted ->
                        Corona.Client.acquire_lock b ~group:"g" ~lock:"pen"
                          ~k:(function
                            | Corona.Client.R_lock (`Busy "a") ->
                                Corona.Client.release_lock a ~group:"g" ~lock:"pen"
                                  ~k:(fun _ -> ())
                            | _ -> Alcotest.fail "expected busy by a")
                    | _ -> Alcotest.fail "expected grant"))
                ()))
        ());
  run ~until:20.0 w;
  Alcotest.(check (list string)) "handoff crossed replicas" [ "pen" ] !later

(* Group deletion propagates to every replica and client. *)
let test_delete_group_cluster_wide () =
  let w = make_world () in
  let b_saw_delete = ref false in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect w ~idx:1 ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Group_was_deleted "g" -> b_saw_delete := true
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.delete_group a ~group:"g" ~k:(fun _ -> ()))
                ()))
        ());
  run ~until:20.0 w;
  Alcotest.(check bool) "b notified" true !b_saw_delete;
  List.iter
    (fun n ->
      Alcotest.(check (list string))
        (Replication.Node.id n ^ " dropped the group")
        []
        (List.filter (( = ) "g") (Replication.Node.groups_held n)))
    (Replication.Cluster.live_nodes w.cluster)

(* [a] creates g, joins it with [role] and writes o := x on a cluster of
   [shards] shards under [access]; the value of o at every live copy. *)
let write_outcome ~shards ?(access = Corona.Access_control.allow_all) ~role () =
  let config = { Replication.Node.default_config with shards; access } in
  let w = make_world ~config () in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~role
        ~k:(fun r ->
          ignore (expect_join "join" r);
          Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:"x" ())
        ());
  run ~until:20.0 w;
  List.filter_map
    (fun n ->
      Option.map (List.assoc_opt "o") (Replication.Node.group_shard_objects n "g"))
    (Replication.Cluster.live_nodes w.cluster)

let expect_write name ~applied copies =
  Alcotest.(check bool) (name ^ ": copies held") true (List.length copies >= 2);
  List.iter
    (Alcotest.(check (option string)) name (if applied then Some "x" else None))
    copies

(* Observers may not update, nor may anyone [can_update] denies, as
   [Server.handle_bcast] rules. Classic, the coordinator refuses the write;
   sharded, the origin replica does, since the shard owner need not know
   the directory. *)
let test_observer_rejected_at_coordinator () =
  let read_only =
    {
      Corona.Access_control.allow_all with
      can_update = (fun _ _ -> Corona.Access_control.Deny "read-only");
    }
  in
  List.iter
    (fun shards ->
      let name what = Printf.sprintf "%s, %d shard(s)" what shards in
      expect_write (name "principal's write") ~applied:true
        (write_outcome ~shards ~role:T.Principal ());
      expect_write (name "observer's write") ~applied:false
        (write_outcome ~shards ~role:T.Observer ());
      expect_write (name "write can_update denies") ~applied:false
        (write_outcome ~shards ~access:read_only ~role:T.Principal ()))
    [ 1; 2 ]

(* The paper's k-crash tolerance on the real cluster: coordinator and the
   next server die together; the third takes over via the escalating
   timeout. *)
let test_double_crash_escalation () =
  let w = make_world ~replicas:4 () in
  let got = ref [] in
  connect w ~idx:1 ~member:"a" (fun a ->
      (* Client on srv-2, away from both victims. *)
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered u -> got := u.T.data :: !got
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ -> Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"pre" ())
        ());
  run ~until:3.0 w;
  Net.Host.crash (Replication.Node.host (Replication.Cluster.node w.cluster "srv-0"));
  Net.Host.crash (Replication.Node.host (Replication.Cluster.node w.cluster "srv-1"));
  run ~until:30.0 w;
  let coord = Replication.Cluster.coordinator w.cluster in
  Alcotest.(check string) "third server took over" "srv-2" (Replication.Node.id coord);
  Alcotest.(check (list string)) "pre-crash update survived" [ "pre" ] !got

(* Partition-style failure: no TCP reset, detection must come from the
   heartbeat timeout alone. *)
let test_heartbeat_only_detection () =
  let w = make_world ~replicas:2 () in
  let got = ref [] in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered u -> got := u.T.data :: !got
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ -> Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"pre" ())
        ());
  run ~until:3.0 w;
  (* Cut the coordinator off instead of crashing it: connections stall
     silently, so only the heartbeat timeout can trigger the election. *)
  Net.Fabric.partition w.fabric [ [ "srv-0" ]; [ "srv-1"; "srv-2"; "cl-0"; "cl-1" ] ];
  run ~until:30.0 w;
  let coord =
    List.find
      (fun n -> Replication.Node.id n <> "srv-0"
                && Replication.Node.role n = Replication.Node.Coordinator)
      (Replication.Cluster.nodes w.cluster)
  in
  Alcotest.(check string) "majority side elected" "srv-1" (Replication.Node.id coord)

(* Randomized soak: several clients on different replicas fire interleaved
   bursts with random sizes/targets — optionally with the coordinator
   crashing mid-traffic; after quiescence every live holder's copy of every
   group must be byte-identical and gapless. *)
let soak_once ?(crash_coordinator = false) ~seed () =
  let w = make_world ~seed ~replicas:3 ~clients:3 () in
  let rng = Sim.Rng.create seed in
  let groups = [ "g0"; "g1" ] in
  let clients = ref [] in
  connect w ~idx:0 ~member:"m0" (fun c0 ->
      clients := [ c0 ];
      Corona.Client.create_group c0 ~group:"g0" ~k:(fun _ -> ()) ();
      Corona.Client.create_group c0 ~group:"g1" ~k:(fun _ -> ()) ();
      Corona.Client.join c0 ~group:"g0"
        ~k:(fun _ ->
          Corona.Client.join c0 ~group:"g1"
            ~k:(fun _ ->
              connect w ~idx:1 ~member:"m1" (fun c1 ->
                  clients := c1 :: !clients;
                  Corona.Client.join c1 ~group:"g0"
                    ~k:(fun _ ->
                      connect w ~idx:2 ~member:"m2" (fun c2 ->
                          clients := c2 :: !clients;
                          Corona.Client.join c2 ~group:"g1" ~k:(fun _ -> ()) ()))
                    ()))
            ())
        ());
  run ~until:3.0 w;
  if crash_coordinator then
    ignore
      (Sim.Engine.schedule w.engine ~delay:0.2 (fun () ->
           Net.Host.crash
             (Replication.Node.host (Replication.Cluster.node w.cluster "srv-0"))));
  (* Random interleaved traffic. *)
  List.iter
    (fun cl ->
      let joined = Corona.Client.joined_groups cl in
      for i = 0 to 20 + Sim.Rng.int rng 20 do
        match joined with
        | [] -> ()
        | _ ->
            let group = List.nth joined (Sim.Rng.int rng (List.length joined)) in
            let obj = Printf.sprintf "o%d" (Sim.Rng.int rng 3) in
            let data =
              Printf.sprintf "%s/%s#%d;" (Corona.Client.member cl) obj i
            in
            if Sim.Rng.bool rng then
              Corona.Client.bcast_update cl ~group ~obj ~data ()
            else
              ignore
                (Sim.Engine.schedule w.engine
                   ~delay:(Sim.Rng.float rng 0.5)
                   (fun () -> Corona.Client.bcast_update cl ~group ~obj ~data ()))
      done)
    !clients;
  run ~until:30.0 w;
  (* Convergence: all holders of a group agree byte-for-byte and at the same
     position. *)
  List.iter
    (fun group ->
      let copies =
        List.filter_map
          (fun n ->
            match Replication.Node.group_state n group with
            | Some st ->
                Some
                  ( Replication.Node.id n,
                    Corona.Shared_state.objects st,
                    Replication.Node.group_next_seqno n group )
            | None -> None)
          (Replication.Cluster.live_nodes w.cluster)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: >=2 copies of %s" seed group)
        true
        (List.length copies >= 2);
      match copies with
      | (_, ref_objs, ref_pos) :: rest ->
          List.iter
            (fun (id, objs, pos) ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %Ld: %s state of %s converged" seed id group)
                true
                (objs = ref_objs && pos = ref_pos))
            rest
      | [] -> ())
    groups

let test_random_soak_convergence () =
  List.iter (fun seed -> soak_once ~seed ()) [ 101L; 202L; 303L; 404L; 505L ]

let test_random_soak_with_failover () =
  List.iter
    (fun seed -> soak_once ~crash_coordinator:true ~seed ())
    [ 606L; 707L; 808L ]

(* A coordinator crash in the middle of a sequenced fan-out: the batch for
   seqno 25 reached two of the six live copies, so 0.15 s after the crash
   their next seqnos still split 26/25 (asserted, so the case cannot quietly
   stop splitting) and recovery must repair the others. The writer's replica
   then re-sent its forward; the new coordinator must not sequence it a
   second time. Every member sees a gapless, duplicate-free stream and every
   live copy agrees. *)
let test_crash_mid_fanout_no_seqno_hole () =
  let tb = Workload.Testbed.replicated ~seed:7L ~replicas:6 ~client_machines:6 () in
  let c = tb.r_cluster and engine = tb.r_engine in
  let seen = Array.make 6 [] in
  let start = ref infinity and split = ref [] in
  Workload.Testbed.spawn_clients tb.r_fabric ~hosts:tb.r_client_hosts
    ~server_for:(fun i -> Replication.Node.host (Replication.Cluster.replica_for c i))
    ~n:6
    (fun cls ->
      Array.iteri
        (fun i cl ->
          Corona.Client.set_on_event cl (fun _ -> function
            | Corona.Client.Delivered u -> seen.(i) <- u.T.seqno :: seen.(i)
            | _ -> ()))
        cls;
      Corona.Client.create_group cls.(0) ~group:"g" ~k:(expect_ok "create") ();
      Workload.Testbed.join_all cls ~group:"g" (fun () ->
          start := Sim.Engine.now engine;
          (* the member on srv-2 writes *)
          for k = 0 to 49 do
            ignore
              (Sim.Engine.schedule engine ~delay:(0.02 *. float_of_int k) (fun () ->
                   Corona.Client.bcast_update cls.(1) ~group:"g" ~obj:"o"
                     ~data:(Printf.sprintf "%d;" k) ()))
          done;
          let crash = !start +. 0.5 +. 3.5e-3 in
          Net.Fault.crash_at tb.r_fabric
            (Replication.Node.host (Replication.Cluster.node c "srv-0"))
            ~at:crash;
          ignore
            (Sim.Engine.schedule engine ~delay:(crash +. 0.15 -. !start) (fun () ->
                 split :=
                   List.filter_map
                     (fun n -> Replication.Node.group_next_seqno n "g")
                     (Replication.Cluster.live_nodes c)))));
  Workload.Testbed.run_until engine (fun () -> Sim.Engine.now engine > !start +. 20.0);
  Alcotest.(check bool)
    (Printf.sprintf "live copies split by the crash (next seqnos %s)"
       (String.concat "," (List.map string_of_int !split)))
    true
    (List.length (List.sort_uniq Int.compare !split) > 1);
  Array.iteri
    (fun i l ->
      Alcotest.(check (list int))
        (Printf.sprintf "member on srv-%d: gapless, no duplicates" (i + 1))
        (List.init 50 Fun.id) (List.rev l))
    seen;
  match
    List.filter_map
      (fun n ->
        match
          (Replication.Node.group_state n "g", Replication.Node.group_next_seqno n "g")
        with
        | Some s, Some q -> Some (Corona.Shared_state.digest s, q)
        | _ -> None)
      (Replication.Cluster.live_nodes c)
  with
  | first :: rest ->
      List.iter
        (fun copy -> Alcotest.(check bool) "live copies equal" true (copy = first))
        rest
  | [] -> Alcotest.fail "no live copy"

(* Count the view changes a client hears, per group. *)
let count_views cell = fun _ -> function
  | Corona.Client.Membership_changed { group; _ } -> cell := group :: !cell
  | _ -> ()

(* A member that joined with [notify = false] hears no view change, as on
   the single server. *)
let test_notify_flag_honoured () =
  let w = make_world () in
  let a_views = ref [] and done_ = ref false in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.set_on_event a (count_views a_views);
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~notify:false
        ~k:(fun _ ->
          connect w ~idx:0 ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g"
                ~k:(fun _ -> Corona.Client.leave b ~group:"g" ~k:(fun _ -> done_ := true))
                ()))
        ());
  run ~until:20.0 w;
  Alcotest.(check bool) "b joined and left" true !done_;
  Alcotest.(check int) "a heard no view change" 0 (List.length !a_views)

(* Notifications to relay-fronted members collapse into one [Relay_fanout]
   per relay, like every other fan-out. *)
let test_relay_fronted_notification () =
  let w = make_world () in
  let node = Replication.Cluster.replica_for w.cluster 0 in
  let relay_host = Net.Fabric.add_host w.fabric ~name:"relay-0" () in
  let frames () = (Replication.Node.stats node).relay_frames_sent in
  let before = ref (-1) and after = ref (-1) in
  let via_relay member k =
    Corona.Client.connect w.fabric ~host:w.client_hosts.(1) ~server:relay_host ~member
      ~on_connected:k
      ~on_failed:(fun () -> Alcotest.failf "connect failed for %s" member)
      ()
  in
  ignore
    (Corona.Relay.create w.fabric relay_host ~relay:"relay-0"
       ~root:(Replication.Node.host node)
       ~on_ready:(fun _ ->
         via_relay "r1" (fun r1 ->
             Corona.Client.create_group r1 ~group:"g" ~k:(expect_ok "create") ();
             Corona.Client.join r1 ~group:"g"
               ~k:(fun _ ->
                 via_relay "r2" (fun r2 ->
                     Corona.Client.join r2 ~group:"g"
                       ~k:(fun _ ->
                         before := frames ();
                         connect w ~idx:0 ~member:"d" (fun d ->
                             Corona.Client.join d ~group:"g"
                               ~k:(fun _ ->
                                 ignore
                                   (Sim.Engine.schedule w.engine ~delay:1.0 (fun () ->
                                        after := frames ())))
                               ()))
                       ()))
               ()))
       ~on_failed:(fun () -> Alcotest.fail "relay could not reach the node")
       ());
  run ~until:20.0 w;
  Alcotest.(check bool) "join observed" true (!before >= 0 && !after >= 0);
  Alcotest.(check int) "one frame per relay for the join" 1 (!after - !before)

(* A member in two of three groups disconnects: exactly those two groups
   see one leave each, and every other subscribed member hears each leave
   once; a non-subscriber hears nothing. *)
let test_disconnect_leaves_only_own_groups () =
  let w = make_world () in
  let y_views = ref [] and z_views = ref [] and q_views = ref [] in
  let xc = ref None in
  let join cl group ?notify k = Corona.Client.join cl ~group ?notify ~k:(fun _ -> k ()) () in
  connect w ~idx:0 ~member:"y" (fun y ->
      Corona.Client.set_on_event y (count_views y_views);
      List.iter
        (fun g -> Corona.Client.create_group y ~group:g ~k:(expect_ok "create") ())
        [ "g1"; "g2"; "g3" ];
      join y "g1" (fun () ->
          join y "g2" (fun () ->
              join y "g3" (fun () ->
                  connect w ~idx:1 ~member:"z" (fun z ->
                      Corona.Client.set_on_event z (count_views z_views);
                      join z "g1" (fun () ->
                          join z "g3" (fun () ->
                              connect w ~idx:0 ~member:"q" (fun q ->
                                  Corona.Client.set_on_event q (count_views q_views);
                                  join q "g1" ~notify:false (fun () ->
                                      connect w ~idx:0 ~member:"x" (fun x ->
                                          xc := Some x;
                                          join x "g1" (fun () ->
                                              join x "g2" (fun () ->
                                                  y_views := [];
                                                  z_views := [];
                                                  q_views := []))))))))))));
  run ~until:10.0 w;
  Corona.Client.disconnect (Option.get !xc);
  run ~until:20.0 w;
  let sorted l = List.sort String.compare !l in
  Alcotest.(check (list string)) "y: one leave in g1 and g2" [ "g1"; "g2" ] (sorted y_views);
  Alcotest.(check (list string)) "z: one leave in g1" [ "g1" ] (sorted z_views);
  Alcotest.(check (list string)) "q: not subscribed" [] (sorted q_views);
  List.iter
    (fun (g, expected) ->
      let members =
        List.concat_map
          (fun n -> Replication.Node.group_local_members n g)
          (Replication.Cluster.live_nodes w.cluster)
      in
      Alcotest.(check (list string))
        (g ^ " members after the disconnect")
        expected
        (List.sort String.compare (List.map (fun (m : T.member) -> m.member) members)))
    [ ("g1", [ "q"; "y"; "z" ]); ("g2", [ "y" ]); ("g3", [ "y"; "z" ]) ]

(* A delete is answered and then forgotten. Client a (srv-1) creates g and
   deletes it without ever joining; b re-creates g as persistent; then the
   coordinator crashes. The new coordinator must not receive a's delete
   again (re-sent from srv-1's pending table), which would wipe b's group.
   A refused delete is answered too. *)
let test_delete_answered_and_forgotten () =
  let w = make_world ~replicas:3 () in
  let deleted = ref None and refused = ref None and recreated = ref false in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g"
        ~k:(fun r ->
          expect_ok "create" r;
          Corona.Client.delete_group a ~group:"g" ~k:(fun r -> deleted := Some r))
        ();
      Corona.Client.delete_group a ~group:"nope" ~k:(fun r -> refused := Some r));
  run ~until:1.0 w;
  connect w ~idx:1 ~member:"b" (fun b ->
      Corona.Client.create_group b ~group:"g" ~persistent:true
        ~k:(fun r ->
          expect_ok "re-create" r;
          recreated := true)
        ());
  run ~until:3.0 w;
  Alcotest.(check bool) "g re-created" true !recreated;
  Net.Host.crash (Replication.Node.host (Replication.Cluster.node w.cluster "srv-0"));
  run ~until:30.0 w;
  Alcotest.(check bool) "re-created g survives the takeover" true
    (List.exists
       (fun n -> List.mem "g" (Replication.Node.groups_held n))
       (Replication.Cluster.live_nodes w.cluster));
  Alcotest.(check bool) "delete answered" true (!deleted = Some Corona.Client.R_ok);
  Alcotest.(check bool) "refused delete answered" true
    (match !refused with Some (Corona.Client.R_failed _) -> true | _ -> false)

(* --- sharded recovery ------------------------------------------------------ *)

(* An object id routed to [shard] of group [g] (2 shards). *)
let obj_on_shard g shard =
  let rec find i =
    let obj = Printf.sprintf "o%d" i in
    if Ordering.Shard_map.shard_of ~shards:2 ~group:g ~obj = shard then obj
    else find (i + 1)
  in
  find 0

(* A two-shard cluster loses [victim], a shard owner, while b (srv-2) and c
   (srv-3) write to both shards. After the recovery round every owner is
   live, the shard epoch has advanced, every live copy agrees on stream
   positions and objects, and a later write to a moved shard is
   delivered. *)
let sharded_owner_loss ~victim () =
  let config = { Replication.Node.default_config with shards = 2 } in
  let w = make_world ~replicas:3 ~config () in
  let objs = [ obj_on_shard "g" 0; obj_on_shard "g" 1 ] in
  let writers = ref [] and c_got = ref [] in
  connect w ~idx:1 ~member:"b" (fun b ->
      Corona.Client.create_group b ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join b ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join b" r);
          connect w ~idx:2 ~member:"c" (fun c ->
              Corona.Client.set_on_event c (fun _ -> function
                | Corona.Client.Shard_delivered { update; _ } ->
                    c_got := update.T.data :: !c_got
                | _ -> ());
              Corona.Client.join c ~group:"g"
                ~k:(fun r ->
                  ignore (expect_join "join c" r);
                  writers := [ b; c ])
                ()))
        ());
  run ~until:2.0 w;
  Alcotest.(check int) "both writers joined" 2 (List.length !writers);
  let owners_before =
    Replication.Node.shard_owners (Replication.Cluster.node w.cluster "srv-2")
  in
  let moved =
    List.filter (fun s -> owners_before.(s) = victim) [ 0; 1 ]
  in
  Alcotest.(check bool) (victim ^ " owns a shard") true (moved <> []);
  (* Writes on both shards straddle the crash at t = 2.5 s. *)
  List.iteri
    (fun i cl ->
      for k = 0 to 19 do
        ignore
          (Sim.Engine.schedule w.engine ~delay:(0.05 *. float_of_int k) (fun () ->
               List.iter
                 (fun obj ->
                   Corona.Client.bcast_update cl ~group:"g" ~obj
                     ~data:(Printf.sprintf "w%d-%d;" i k) ())
                 objs))
      done)
    !writers;
  ignore
    (Sim.Engine.schedule w.engine ~delay:0.5 (fun () ->
         Net.Host.crash
           (Replication.Node.host (Replication.Cluster.node w.cluster victim))));
  run ~until:20.0 w;
  let live = Replication.Cluster.live_nodes w.cluster in
  let live_ids = List.map Replication.Node.id live in
  List.iter
    (fun n ->
      let id = Replication.Node.id n in
      Alcotest.(check bool) (id ^ ": every owner live") true
        (Array.for_all (fun o -> List.mem o live_ids) (Replication.Node.shard_owners n));
      Alcotest.(check bool) (id ^ ": shard epoch advanced") true
        (Replication.Node.shard_epoch n > 0))
    live;
  let copies =
    List.filter_map
      (fun n ->
        match
          ( Replication.Node.group_shard_vector n "g",
            Replication.Node.group_shard_objects n "g" )
        with
        | Some v, Some o -> Some (Replication.Node.id n, Array.to_list v, o)
        | _ -> None)
      live
  in
  (match copies with
  | (_, v0, o0) :: rest ->
      List.iter
        (fun (id, v, o) ->
          Alcotest.(check (list int)) (id ^ ": stream positions agree") v0 v;
          Alcotest.(check (list (pair string string))) (id ^ ": objects agree") o0 o)
        rest
  | [] -> Alcotest.fail "no live sharded copy");
  (* A write to a moved shard after recovery reaches the other member. *)
  let b = List.hd !writers in
  let obj = obj_on_shard "g" (List.hd moved) in
  Corona.Client.bcast_update b ~group:"g" ~obj ~data:"after" ();
  run ~until:25.0 w;
  Alcotest.(check bool) "post-recovery write to the moved shard delivered" true
    (List.mem "after" !c_got);
  (* Both writers' replicas, folded from their [Shard_deliver]s, match the
     live copies in objects and stream positions. *)
  let id, _, _ = List.hd copies in
  let n = Replication.Cluster.node w.cluster id in
  let v = Array.to_list (Option.get (Replication.Node.group_shard_vector n "g")) in
  let o = Option.get (Replication.Node.group_shard_objects n "g") in
  List.iter
    (fun cl ->
      let who = Corona.Client.member cl in
      Alcotest.(check (option string)) (who ^ ": replica digest")
        (Some (Corona.Shared_state.digest (Corona.Shared_state.of_objects o)))
        (Option.map Corona.Shared_state.digest (Corona.Client.replica cl "g"));
      Alcotest.(check (option (list int))) (who ^ ": shard positions") (Some v)
        (Corona.Client.shard_positions cl "g"))
    !writers

(* Log reduction is a local matter: the replica serving the requester trims
   its own copy after five writes. A classic copy answers [Log_reduced]; a
   sharded copy has no group-wide log and refuses, naming sharding. *)
let reduce_after_writes ?config () =
  let w = make_world ?config () in
  let reply = ref None in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join a" r);
          for i = 0 to 4 do
            Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:(string_of_int i) ()
          done;
          ignore
            (Sim.Engine.schedule w.engine ~delay:1.0 (fun () ->
                 Corona.Client.reduce_log a ~group:"g" ~k:(fun r -> reply := Some r))))
        ());
  run ~until:5.0 w;
  (w, !reply)

let test_reduce_log_classic () =
  let w, reply = reduce_after_writes () in
  (match reply with
  | Some (Corona.Client.R_reduced upto) ->
      Alcotest.(check int) "trimmed through every write" 5 upto
  | _ -> Alcotest.fail "expected Log_reduced");
  let base n = Option.map snd (Replication.Node.group_base n "g") in
  let serving = Replication.Cluster.replica_for w.cluster 0 in
  Alcotest.(check (option int)) "the serving copy's base moved" (Some 5) (base serving);
  Alcotest.(check bool) "the backup copy is untouched" true
    (List.exists
       (fun n -> n != serving && base n = Some 0)
       (Replication.Cluster.live_nodes w.cluster))

let test_reduce_log_sharded () =
  let config = { Replication.Node.default_config with shards = 2 } in
  match reduce_after_writes ~config () with
  | _, Some (Corona.Client.R_failed reason) ->
      Alcotest.(check bool) ("refusal names sharding: " ^ reason) true
        (String.starts_with ~prefix:"sharded" reason)
  | _ -> Alcotest.fail "expected a refusal"

(* A sharded join is one view barrier: the coordinator's [barrier_step]
   hook sees its [Prepare] when the barrier opens and its [Commit], stamped
   with one position per shard, when it fans. *)
let test_sharded_barrier_journal () =
  let config = { Replication.Node.default_config with shards = 2 } in
  let steps = Hashtbl.create 4 in
  let hooks id =
    {
      Replication.Node.no_hooks with
      barrier_step = Some (fun step -> Hashtbl.add steps id step);
    }
  in
  let w = make_world ~config ~hooks () in
  connect w ~idx:0 ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~k:(fun r -> ignore (expect_join "join a" r)) ());
  run ~until:5.0 w;
  let coordinator = Replication.Node.id (Replication.Cluster.coordinator w.cluster) in
  match List.rev (Hashtbl.find_all steps coordinator) with
  | [ p; c ] ->
      let phase (s : Replication.Node.barrier_step) =
        match s.phase with Prepare -> "prepare" | Commit -> "commit"
      in
      Alcotest.(check (list string)) "prepare then commit" [ "prepare"; "commit" ]
        [ phase p; phase c ];
      Alcotest.(check int) "one barrier" p.bar c.bar;
      Alcotest.(check (list string)) "group" [ "g"; "g" ] [ p.group; c.group ];
      Alcotest.(check int) "commit stamps both shards" 2 (List.length c.vector);
      Alcotest.(check (list string)) "op names the join" [ "view +a"; "view +a" ]
        [ p.op; c.op ]
  | steps -> Alcotest.failf "expected 2 journal steps, got %d" (List.length steps)

let test_sharded_coordinator_crash () = sharded_owner_loss ~victim:"srv-0" ()

let test_sharded_owner_crash () = sharded_owner_loss ~victim:"srv-1" ()

(* The takeover round waits on srv-3, which dies before it can reply and
   owns no shard, so its death opens no new round: it closes the round, as
   an answer would. The directory answers again and the dead coordinator's
   shard is sequenced by a live owner. *)
let test_round_waits_out_dead_server () =
  let config = { Replication.Node.default_config with shards = 2 } in
  let w = make_world ~replicas:4 ~config () in
  let node id = Replication.Cluster.node w.cluster id in
  let writer = ref None in
  connect w ~idx:1 ~member:"b" (fun b ->
      Corona.Client.create_group b ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join b ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join b" r);
          writer := Some b)
        ());
  run ~until:2.0 w;
  let b = Option.get !writer in
  Alcotest.(check (list string)) "initial owners" [ "srv-0"; "srv-1" ]
    (Array.to_list (Replication.Node.shard_owners (node "srv-2")));
  Net.Host.crash (Replication.Node.host (node "srv-0"));
  (* Crash srv-3 as srv-1 opens its round, before the query reaches it. *)
  Sim.Engine.periodic w.engine ~every:0.0001 (fun () ->
      let opened = Replication.Node.role (node "srv-1") = Replication.Node.Coordinator in
      if opened then Net.Host.crash (Replication.Node.host (node "srv-3"));
      not opened);
  run ~until:8.0 w;
  Alcotest.(check bool) "srv-3 died mid-round" false
    (List.mem "srv-3" (List.map Replication.Node.id (Replication.Cluster.live_nodes w.cluster)));
  let created = ref false in
  Corona.Client.create_group b ~group:"h"
    ~k:(fun r ->
      expect_ok "create after recovery" r;
      created := true)
    ();
  Corona.Client.bcast_update b ~group:"g" ~obj:(obj_on_shard "g" 0) ~data:"after" ();
  run ~until:12.0 w;
  Alcotest.(check bool) "directory answers after the round" true !created;
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ ": every owner live") true
        (Array.for_all (fun o -> o = "srv-1" || o = "srv-2")
           (Replication.Node.shard_owners (node id))))
    [ "srv-1"; "srv-2" ];
  match Replication.Node.group_shard_vector (node "srv-2") "g" with
  | Some v -> Alcotest.(check bool) "write to the moved shard sequenced" true (v.(0) > 0)
  | None -> Alcotest.fail "srv-2 lost its copy"

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "replication"
    [
      ( "cluster",
        [
          tc "cross-replica multicast" `Quick test_cross_replica_multicast;
          tc "state fetch on new replica" `Quick test_state_fetch_on_new_replica;
          tc "early state blob is kept" `Quick test_early_state_blob_kept;
          tc "total order across three replicas" `Quick test_total_order_three_replicas;
          tc "coordinator failover" `Quick test_coordinator_failover;
          tc "replica crash re-replication" `Quick test_replica_crash_rereplication;
          tc "partition and reconcile" `Quick test_partition_and_reconcile;
          tc "relaxed membership notification" `Quick
            test_relaxed_membership_notification;
          tc "relaxed leave leaves the origin's list" `Quick
            test_relaxed_leave_updates_origin_view;
          tc "relaxed refused join is taken back" `Quick
            test_relaxed_refused_join_taken_back;
          tc "locks across replicas" `Quick test_locks_across_replicas;
          tc "delete group cluster-wide" `Quick test_delete_group_cluster_wide;
          tc "observer rejected at coordinator" `Quick
            test_observer_rejected_at_coordinator;
          tc "double crash escalation" `Quick test_double_crash_escalation;
          tc "heartbeat-only detection" `Quick test_heartbeat_only_detection;
          tc "randomized soak: holder convergence" `Slow
            test_random_soak_convergence;
          tc "randomized soak with coordinator crash" `Slow
            test_random_soak_with_failover;
          tc "crash mid fan-out leaves no seqno hole" `Quick
            test_crash_mid_fanout_no_seqno_hole;
          tc "notify flag honoured" `Quick test_notify_flag_honoured;
          tc "relay-fronted notification" `Quick test_relay_fronted_notification;
          tc "disconnect leaves only own groups" `Quick
            test_disconnect_leaves_only_own_groups;
          tc "delete answered and forgotten" `Quick
            test_delete_answered_and_forgotten;
          tc "sharded coordinator journals each barrier as prepare then commit" `Quick
            test_sharded_barrier_journal;
          tc "sharded coordinator crash" `Quick test_sharded_coordinator_crash;
          tc "sharded non-coordinator owner crash" `Quick
            test_sharded_owner_crash;
          tc "recovery round waits out a dead server" `Quick
            test_round_waits_out_dead_server;
          tc "log reduction on a classic copy" `Quick test_reduce_log_classic;
          tc "log reduction refused on a sharded copy" `Quick test_reduce_log_sharded;
        ] );
    ]
