(* Integration tests for the single stateful Corona server: group lifecycle,
   multicast semantics, state transfer, persistence, locks, log reduction and
   crash recovery — all over the simulated network. *)

module T = Proto.Types

let run engine = Sim.Engine.run engine

(* A world with one server host and [n] client hosts. *)
type world = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  server_host : Net.Host.t;
  client_hosts : Net.Host.t array;
  storage : Corona.Server_storage.t;
}

let make_world ?(seed = 42L) ?(clients = 4) ?net ?config ?lock_table () =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Net.Fabric.create ?config:net engine in
  let server_host = Net.Fabric.add_host fabric ~name:"server" () in
  let client_hosts =
    Array.init clients (fun i ->
        Net.Fabric.add_host fabric ~name:(Printf.sprintf "client-host-%d" i)
          ~cpu:Net.Host.sparc20 ())
  in
  let storage = Corona.Server_storage.create server_host () in
  let server = Corona.Server.create fabric server_host ?config ?lock_table ~storage () in
  ignore server;
  ({ engine; fabric; server_host; client_hosts; storage }, server)

let connect_client w ~host ~member k =
  Corona.Client.connect w.fabric ~host ~server:w.server_host ~member
    ~on_connected:k
    ~on_failed:(fun () -> Alcotest.failf "client %s failed to connect" member)
    ()

let expect_ok name = function
  | Corona.Client.R_ok -> ()
  | Corona.Client.R_failed reason -> Alcotest.failf "%s failed: %s" name reason
  | _ -> Alcotest.failf "%s: unexpected reply" name

let expect_join name = function
  | Corona.Client.R_join { at_seqno; members } -> (at_seqno, members)
  | Corona.Client.R_failed reason -> Alcotest.failf "%s failed: %s" name reason
  | _ -> Alcotest.failf "%s: unexpected reply" name

(* The client's replica digest equals the server's, and its last seqno is
   the server's last ([?last_seqno] overrides that for a client that never
   hears its own sender-exclusive writes). *)
let check_replica_agrees ?last_seqno server c ~group label =
  let digest st = Corona.Shared_state.digest st in
  match (Corona.Server.group_state server group, Corona.Client.replica c group) with
  | Some srv, Some mine ->
      Alcotest.(check string) label (digest srv) (digest mine);
      Alcotest.(check (option int)) (label ^ ": last seqno")
        (match last_seqno with
        | Some _ -> last_seqno
        | None -> Option.map pred (Corona.Server.group_next_seqno server group))
        (Corona.Client.last_seqno c group)
  | _ -> Alcotest.failf "%s: no replica of %s" label group

(* --- tests ------------------------------------------------------------ *)

let test_create_join_bcast () =
  let w, server = make_world () in
  let delivered = ref [] in
  let done_ = ref false in
  connect_client w ~host:w.client_hosts.(0) ~member:"alice" (fun alice ->
      Corona.Client.create_group alice ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join alice ~group:"g"
        ~k:(fun r ->
          let at_seqno, members = expect_join "join alice" r in
          Alcotest.(check int) "join at seqno 0" 0 at_seqno;
          Alcotest.(check int) "one member" 1 (List.length members);
          connect_client w ~host:w.client_hosts.(1) ~member:"bob" (fun bob ->
              Corona.Client.set_on_event bob (fun _ ev ->
                  match ev with
                  | Corona.Client.Delivered u -> delivered := u :: !delivered
                  | _ -> ());
              Corona.Client.join bob ~group:"g"
                ~k:(fun r ->
                  ignore (expect_join "join bob" r);
                  Corona.Client.bcast_state alice ~group:"g" ~obj:"doc"
                    ~data:"hello world" ();
                  done_ := true)
                ()))
        ());
  run w.engine;
  Alcotest.(check bool) "flow completed" true !done_;
  (match !delivered with
  | [ u ] ->
      Alcotest.(check string) "object id" "doc" u.T.obj;
      Alcotest.(check string) "data" "hello world" u.T.data;
      Alcotest.(check int) "seqno" 0 u.T.seqno
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l));
  match Corona.Server.group_state server "g" with
  | Some state ->
      Alcotest.(check (option string))
        "server copy" (Some "hello world")
        (Corona.Shared_state.get state "doc")
  | None -> Alcotest.fail "server lost the group state"

let test_full_state_transfer_on_join () =
  let w, _server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"pub" (fun pub ->
      Corona.Client.create_group pub ~group:"g"
        ~initial:[ ("a", "AAAA"); ("b", "BB") ]
        ~k:(expect_ok "create") ();
      Corona.Client.join pub ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join pub" r);
          Corona.Client.bcast_update pub ~group:"g" ~obj:"a" ~data:"+more" ();
          (* A late joiner must receive initial state plus the update. *)
          connect_client w ~host:w.client_hosts.(1) ~member:"late" (fun late ->
              Corona.Client.join late ~group:"g"
                ~k:(fun r ->
                  ignore (expect_join "join late" r);
                  let state = Option.get (Corona.Client.replica late "g") in
                  Alcotest.(check (option string))
                    "object a with appended update" (Some "AAAA+more")
                    (Corona.Shared_state.get state "a");
                  Alcotest.(check (option string))
                    "object b" (Some "BB")
                    (Corona.Shared_state.get state "b"))
                ()))
        ());
  run w.engine

(* a's sender-exclusive write is applied at send time and never echoed.
   With [rounds > 0], a and b then ping-pong on the same object: each of
   a's writes makes b append p_i, whose delivery makes a answer with an
   exclusive u_i. The server orders x p0 u0 p1 u1 ..., and a's replica
   matches it only if each send first folds in the delivery still pending
   in the replica. *)
let sender_exclusive_not_echoed ~rounds =
  let w, server = make_world () in
  let echoes = ref 0 in
  let peer_deliveries = ref 0 in
  let a_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      a_ref := Some a;
      let answered = ref 0 in
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered u when u.T.sender = "a" -> incr echoes
        | Corona.Client.Delivered _ ->
            Corona.Client.bcast_update a ~group:"g" ~obj:"o"
              ~data:(Printf.sprintf "u%d;" !answered) ~mode:T.Sender_exclusive ();
            incr answered
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Delivered u when u.T.sender = "a" ->
                    if !peer_deliveries < rounds then
                      Corona.Client.bcast_update b ~group:"g" ~obj:"o"
                        ~data:(Printf.sprintf "p%d;" !peer_deliveries) ();
                    incr peer_deliveries
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:"x"
                    ~mode:T.Sender_exclusive ();
                  (* Local replica applied optimistically. *)
                  let state = Option.get (Corona.Client.replica a "g") in
                  Alcotest.(check (option string))
                    "optimistic apply" (Some "x")
                    (Corona.Shared_state.get state "o"))
                ()))
        ());
  run w.engine;
  Alcotest.(check int) "sender not echoed" 0 !echoes;
  Alcotest.(check int) "peer got it" (1 + rounds) !peer_deliveries;
  (* Seqnos run x = 0, p0 = 1, u0 = 2, ...; a last heard p_(rounds-1). *)
  check_replica_agrees ~last_seqno:((2 * rounds) - 1) server (Option.get !a_ref)
    ~group:"g" "sender's replica"

let test_sender_exclusive_not_echoed () =
  sender_exclusive_not_echoed ~rounds:0;
  sender_exclusive_not_echoed ~rounds:20

(* Two senders burst concurrently and both members see one order. At 150
   updates each, neither member reads its replica while 300 deliveries
   arrive, so the recent-update ring wraps while full of pending entries. *)
let total_order_across_senders ~per_sender =
  let w, server = make_world ~clients:3 () in
  let order_a = ref [] and order_b = ref [] in
  let a_ref = ref None and b_ref = ref None in
  let record cell = fun _ -> function
    | Corona.Client.Delivered u -> cell := u.T.seqno :: !cell
    | _ -> ()
  in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      a_ref := Some a;
      Corona.Client.set_on_event a (record order_a);
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              b_ref := Some b;
              Corona.Client.set_on_event b (record order_b);
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  (* Both fire a burst concurrently. *)
                  for i = 0 to per_sender - 1 do
                    Corona.Client.bcast_update a ~group:"g" ~obj:"o"
                      ~data:(Printf.sprintf "a%d" i) ();
                    Corona.Client.bcast_update b ~group:"g" ~obj:"o"
                      ~data:(Printf.sprintf "b%d" i) ()
                  done)
                ()))
        ());
  run w.engine;
  let a_order = List.rev !order_a and b_order = List.rev !order_b in
  let n = 2 * per_sender in
  Alcotest.(check (list int))
    (Printf.sprintf "a sees 0..%d in order" (n - 1))
    (List.init n Fun.id) a_order;
  Alcotest.(check (list int)) "b sees same order" a_order b_order;
  let a = Option.get !a_ref and b = Option.get !b_ref in
  check_replica_agrees server a ~group:"g" (Printf.sprintf "a after %d deliveries" n);
  check_replica_agrees server b ~group:"g" (Printf.sprintf "b after %d deliveries" n)

let test_total_order_across_senders () =
  List.iter (fun per_sender -> total_order_across_senders ~per_sender) [ 10; 150 ]

let test_persistent_group_outlives_members () =
  let w, server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"keep" ~persistent:true
        ~k:(expect_ok "create") ();
      Corona.Client.create_group a ~group:"drop" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"keep"
        ~k:(fun _ ->
          Corona.Client.join a ~group:"drop"
            ~k:(fun _ ->
              Corona.Client.bcast_state a ~group:"keep" ~obj:"o" ~data:"v" ();
              Corona.Client.leave a ~group:"keep" ~k:(expect_ok "leave keep");
              Corona.Client.leave a ~group:"drop" ~k:(expect_ok "leave drop"))
            ())
        ());
  run w.engine;
  Alcotest.(check bool)
    "persistent group survives null membership" true
    (Corona.Server.group_exists server "keep");
  Alcotest.(check bool)
    "transient group deleted at null membership" false
    (Corona.Server.group_exists server "drop");
  (* A fresh client joining the persistent group gets its state. *)
  connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
      Corona.Client.join b ~group:"keep"
        ~k:(fun r ->
          ignore (expect_join "rejoin" r);
          let state = Option.get (Corona.Client.replica b "keep") in
          Alcotest.(check (option string))
            "state preserved" (Some "v")
            (Corona.Shared_state.get state "o"))
        ());
  run w.engine

let test_crash_recovery_from_disk () =
  let w, _server = make_world () in
  let logged_seqnos = ref (-1) in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~persistent:true
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          for i = 0 to 19 do
            Corona.Client.bcast_update a ~group:"g" ~obj:"o"
              ~data:(Printf.sprintf "<%d>" i) ()
          done)
        ());
  (* Let the run settle, then crash the server host. *)
  run w.engine;
  logged_seqnos := 19;
  Net.Host.crash w.server_host;
  run w.engine;
  Net.Host.restart w.server_host;
  let server2 = Corona.Server.create w.fabric w.server_host ~storage:w.storage () in
  run w.engine;
  Alcotest.(check bool) "group recovered" true
    (Corona.Server.group_exists server2 "g");
  (match Corona.Server.group_state server2 "g" with
  | Some state ->
      let v = Option.get (Corona.Shared_state.get state "o") in
      (* All updates were durable by crash time (the run settled first). *)
      let expected =
        String.concat "" (List.init (!logged_seqnos + 1) (Printf.sprintf "<%d>"))
      in
      Alcotest.(check string) "recovered state" expected v
  | None -> Alcotest.fail "no state after recovery");
  Alcotest.(check (option int))
    "sequence numbers continue" (Some 20)
    (Corona.Server.group_next_seqno server2 "g")

let test_crash_loses_unflushed_tail () =
  (* Crash while the disk queue still holds a suffix of the log: recovery
     must come back with a strict, non-empty prefix. The crash point is
     found by watching the WAL rather than by a hard-coded time, so the
     test is robust to cost-model recalibration. *)
  let total = 100 in
  let w, _server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~persistent:true
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          for i = 0 to total - 1 do
            Corona.Client.bcast_update a ~group:"g" ~obj:"o"
              ~data:(String.make 1000 (Char.chr (Char.code '0' + (i mod 10))))
              ()
          done)
        ());
  (* Crash as soon as every update is sequenced but the disk still lags. *)
  let wal = Corona.Server_storage.wal_for w.storage "g" in
  let crashed = ref false in
  Sim.Engine.periodic w.engine ~every:0.0005 (fun () ->
      if
        (not !crashed)
        && Storage.Wal.next_index wal = total
        && Storage.Wal.durable_upto wal > 0
        && Storage.Wal.durable_upto wal < total
      then begin
        crashed := true;
        Net.Host.crash w.server_host
      end;
      not !crashed);
  run w.engine;
  Alcotest.(check bool) "found a crash window" true !crashed;
  Net.Host.restart w.server_host;
  let server2 = Corona.Server.create w.fabric w.server_host ~storage:w.storage () in
  run w.engine;
  let next = Option.get (Corona.Server.group_next_seqno server2 "g") in
  Alcotest.(check bool)
    (Printf.sprintf "a strict prefix survived (got %d)" next)
    true
    (next > 0 && next < total)

let test_latest_updates_transfer () =
  let w, _server = make_world () in
  let joined = ref false in
  let connect_late w' =
    connect_client w' ~host:w'.client_hosts.(1) ~member:"b" (fun b ->
        Corona.Client.join b ~group:"g"
          ~transfer:(T.Latest_updates 3)
          ~k:(fun r ->
            ignore (expect_join "join b" r);
            joined := true;
            let state = Option.get (Corona.Client.replica b "g") in
            Alcotest.(check (option string))
              "only last 3 updates" (Some "7;8;9;")
              (Corona.Shared_state.get state "o"))
          ())
  in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      (* Connect [b] only after a's 10th echo, when all updates are
         sequenced. *)
      let seen = ref 0 in
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered _ ->
            incr seen;
            if !seen = 10 then connect_late w
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          for i = 0 to 9 do
            Corona.Client.bcast_update a ~group:"g" ~obj:"o"
              ~data:(Printf.sprintf "%d;" i) ()
          done)
        ());
  run w.engine;
  Alcotest.(check bool) "late client joined" true !joined

let test_object_subset_transfer () =
  let w, _server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g"
        ~initial:[ ("x", "X"); ("y", "Y"); ("z", "Z") ]
        ~k:(expect_ok "create") ();
      connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
          Corona.Client.join b ~group:"g" ~transfer:(T.Objects [ "x"; "z" ])
            ~k:(fun r ->
              ignore (expect_join "join" r);
              let state = Option.get (Corona.Client.replica b "g") in
              Alcotest.(check (option string)) "x" (Some "X")
                (Corona.Shared_state.get state "x");
              Alcotest.(check (option string)) "y absent" None
                (Corona.Shared_state.get state "y");
              Alcotest.(check (option string)) "z" (Some "Z")
                (Corona.Shared_state.get state "z"))
            ()))
  ;
  run w.engine

let test_membership_notifications () =
  let w, _server = make_world () in
  let changes = ref [] in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Membership_changed { change; _ } ->
            changes := change :: !changes
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~notify:true
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g" ~notify:false
                ~k:(fun _ -> Corona.Client.leave b ~group:"g" ~k:(expect_ok "leave"))
                ()))
        ());
  run w.engine;
  let got = List.rev !changes in
  Alcotest.(check int) "two notifications" 2 (List.length got);
  (match got with
  | [ T.Member_joined { member = "b"; _ }; T.Member_left "b" ] -> ()
  | _ -> Alcotest.fail "unexpected change sequence")

let test_client_crash_detected () =
  let w, server = make_world () in
  let crashes = ref [] in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Membership_changed { change = T.Member_crashed m; _ } ->
            crashes := m :: !crashes
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  ignore
                    (Sim.Engine.schedule w.engine ~delay:0.05 (fun () ->
                         Net.Host.crash w.client_hosts.(1))))
                ()))
        ());
  run w.engine;
  Alcotest.(check (list string)) "crash notified" [ "b" ] !crashes;
  Alcotest.(check int) "only a remains" 1
    (List.length (Corona.Server.group_members server "g"))

let test_locks () =
  let w, server = make_world () in
  let later_grants = ref [] in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Lock_granted_later { lock; _ } ->
                    later_grants := lock :: !later_grants
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.acquire_lock a ~group:"g" ~lock:"pen"
                    ~k:(function
                      | Corona.Client.R_lock `Granted ->
                          Corona.Client.acquire_lock b ~group:"g" ~lock:"pen"
                            ~k:(function
                              | Corona.Client.R_lock (`Busy holder) ->
                                  Alcotest.(check string) "holder" "a" holder;
                                  Corona.Client.release_lock a ~group:"g"
                                    ~lock:"pen" ~k:(fun _ -> ())
                              | _ -> Alcotest.fail "expected busy")
                      | _ -> Alcotest.fail "expected granted"))
                ()))
        ());
  run w.engine;
  Alcotest.(check (list string)) "b eventually granted" [ "pen" ] !later_grants;
  Alcotest.(check (option string))
    "server holder view" (Some "b")
    (Corona.Server.lock_holder server "g" "pen")

(* The [lock_table] hook sees one table per group incarnation: a lock held
   when its group is deleted does not carry over into the recreated group.
   Each table's journal replays clean under the lock oracle; spliced into
   one journal, the same events grant the lock twice. *)
let test_lock_table_per_group_incarnation () =
  let tables = ref [] in
  let lock_table group =
    let events = ref [] in
    tables := (group, events) :: !tables;
    fun ev -> events := ev :: !events
  in
  let w, _server = make_world ~lock_table () in
  let b_reply = ref None in
  let acquire c k =
    Corona.Client.acquire_lock c ~group:"g" ~lock:"pen" ~k
  in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          acquire a (function
            | Corona.Client.R_lock `Granted ->
                Corona.Client.delete_group a ~group:"g" ~k:(fun _ ->
                    Corona.Client.create_group a ~group:"g" ~k:(expect_ok "recreate") ();
                    connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
                        Corona.Client.join b ~group:"g"
                          ~k:(fun _ -> acquire b (fun r -> b_reply := Some r))
                          ()))
            | _ -> Alcotest.fail "expected granted"))
        ());
  run w.engine;
  (match !b_reply with
  | Some (Corona.Client.R_lock `Granted) -> ()
  | _ -> Alcotest.fail "b should be granted the recreated group's lock");
  let journals =
    List.rev_map (fun (g, events) -> ("server", g, List.rev !events)) !tables
  in
  Alcotest.(check (list string)) "two tables for g" [ "g"; "g" ]
    (List.map (fun (_, g, _) -> g) journals);
  let input journals =
    {
      Check.Oracles.i_copies = [];
      i_journals = journals;
      i_clients = [];
      i_client_states = [];
      i_client_views = [];
      i_members = [];
      i_expected_members = [];
      i_eras = [];
      i_barriers = [];
      i_shards = 1;
      i_relay = false;
    }
  in
  Alcotest.(check int) "each table replays clean" 0
    (List.length (Check.Oracles.locks (input journals)));
  let spliced = List.concat_map (fun (_, _, events) -> events) journals in
  Alcotest.(check (list string)) "one spliced journal grants the lock twice"
    [ "[locks] g/pen@server: granted to b while a holds it" ]
    (List.map Check.Oracles.violation_line
       (Check.Oracles.locks (input [ ("server", "g", spliced) ])))

let test_log_reduction () =
  let w, server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          for i = 0 to 9 do
            Corona.Client.bcast_update a ~group:"g" ~obj:"o"
              ~data:(Printf.sprintf "%d" i) ()
          done;
          Corona.Client.reduce_log a ~group:"g" ~k:(function
            | Corona.Client.R_reduced upto ->
                Alcotest.(check int) "reduced up to 10" 10 upto
            | _ -> Alcotest.fail "expected reduction ack"))
        ());
  run w.engine;
  Alcotest.(check (option int))
    "log emptied" (Some 0)
    (Corona.Server.group_log_length server "g");
  (* State must be equivalent to initial + full history. *)
  (match Corona.Server.group_state server "g" with
  | Some st ->
      Alcotest.(check (option string))
        "materialized state intact" (Some "0123456789")
        (Corona.Shared_state.get st "o")
  | None -> Alcotest.fail "state missing");
  (* New joiner after reduction still gets the full state. *)
  connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
      Corona.Client.join b ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join after reduction" r);
          let state = Option.get (Corona.Client.replica b "g") in
          Alcotest.(check (option string))
            "full state after reduction" (Some "0123456789")
            (Corona.Shared_state.get state "o"))
        ());
  run w.engine

let test_observer_cannot_update () =
  let w, _server = make_world () in
  let failed = ref false in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~role:T.Observer
        ~k:(fun _ ->
          Corona.Client.set_on_event a (fun _ -> function
            | _ -> ());
          (* The bcast is rejected; the failure reply consumes no pending
             expectation and reaches nobody, so verify via server state. *)
          Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:"x" ();
          failed := true)
        ());
  run w.engine;
  Alcotest.(check bool) "flow ran" true !failed;
  match Corona.Server.group_state _server "g" with
  | Some st -> Alcotest.(check (option string)) "no update applied" None
                 (Corona.Shared_state.get st "o")
  | None -> Alcotest.fail "group missing"

let test_stateless_mode_sequences_only () =
  let config =
    { Corona.Server.default_config with maintain_state = false }
  in
  let w, server = make_world ~config () in
  let delivered = ref 0 in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Delivered _ -> incr delivered
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:"x" ())
                ()))
        ());
  run w.engine;
  Alcotest.(check int) "multicast still works" 1 !delivered;
  Alcotest.(check (option Alcotest.reject))
    "server keeps no state" None
    (Corona.Server.group_state server "g")

let test_multicast_delivery_mode () =
  (* §5.3 hybrid: capable clients get deliveries over the group channel
     (one server NIC transmission), the modem client over TCP. *)
  let config = { Corona.Server.default_config with use_ip_multicast = true } in
  let w, server = make_world ~config () in
  let no_mcast_host =
    Net.Fabric.add_host w.fabric ~name:"isp-client" ~cpu:Net.Host.sparc20
      ~multicast_capable:false ()
  in
  let got = ref [] in
  let recorder name = fun _ -> function
    | Corona.Client.Delivered u -> got := (name, u.T.data) :: !got
    | _ -> ()
  in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.set_on_event a (recorder "a");
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.set_on_event b (recorder "b");
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.connect w.fabric ~host:no_mcast_host
                    ~server:w.server_host ~member:"m"
                    ~on_connected:(fun m ->
                      Corona.Client.set_on_event m (recorder "m");
                      Corona.Client.join m ~group:"g"
                        ~k:(fun _ ->
                          Corona.Client.bcast_state a ~group:"g" ~obj:"o"
                            ~data:"x" ())
                        ())
                    ~on_failed:(fun () -> Alcotest.fail "m connect failed")
                    ())
                ()))
        ());
  run w.engine;
  let names = List.sort compare (List.map fst !got) in
  Alcotest.(check (list string)) "all three delivered" [ "a"; "b"; "m" ] names;
  (* All replicas agree. *)
  (match Corona.Server.group_state server "g" with
  | Some st ->
      Alcotest.(check (option string)) "server state" (Some "x")
        (Corona.Shared_state.get st "o")
  | None -> Alcotest.fail "no server state")

(* a writes [writes] sender-exclusive updates over the multicast channel; b
   writes [peer_writes] sender-inclusive ones to another object, interleaved
   with a's, so a's own echoes arrive between deliveries it has not yet
   folded into its replica. Each echo is swallowed, never applied twice. *)
let multicast_exclusive_echo_suppressed ~writes ~peer_writes =
  let config = { Corona.Server.default_config with use_ip_multicast = true } in
  let w, server = make_world ~config () in
  let a_deliveries = ref 0 and b_deliveries = ref 0 in
  let a_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      a_ref := Some a;
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered _ -> incr a_deliveries
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Delivered _ -> incr b_deliveries
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  for i = 0 to max writes peer_writes - 1 do
                    if i < peer_writes then
                      Corona.Client.bcast_update b ~group:"g" ~obj:"p"
                        ~data:(Printf.sprintf "p%d;" i) ();
                    if i < writes then begin
                      Corona.Client.bcast_update a ~group:"g" ~obj:"o"
                        ~data:(Printf.sprintf "u%d;" i) ~mode:T.Sender_exclusive ();
                      let st = Option.get (Corona.Client.replica a "g") in
                      Alcotest.(check (option string)) "optimistic apply"
                        (Some (String.concat "" (List.init (i + 1) (Printf.sprintf "u%d;"))))
                        (Corona.Shared_state.get st "o")
                    end
                  done)
                ()))
        ());
  run w.engine;
  Alcotest.(check int) "sender's multicast echoes suppressed" peer_writes !a_deliveries;
  Alcotest.(check int) "peer delivered each once" (writes + peer_writes) !b_deliveries;
  (* And the sender's replica was not double-applied. *)
  check_replica_agrees server (Option.get !a_ref) ~group:"g" "sender's replica"

let test_multicast_exclusive_echo_suppressed () =
  multicast_exclusive_echo_suppressed ~writes:1 ~peer_writes:0;
  multicast_exclusive_echo_suppressed ~writes:20 ~peer_writes:20

let test_reconnect_resync () =
  (* Companion-paper behavior: a client drops its link, misses updates,
     reconnects and rejoins — only the missed suffix travels. b never reads
     its replica before the rejoin, so "+1" is still pending in it when the
     [Update_history] of "+2" and "+3" lands. *)
  let w, server = make_world () in
  let phase = ref 0 in
  let a_ref = ref None and b_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      a_ref := Some a;
      Corona.Client.create_group a ~group:"g" ~initial:[ ("o", "big-base-state") ]
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              b_ref := Some b;
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"+1" ();
                  phase := 1)
                ()))
        ());
  run w.engine;
  Alcotest.(check int) "setup done" 1 !phase;
  let a = Option.get !a_ref and b = Option.get !b_ref in
  (* Link failure: b drops off; a keeps updating. *)
  Corona.Client.disconnect b;
  Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"+2" ();
  Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:"+3" ();
  run w.engine;
  let bytes_before =
    (Corona.Server.stats server).Corona.Server.state_transfer_bytes
  in
  Corona.Client.reconnect b
    ~on_connected:(fun b2 ->
      Corona.Client.rejoin b2 ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "rejoin" r);
          let st = Option.get (Corona.Client.replica b2 "g") in
          Alcotest.(check (option string)) "caught up exactly"
            (Some "big-base-state+1+2+3")
            (Corona.Shared_state.get st "o"))
        ())
    ~on_failed:(fun () -> Alcotest.fail "reconnect failed")
    ();
  run w.engine;
  let bytes_moved =
    (Corona.Server.stats server).Corona.Server.state_transfer_bytes - bytes_before
  in
  (* Only "+2" and "+3" travelled, not the 14-byte base nor "+1". *)
  Alcotest.(check int) "only the missed suffix travelled" 4 bytes_moved;
  check_replica_agrees server b ~group:"g" "resynced replica"

let test_rejoin_after_log_reduction_falls_back () =
  let w, _server = make_world () in
  let a_ref = ref None and b_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      a_ref := Some a;
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              b_ref := Some b;
              Corona.Client.join b ~group:"g" ~k:(fun _ -> ()) ()))
        ());
  run w.engine;
  let a = Option.get !a_ref and b = Option.get !b_ref in
  Corona.Client.disconnect b;
  for i = 0 to 9 do
    Corona.Client.bcast_update a ~group:"g" ~obj:"o" ~data:(string_of_int i) ()
  done;
  run w.engine;
  (* Fold the history b missed into a checkpoint. *)
  Corona.Client.reduce_log a ~group:"g" ~k:(fun _ -> ());
  run w.engine;
  Corona.Client.reconnect b
    ~on_connected:(fun b2 ->
      Corona.Client.rejoin b2 ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "rejoin after reduction" r);
          let st = Option.get (Corona.Client.replica b2 "g") in
          Alcotest.(check (option string)) "full state fallback"
            (Some "0123456789")
            (Corona.Shared_state.get st "o"))
        ())
    ~on_failed:(fun () -> Alcotest.fail "reconnect failed")
    ();
  run w.engine

let test_access_control_deny () =
  let access =
    Corona.Access_control.with_join_allowlist Corona.Access_control.allow_all
      [ ("vip", [ "alice" ]) ]
  in
  let config = { Corona.Server.default_config with access } in
  let w, _server = make_world ~config () in
  let denied = ref false in
  connect_client w ~host:w.client_hosts.(0) ~member:"alice" (fun alice ->
      Corona.Client.create_group alice ~group:"vip" ~k:(expect_ok "create") ();
      Corona.Client.join alice ~group:"vip"
        ~k:(fun r ->
          ignore (expect_join "alice may join" r);
          connect_client w ~host:w.client_hosts.(1) ~member:"mallory"
            (fun mallory ->
              Corona.Client.join mallory ~group:"vip"
                ~k:(function
                  | Corona.Client.R_failed _ -> denied := true
                  | _ -> Alcotest.fail "mallory should be denied")
                ()))
        ());
  run w.engine;
  Alcotest.(check bool) "mallory denied" true !denied

let test_multiple_groups_one_client () =
  let w, server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g1" ~k:(expect_ok "create g1") ();
      Corona.Client.create_group a ~group:"g2" ~k:(expect_ok "create g2") ();
      Corona.Client.join a ~group:"g1"
        ~k:(fun _ ->
          Corona.Client.join a ~group:"g2"
            ~k:(fun _ ->
              Corona.Client.bcast_state a ~group:"g1" ~obj:"o" ~data:"one" ();
              Corona.Client.bcast_state a ~group:"g2" ~obj:"o" ~data:"two" ())
            ())
        ());
  run w.engine;
  let get g =
    Option.bind (Corona.Server.group_state server g) (fun st ->
        Corona.Shared_state.get st "o")
  in
  Alcotest.(check (option string)) "g1 isolated" (Some "one") (get "g1");
  Alcotest.(check (option string)) "g2 isolated" (Some "two") (get "g2")

(* Connect a client and run the world until it is connected. *)
let connected w ~host ~member =
  let c = ref None in
  connect_client w ~host ~member (fun x -> c := Some x);
  run w.engine;
  Option.get !c

let reconnected w c =
  let c2 = ref None in
  Corona.Client.reconnect c
    ~on_connected:(fun x -> c2 := Some x)
    ~on_failed:(fun () -> Alcotest.fail "reconnect failed")
    ();
  run w.engine;
  Option.get !c2

let join_now w c ~group =
  Corona.Client.join c ~group ~k:(fun r -> ignore (expect_join "join" r)) ();
  run w.engine

(* A member of two groups comes back on a second connection and rejoins
   only g1, while its first connection is still open. Its g2 entry must
   follow the rebind: g2 broadcasts arrive over the new connection, before
   and after the old connection's close is processed. *)
let test_rebind_reaches_every_group () =
  let w, server = make_world () in
  let a = connected w ~host:w.client_hosts.(0) ~member:"a" in
  let b = connected w ~host:w.client_hosts.(1) ~member:"b" in
  List.iter
    (fun group ->
      Corona.Client.create_group a ~group ~k:(expect_ok "create") ();
      join_now w a ~group;
      join_now w b ~group)
    [ "g1"; "g2" ];
  let b2 = reconnected w b in
  Corona.Client.rejoin b2 ~group:"g1" ~k:(fun r -> ignore (expect_join "rejoin" r)) ();
  run w.engine;
  let old_n = Corona.Client.deliveries_received b in
  let new_n = Corona.Client.deliveries_received b2 in
  Corona.Client.bcast_state a ~group:"g2" ~obj:"o" ~data:"one" ();
  run w.engine;
  Alcotest.(check int) "g2 delivery over the new connection" (new_n + 1)
    (Corona.Client.deliveries_received b2);
  Alcotest.(check int) "none over the old one" old_n (Corona.Client.deliveries_received b);
  check_replica_agrees server b2 ~group:"g2" "g2 replica after rebind";
  Corona.Client.disconnect b;
  run w.engine;
  Alcotest.(check (list string)) "the old close leaves b in g2" [ "a"; "b" ]
    (List.map (fun (m : T.member) -> m.member) (Corona.Server.group_members server "g2"));
  Corona.Client.bcast_state a ~group:"g2" ~obj:"o" ~data:"two" ();
  run w.engine;
  Alcotest.(check int) "g2 still reached after the old close" (new_n + 2)
    (Corona.Client.deliveries_received b2);
  check_replica_agrees server b2 ~group:"g2" "g2 replica after the old close"

(* A second copy of a delivery the client already applied (a resent or
   re-fanned frame) is dropped without a trace: no event, and
   [deliveries_received] does not move. A scripted server answers the join
   and then sends the same [Deliver] twice. *)
let test_duplicate_delivery_dropped () =
  let w, _server = make_world ~clients:1 () in
  let scripted = Net.Fabric.add_host w.fabric ~name:"scripted" () in
  let u =
    {
      T.seqno = 0;
      group = "g";
      kind = T.Set_state;
      obj = "o";
      data = "one";
      sender = "b";
      timestamp = 0.0;
    }
  in
  let deliver = ref (fun () -> ()) in
  ignore
    (Net.Tcp.listen w.fabric scripted ~port:7000 ~on_accept:(fun conn ->
         let respond r = Proto.Message.send conn (Proto.Message.Response r) in
         deliver := (fun () -> respond (Proto.Message.Deliver u));
         Net.Tcp.set_receiver conn (fun ~size:_ payload ->
             match payload with
             | Proto.Message.Corona (Proto.Message.Request (Proto.Message.Join { group; member; _ }))
               ->
                 respond
                   (Proto.Message.Join_accepted
                      {
                        group;
                        at_seqno = 0;
                        state = Proto.Message.Snapshot { objects = []; log_tail = [] };
                        members = [ { T.member; role = T.Principal } ];
                        multicast = false;
                      })
             | _ -> ())));
  let delivered = ref 0 and client = ref None in
  Corona.Client.connect w.fabric ~host:w.client_hosts.(0) ~server:scripted ~member:"a"
    ~on_event:(fun _ -> function Corona.Client.Delivered _ -> incr delivered | _ -> ())
    ~on_connected:(fun c ->
      Corona.Client.join c ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "join" r);
          client := Some c)
        ())
    ~on_failed:(fun () -> Alcotest.fail "a failed to connect")
    ();
  run w.engine;
  let a = Option.get !client in
  !deliver ();
  run w.engine;
  Alcotest.(check (pair int int)) "first copy raised and counted" (1, 1)
    (!delivered, Corona.Client.deliveries_received a);
  !deliver ();
  run w.engine;
  Alcotest.(check (pair int int)) "second copy neither raised nor counted" (1, 1)
    (!delivered, Corona.Client.deliveries_received a);
  Alcotest.(check (option int)) "last seqno" (Some 0) (Corona.Client.last_seqno a "g")

(* The client's one-entry replica cache must never outlive its table entry:
   after a leave and rejoin, a delete, re-create and rejoin, a reconnect and
   rejoin (the table and its cache shared between client records), and a
   full-state join that replaces a replica the cache holds, deliveries land
   in the live replica. Two reads with a delivery between both see the
   current state. Each broadcast writes new bytes, so a delivery into
   a stale replica would leave the live one behind. *)
let test_client_replica_cache_follows_the_table () =
  let w, server = make_world () in
  let a = connected w ~host:w.client_hosts.(0) ~member:"a" in
  let b = connected w ~host:w.client_hosts.(1) ~member:"b" in
  let n = ref 0 in
  let bcast () =
    incr n;
    Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:(Printf.sprintf "v%d" !n) ();
    run w.engine
  in
  let create () =
    Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
    join_now w a ~group:"g"
  in
  create ();
  join_now w b ~group:"g";
  bcast ();
  check_replica_agrees server b ~group:"g" "first delivery";
  bcast ();
  check_replica_agrees server b ~group:"g" "second read, one delivery later";
  Corona.Client.leave b ~group:"g" ~k:(expect_ok "leave");
  run w.engine;
  join_now w b ~group:"g";
  bcast ();
  check_replica_agrees server b ~group:"g" "after leave and rejoin";
  Corona.Client.delete_group a ~group:"g" ~k:(expect_ok "delete");
  run w.engine;
  Alcotest.(check bool) "deleted group dropped" true
    (Option.is_none (Corona.Client.replica b "g"));
  create ();
  join_now w b ~group:"g";
  bcast ();
  check_replica_agrees server b ~group:"g" "after delete, re-create and rejoin";
  Corona.Client.disconnect b;
  run w.engine;
  bcast ();
  let b2 = reconnected w b in
  Corona.Client.rejoin b2 ~group:"g" ~k:(fun r -> ignore (expect_join "rejoin" r)) ();
  run w.engine;
  bcast ();
  check_replica_agrees server b2 ~group:"g" "after reconnect and rejoin";
  join_now w b2 ~group:"g";
  bcast ();
  check_replica_agrees server b2 ~group:"g" "after a full-state join replaced the replica";
  Alcotest.(check (option string)) "latest write applied" (Some (Printf.sprintf "v%d" !n))
    (Option.bind (Corona.Client.replica b2 "g") (fun st -> Corona.Shared_state.get st "o"))

let test_delete_group_notifies_members () =
  let w, server = make_world () in
  let deleted_seen = ref 0 in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              Corona.Client.set_on_event b (fun _ -> function
                | Corona.Client.Group_was_deleted "g" -> incr deleted_seen
                | _ -> ());
              Corona.Client.join b ~group:"g"
                ~k:(fun _ ->
                  Corona.Client.delete_group a ~group:"g" ~k:(expect_ok "delete"))
                ()))
        ());
  run w.engine;
  Alcotest.(check int) "member notified of deletion" 1 !deleted_seen;
  Alcotest.(check bool) "group gone" false (Corona.Server.group_exists server "g");
  (* Deletion is durable: a server restart must not resurrect it. *)
  Net.Host.crash w.server_host;
  Net.Host.restart w.server_host;
  let server2 = Corona.Server.create w.fabric w.server_host ~storage:w.storage () in
  run w.engine;
  Alcotest.(check bool) "stays gone after recovery" false
    (Corona.Server.group_exists server2 "g")

let test_get_membership_query () =
  let w, _server = make_world () in
  let got = ref [] in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~role:T.Observer
        ~k:(fun _ ->
          Corona.Client.get_membership a ~group:"g" ~k:(function
            | Corona.Client.R_membership ms -> got := ms
            | _ -> Alcotest.fail "expected membership"))
        ());
  run w.engine;
  match !got with
  | [ { T.member = "a"; role = T.Observer } ] -> ()
  | _ -> Alcotest.fail "unexpected membership info"

let test_ping_measures_rtt () =
  let w, _server = make_world () in
  let rtt = ref nan in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.ping a ~k:(fun ~rtt:r -> rtt := r));
  run w.engine;
  Alcotest.(check bool)
    (Printf.sprintf "sane rtt (%.2f ms)" (!rtt *. 1000.))
    true
    (!rtt > 0.0 && !rtt < 0.01)

let test_concurrent_joins_unobtrusive () =
  (* §1: "existing processes ... should be able to carry on with their
     operations in the presence of multiple, concurrent joins". A burst of
     10 joins lands while the probe is mid-conversation; nothing is lost or
     reordered. *)
  let w, server = make_world ~clients:4 () in
  let seqnos = ref [] in
  connect_client w ~host:w.client_hosts.(0) ~member:"probe" (fun probe ->
      Corona.Client.set_on_event probe (fun _ -> function
        | Corona.Client.Delivered u -> seqnos := u.T.seqno :: !seqnos
        | _ -> ());
      Corona.Client.create_group probe ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join probe ~group:"g"
        ~k:(fun _ ->
          for i = 0 to 19 do
            Corona.Client.bcast_update probe ~group:"g" ~obj:"o"
              ~data:(string_of_int i) ()
          done;
          for j = 0 to 9 do
            connect_client w
              ~host:w.client_hosts.(1 + (j mod 3))
              ~member:(Printf.sprintf "late-%d" j)
              (fun late -> Corona.Client.join late ~group:"g" ~k:(fun _ -> ()) ())
          done)
        ());
  run w.engine;
  Alcotest.(check (list int)) "probe saw every update in order"
    (List.init 20 Fun.id) (List.rev !seqnos);
  Alcotest.(check int) "all 11 members present" 11
    (List.length (Corona.Server.group_members server "g"))

let test_graceful_shutdown_checkpoints () =
  let w, server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~persistent:true
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ -> Corona.Client.bcast_state a ~group:"g" ~obj:"o" ~data:"v" ())
        ());
  run w.engine;
  Corona.Server.shutdown server;
  run w.engine;
  (* A new incarnation on the same storage finds the group. *)
  let server2 = Corona.Server.create w.fabric w.server_host ~storage:w.storage () in
  Alcotest.(check bool) "recovered after clean shutdown" true
    (Corona.Server.group_exists server2 "g");
  match Corona.Server.group_state server2 "g" with
  | Some st ->
      Alcotest.(check (option string)) "state intact" (Some "v")
        (Corona.Shared_state.get st "o")
  | None -> Alcotest.fail "state missing"

let test_join_nonexistent_group_fails () =
  let w, _server = make_world () in
  let failed = ref false in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.join a ~group:"nope"
        ~k:(function
          | Corona.Client.R_failed _ -> failed := true
          | _ -> Alcotest.fail "join of a nonexistent group must fail")
        ());
  run w.engine;
  Alcotest.(check bool) "failed" true !failed

let test_transient_group_dies_with_last_crash () =
  let w, server = make_world () in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          ignore
            (Sim.Engine.schedule w.engine ~delay:0.1 (fun () ->
                 Net.Host.crash w.client_hosts.(0))))
        ());
  run w.engine;
  Alcotest.(check bool) "transient group deleted when last member crashed"
    false
    (Corona.Server.group_exists server "g")

let test_chunked_transfer_reassembly () =
  (* QoS pacing ([11]): a 25 kB object plus small ones, sliced into 8 kB
     chunks, must reassemble byte-identically at the joiner. *)
  let config =
    { Corona.Server.default_config with transfer_chunk_bytes = Some 8_000 }
  in
  let w, _server = make_world ~config () in
  let big = String.init 25_000 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let joined = ref false in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g"
        ~initial:[ ("big", big); ("s1", "x"); ("s2", "yy") ]
        ~k:(fun r ->
          expect_ok "create" r;
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
          Corona.Client.join b ~group:"g"
            ~k:(fun r ->
              ignore (expect_join "chunked join" r);
              joined := true;
              let st = Option.get (Corona.Client.replica b "g") in
              Alcotest.(check (option string)) "big object reassembled"
                (Some big)
                (Corona.Shared_state.get st "big");
              Alcotest.(check (option string)) "s1" (Some "x")
                (Corona.Shared_state.get st "s1");
              Alcotest.(check (option string)) "s2" (Some "yy")
                (Corona.Shared_state.get st "s2"))
            ()))
        ());
  run w.engine;
  Alcotest.(check bool) "join completed" true !joined

let test_chunked_transfer_interleaving () =
  (* While the 500 kB transfer is paced out, another member's update must
     overtake it rather than queue behind the whole bulk. The joiner hears
     that update before its [Join_accepted], sequenced after its cut: it
     waits for the reply and then applies. *)
  let config =
    { Corona.Server.default_config with transfer_chunk_bytes = Some 8_000 }
  in
  let w, _server = make_world ~config () in
  let big = List.init 50 (fun i -> (Printf.sprintf "o%02d" i, String.make 10_000 'd')) in
  let update_rtt = ref nan and join_done = ref nan and t0 = ref nan in
  let b_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      let me = Corona.Client.member a in
      Corona.Client.set_on_event a (fun _ -> function
        | Corona.Client.Delivered u when u.T.sender = me ->
            update_rtt := Sim.Engine.now w.engine -. !t0
        | _ -> ());
      Corona.Client.create_group a ~group:"g" ~initial:big ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              b_ref := Some b;
              Corona.Client.join b ~group:"g"
                ~k:(fun _ -> join_done := Sim.Engine.now w.engine)
                ();
              (* Fire the interactive update just after the bulk transfer
                 starts. *)
              ignore
                (Sim.Engine.schedule w.engine ~delay:0.02 (fun () ->
                     t0 := Sim.Engine.now w.engine;
                     Corona.Client.bcast_update a ~group:"g" ~obj:"chat"
                       ~data:"hi" ()))))
        ());
  run w.engine;
  Alcotest.(check bool)
    (Printf.sprintf "update overtook the bulk transfer (%.1f ms vs join %.1f ms)"
       (!update_rtt *. 1000.) (!join_done *. 1000.))
    true
    (!update_rtt < 0.05 && Float.is_finite !join_done);
  let b = Option.get !b_ref in
  Alcotest.(check (option string)) "the joiner holds the update" (Some "hi")
    (Option.bind (Corona.Client.replica b "g") (fun st -> Corona.Shared_state.get st "chat"));
  Alcotest.(check (option int)) "the joiner's last seqno" (Some 0)
    (Corona.Client.last_seqno b "g")

(* A chunked join sends [Join_accepted] only after the paced chunks, but
   the joiner is a member, and hears notifications, from the start: a
   change notified meanwhile applies on top of the join's list. *)
let test_chunked_join_keeps_early_changes () =
  let config =
    { Corona.Server.default_config with transfer_chunk_bytes = Some 8_000 }
  in
  let w, server = make_world ~config () in
  let big = List.init 50 (fun i -> (Printf.sprintf "o%02d" i, String.make 10_000 'd')) in
  let b_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      Corona.Client.create_group a ~group:"g" ~initial:big ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g" ~transfer:T.No_state
        ~k:(fun _ ->
          connect_client w ~host:w.client_hosts.(1) ~member:"b" (fun b ->
              b_ref := Some b;
              Corona.Client.join b ~group:"g" ~k:(fun _ -> ()) ();
              ignore
                (Sim.Engine.schedule w.engine ~delay:0.05 (fun () ->
                     connect_client w ~host:w.client_hosts.(2) ~member:"c" (fun c ->
                         Corona.Client.join c ~group:"g" ~transfer:T.No_state
                           ~k:(fun _ -> ())
                           ())))))
        ());
  run w.engine;
  let names ms = List.map (fun (m : T.member) -> m.member) ms in
  Alcotest.(check (list string)) "server order" [ "a"; "b"; "c" ]
    (names (Corona.Server.group_members server "g"));
  Alcotest.(check (list string)) "b's view" [ "a"; "b"; "c" ]
    (names (Corona.Client.members (Option.get !b_ref) ~group:"g"))

(* §6: "if none of the replicas has logged an update, the update message
   can be retrieved by the crash recovery algorithm from the original sender
   of the message, based on the sequence number". Crash the server with
   updates still in the disk queue; the rejoining sender restores the lost
   suffix. At [total = 300] the sender's 128-entry recent-update ring has
   wrapped, while full of pending deliveries, before the crash; the crash
   waits until the lost suffix fits in the ring, and the resend must still
   return it in seqno order. *)
let sender_assisted_recovery ~total =
  let w, _server = make_world () in
  let a_ref = ref None in
  connect_client w ~host:w.client_hosts.(0) ~member:"a" (fun a ->
      a_ref := Some a;
      Corona.Client.create_group a ~group:"g" ~persistent:true
        ~k:(expect_ok "create") ();
      Corona.Client.join a ~group:"g"
        ~k:(fun _ ->
          for i = 0 to total - 1 do
            Corona.Client.bcast_update a ~group:"g" ~obj:"o"
              ~data:(Printf.sprintf "<%02d>" i) ()
          done)
        ());
  (* Crash while a durable prefix exists but the tail is still queued. *)
  let wal = Corona.Server_storage.wal_for w.storage "g" in
  let crashed = ref false in
  let durable_at_crash = ref 0 in
  Sim.Engine.periodic w.engine ~every:0.0005 (fun () ->
      if
        (not !crashed)
        && Storage.Wal.next_index wal = total
        && Storage.Wal.durable_upto wal > max 0 (total - 100)
        && Storage.Wal.durable_upto wal < total - 5
      then begin
        crashed := true;
        durable_at_crash := Storage.Wal.durable_upto wal;
        Net.Host.crash w.server_host
      end;
      not !crashed);
  run w.engine;
  Alcotest.(check bool) "found a crash window" true !crashed;
  Net.Host.restart w.server_host;
  let server2 = Corona.Server.create w.fabric w.server_host ~storage:w.storage () in
  let recovered_from_disk = Option.get (Corona.Server.group_next_seqno server2 "g") in
  Alcotest.(check bool)
    (Printf.sprintf "a suffix was lost (disk had %d of %d)" recovered_from_disk total)
    true
    (recovered_from_disk < total);
  (* The sender reconnects; its rejoin triggers the resend protocol, which
     restores everything it had seen (updates still in flight at crash time
     were never sequenced and are legitimately gone). *)
  let rejoined = ref false in
  let a = Option.get !a_ref in
  let client_knows = Option.get (Corona.Client.last_seqno a "g") + 1 in
  Alcotest.(check bool) "the client is ahead of the recovered disk" true
    (client_knows > recovered_from_disk);
  let sender_state = Corona.Shared_state.digest (Option.get (Corona.Client.replica a "g")) in
  Corona.Client.reconnect a
    ~on_connected:(fun a2 ->
      Corona.Client.rejoin a2 ~group:"g"
        ~k:(fun r ->
          ignore (expect_join "rejoin" r);
          rejoined := true;
          let client_state =
            Corona.Shared_state.get
              (Option.get (Corona.Client.replica a2 "g"))
              "o"
          in
          let server_state =
            Option.bind (Corona.Server.group_state server2 "g") (fun st ->
                Corona.Shared_state.get st "o")
          in
          Alcotest.(check (option string)) "client and server agree"
            server_state client_state)
        ())
    ~on_failed:(fun () -> Alcotest.fail "reconnect failed")
    ();
  run w.engine;
  Alcotest.(check bool) "rejoined" true !rejoined;
  (* Every update the sender had seen is back, beyond what the disk held. *)
  Alcotest.(check (option int)) "server position = client position"
    (Some client_knows)
    (Corona.Server.group_next_seqno server2 "g");
  Alcotest.(check bool) "recovered past the durable prefix" true
    (client_knows > !durable_at_crash);
  Alcotest.(check (option string)) "server state = the sender's replica before the crash"
    (Some sender_state)
    (Option.map Corona.Shared_state.digest (Corona.Server.group_state server2 "g"))

let test_sender_assisted_recovery () =
  List.iter (fun total -> sender_assisted_recovery ~total) [ 60; 300 ]

(* Relays speak only for their members and the root only when it fans out,
   so an idle relay tier is silent. Two relays front four members of one
   group; once every join is answered, ten seconds pass without a packet. *)
let test_idle_relay_tier_sends_nothing () =
  let w, _server = make_world () in
  let joined = ref 0 and ready = ref 0 in
  let relay_hosts =
    Array.init 2 (fun i -> Net.Fabric.add_host w.fabric ~name:(Printf.sprintf "relay-%d" i) ())
  in
  let via_relay i k =
    let member = Printf.sprintf "m%d" i in
    Corona.Client.connect w.fabric ~host:w.client_hosts.(i) ~server:relay_hosts.(i mod 2)
      ~member ~on_connected:k
      ~on_failed:(fun () -> Alcotest.failf "%s failed to connect" member)
      ()
  in
  let join c =
    Corona.Client.join c ~group:"g"
      ~k:(fun r ->
        ignore (expect_join "join" r);
        incr joined)
      ()
  in
  let start () =
    via_relay 0 (fun c ->
        Corona.Client.create_group c ~group:"g" ~k:(expect_ok "create") ();
        join c;
        for i = 1 to 3 do
          via_relay i join
        done)
  in
  Array.iteri
    (fun i host ->
      ignore
        (Corona.Relay.create w.fabric host ~relay:(Printf.sprintf "relay-%d" i)
           ~root:w.server_host
           ~on_ready:(fun _ ->
             incr ready;
             if !ready = 2 then start ())
           ~on_failed:(fun () -> Alcotest.fail "relay could not reach the root")
           ()))
    relay_hosts;
  Sim.Engine.run ~until:5.0 w.engine;
  Alcotest.(check int) "every member joined" 4 !joined;
  let before = Net.Fabric.packets_sent w.fabric in
  Sim.Engine.run ~until:15.0 w.engine;
  Alcotest.(check int) "no packet in 10 s" before (Net.Fabric.packets_sent w.fabric)

(* A relay forwards membership changes on its control connection and a
   member's join reply on the member's own proxied connection, so on a lossy
   link a change can reach a joiner before its [Join_accepted]. It waits
   for the reply: the event comes after the join's continuation, and the
   view then holds the joiner. A change raised at the very instant of the
   continuation is one that waited, and some must have. *)
let test_relay_change_waits_for_join () =
  let w, _server =
    make_world ~seed:7L ~clients:6 ~net:{ Net.Fabric.lan with loss_rate = 0.05 } ()
  in
  let relay_host = Net.Fabric.add_host w.fabric ~name:"relay" () in
  let now () = Sim.Engine.now w.engine in
  let joined = ref 0 and waited = ref 0 and wrong = ref [] in
  let via_relay i k =
    let member = Printf.sprintf "m%d" i in
    Corona.Client.connect w.fabric ~host:w.client_hosts.(i) ~server:relay_host ~member
      ~on_connected:(fun c ->
        let replied_at = ref nan in
        Corona.Client.set_on_event c (fun c -> function
          | Corona.Client.Membership_changed { group; change } ->
              let seen = Format.asprintf "%s: %a" member T.pp_membership_change change in
              if Float.is_nan !replied_at then wrong := (seen ^ " before the reply") :: !wrong
              else if now () = !replied_at then incr waited;
              if
                not
                  (List.exists
                     (fun (m : T.member) -> m.member = member)
                     (Corona.Client.members c ~group))
              then wrong := (seen ^ " with the joiner absent") :: !wrong
          | _ -> ());
        k c (fun r ->
            ignore (expect_join "join" r);
            replied_at := now ();
            incr joined))
      ~on_failed:(fun () -> Alcotest.failf "%s failed to connect" member)
      ()
  in
  let join c k = Corona.Client.join c ~group:"g" ~k () in
  ignore
    (Corona.Relay.create w.fabric relay_host ~relay:"relay" ~root:w.server_host
       ~on_ready:(fun _ ->
         via_relay 0 (fun c k ->
             Corona.Client.create_group c ~group:"g" ~k:(expect_ok "create") ();
             join c (fun r ->
                 k r;
                 for i = 1 to 5 do
                   via_relay i join
                 done)))
       ~on_failed:(fun () -> Alcotest.fail "relay could not reach the root")
       ());
  Sim.Engine.run ~until:30.0 w.engine;
  Alcotest.(check int) "every member joined" 6 !joined;
  Alcotest.(check (list string)) "changes after the join's reply, joiner present" []
    (List.rev !wrong);
  Alcotest.(check bool) "a change waited for its join's reply" true (!waited > 0)

(* Notifications carry only the change: each subscriber rebuilds the view
   from its join-time list. Three subscribers watch four actors join, leave,
   rejoin with another role and crash in random order; after every step
   each subscriber's view is the server's list, order and roles included. *)
type view_op = V_join of int * T.role | V_leave of int | V_crash of int

let qcheck_subscriber_views =
  let actors = 4 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 24)
        (frequency
           [
             ( 3,
               map2
                 (fun i obs -> V_join (i, if obs then T.Observer else T.Principal))
                 (int_bound (actors - 1)) bool );
             (2, map (fun i -> V_leave i) (int_bound (actors - 1)));
             (1, map (fun i -> V_crash i) (int_bound (actors - 1)));
           ]))
  in
  let print =
    let one = function
      | V_join (i, r) -> Format.asprintf "join x%d %a" i T.pp_role r
      | V_leave i -> Printf.sprintf "leave x%d" i
      | V_crash i -> Printf.sprintf "crash x%d" i
    in
    fun ops -> String.concat "; " (List.map one ops)
  in
  QCheck.Test.make ~count:100 ~name:"subscriber views follow the server's list"
    (QCheck.make ~print gen)
    (fun ops ->
      let w, server = make_world ~clients:(3 + actors) () in
      let subs = Array.make 3 None and acts = Array.make actors None in
      for i = 0 to 2 do
        connect_client w ~host:w.client_hosts.(i) ~member:(Printf.sprintf "s%d" i) (fun c ->
            if i = 0 then
              Corona.Client.create_group c ~group:"g" ~persistent:true
                ~k:(expect_ok "create") ();
            Corona.Client.join c ~group:"g" ~k:(fun _ -> subs.(i) <- Some c) ());
        run w.engine
      done;
      let live i =
        match acts.(i) with
        | Some c when Corona.Client.is_connected c -> Some c
        | Some _ | None -> None
      in
      let step = function
        | V_join (i, role) -> (
            let join c =
              Corona.Client.join c ~group:"g" ~role ~notify:false ~k:(fun _ -> ()) ()
            in
            match live i with
            | Some c -> join c
            | None ->
                let host = w.client_hosts.(3 + i) in
                if not (Net.Host.is_alive host) then Net.Host.restart host;
                connect_client w ~host ~member:(Printf.sprintf "x%d" i) (fun c ->
                    acts.(i) <- Some c;
                    join c))
        | V_leave i ->
            Option.iter (fun c -> Corona.Client.leave c ~group:"g" ~k:(fun _ -> ())) (live i)
        | V_crash i ->
            if live i <> None then begin
              acts.(i) <- None;
              Net.Host.crash w.client_hosts.(3 + i)
            end
      in
      let views_agree () =
        let expected = Corona.Server.group_members server "g" in
        Array.for_all
          (function
            | Some c -> Corona.Client.members c ~group:"g" = expected | None -> false)
          subs
      in
      views_agree ()
      && List.for_all
           (fun op ->
             step op;
             run w.engine;
             views_agree ())
           ops)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "corona"
    [
      ( "server",
        [
          tc "create, join, bcast" `Quick test_create_join_bcast;
          tc "full state transfer on join" `Quick test_full_state_transfer_on_join;
          tc "sender-exclusive not echoed" `Quick test_sender_exclusive_not_echoed;
          tc "total order across senders" `Quick test_total_order_across_senders;
          tc "persistent group outlives members" `Quick
            test_persistent_group_outlives_members;
          tc "crash recovery from disk" `Quick test_crash_recovery_from_disk;
          tc "crash loses unflushed tail" `Quick test_crash_loses_unflushed_tail;
          tc "latest-n state transfer" `Quick test_latest_updates_transfer;
          tc "object-subset state transfer" `Quick test_object_subset_transfer;
          tc "membership notifications" `Quick test_membership_notifications;
          tc "client crash detected" `Quick test_client_crash_detected;
          tc "locks: grant, busy, queue" `Quick test_locks;
          tc "log reduction" `Quick test_log_reduction;
          tc "observer cannot update" `Quick test_observer_cannot_update;
          tc "stateless mode sequences only" `Quick
            test_stateless_mode_sequences_only;
          tc "access control denies join" `Quick test_access_control_deny;
          tc "hybrid multicast delivery" `Quick test_multicast_delivery_mode;
          tc "multicast exclusive echo suppressed" `Quick
            test_multicast_exclusive_echo_suppressed;
          tc "reconnect resyncs the missed suffix" `Quick test_reconnect_resync;
          tc "rejoin after log reduction falls back" `Quick
            test_rejoin_after_log_reduction_falls_back;
          tc "multiple groups on one connection" `Quick test_multiple_groups_one_client;
          tc "rebind reaches every group" `Quick test_rebind_reaches_every_group;
          tc "duplicate delivery dropped" `Quick test_duplicate_delivery_dropped;
          tc "client replica cache follows the table" `Quick
            test_client_replica_cache_follows_the_table;
          tc "delete notifies members, durably" `Quick test_delete_group_notifies_members;
          tc "get_membership query" `Quick test_get_membership_query;
          tc "ping measures rtt" `Quick test_ping_measures_rtt;
          tc "concurrent joins are unobtrusive" `Quick test_concurrent_joins_unobtrusive;
          tc "graceful shutdown checkpoints" `Quick test_graceful_shutdown_checkpoints;
          tc "join nonexistent group fails" `Quick test_join_nonexistent_group_fails;
          tc "transient group dies with last crash" `Quick
            test_transient_group_dies_with_last_crash;
          tc "chunked transfer reassembles" `Quick test_chunked_transfer_reassembly;
          tc "chunked transfer interleaves" `Quick test_chunked_transfer_interleaving;
          tc "chunked join keeps early changes" `Quick test_chunked_join_keeps_early_changes;
          tc "sender-assisted crash recovery" `Quick test_sender_assisted_recovery;
          tc "locks: one table per group incarnation" `Quick
            test_lock_table_per_group_incarnation;
          QCheck_alcotest.to_alcotest qcheck_subscriber_views;
        ] );
      ( "relay",
        [
          tc "an idle relay tier sends nothing" `Quick test_idle_relay_tier_sends_nothing;
          tc "a change waits for the joiner's reply" `Quick test_relay_change_waits_for_join;
        ] );
    ]
