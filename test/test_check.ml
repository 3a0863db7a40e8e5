(* Tests for the corona-check harness: schedule generation, determinism of
   the runner, the seeded-bug acceptance path (an injected bug must trip an
   oracle and the shrinker must keep a failing, replayable schedule), and
   the oracle replay models in isolation. *)

module S = Check.Schedule
module O = Check.Oracles

let tc = Alcotest.test_case

(* --- generation ---------------------------------------------------------- *)

let test_generation_shape () =
  for seed = 1 to 40 do
    let rng = Sim.Rng.create (Int64.of_int seed) in
    let s = S.generate rng in
    Alcotest.(check bool) "clients" true (s.S.clients >= 3 && s.S.clients <= 5);
    Alcotest.(check bool) "groups" true (s.S.groups >= 1 && s.S.groups <= 3);
    (* events sorted by start time *)
    let rec sorted = function
      | a :: (b :: _ as tl) -> S.event_at a <= S.event_at b && sorted tl
      | _ -> true
    in
    Alcotest.(check bool) "sorted" true (sorted s.S.events);
    (* no non-crash event inside a server-crash guard window *)
    let crash_spans =
      List.filter_map
        (function
          | S.Crash_server { at_ms; down_ms; _ } ->
              Some (at_ms - S.crash_guard_ms, at_ms + down_ms + S.crash_guard_ms)
          | _ -> None)
        s.S.events
    in
    List.iter
      (fun ev ->
        match ev with
        | S.Crash_server _ -> ()
        | ev ->
            let e0, e1 = S.event_span ev in
            List.iter
              (fun (g0, g1) ->
                Alcotest.(check bool) "guarded" false (e0 <= g1 && g0 <= e1))
              crash_spans)
      s.S.events
  done

let test_generation_deterministic () =
  let gen seed =
    let rng = Sim.Rng.create seed in
    S.generate rng
  in
  let a = gen 9L and b = gen 9L in
  Alcotest.(check bool) "same schedule" true (a = b)

(* --- determinism regression ---------------------------------------------- *)

(* The same (seed, schedule) pair must produce byte-for-byte identical event
   traces when executed twice in one process: any divergence means some
   state leaked between runs or nondeterminism crept into the stack. *)
let test_runner_deterministic () =
  List.iter
    (fun seed ->
      let sched =
        let rng = Sim.Rng.create seed in
        S.generate ~smoke:true rng
      in
      let r1 = Check.Runner.execute ~seed sched in
      let r2 = Check.Runner.execute ~seed sched in
      Alcotest.(check (list string))
        (Printf.sprintf "trace of seed %Ld" seed)
        r1.Check.Runner.r_trace r2.Check.Runner.r_trace;
      Alcotest.(check int)
        (Printf.sprintf "deliveries of seed %Ld" seed)
        r1.Check.Runner.r_deliveries r2.Check.Runner.r_deliveries)
    [ 2L; 3L; 6L; 37L ]

(* --- clean runs ----------------------------------------------------------- *)

let test_trunk_passes_smoke () =
  for seed = 1 to 12 do
    let seed = Int64.of_int seed in
    let sched =
      let rng = Sim.Rng.create seed in
      S.generate ~smoke:true rng
    in
    let r = Check.Runner.execute ~seed sched in
    List.iter
      (fun v -> Alcotest.failf "seed %Ld: %s" seed (O.violation_line v))
      r.Check.Runner.r_violations
  done

(* Regression for the coordinator-failover bug corona-check caught on its
   first full sweep: [coord_handle] buffered [Dir_reply] behind the
   directory-recovery gate it was supposed to feed, so a resent broadcast
   could be sequenced against an incomplete directory and silently skip
   replicas (fixed in lib/replication/node.ml). Generation is deterministic,
   so full-profile seed 37 replays the exact schedule that exposed it. *)
let test_seed_37_failover_regression () =
  let sched = S.generate (Sim.Rng.create 37L) in
  (match sched.S.kind with
  | S.Replicated _ -> ()
  | S.Single _ | S.Sharded _ | S.Relay _ ->
      Alcotest.fail "seed 37 must generate a replicated deployment");
  Alcotest.(check bool)
    "partitions a server" true
    (List.exists (function S.Partition_servers _ -> true | _ -> false) sched.S.events);
  let r = Check.Runner.execute ~seed:37L sched in
  Alcotest.(check (list string))
    "no violations" []
    (List.map O.violation_line r.Check.Runner.r_violations)

(* Regression for the PR-5 snapshot-cached state transfer: several clients
   reconnect and rejoin in a tight window while another keeps writing, so
   concurrent joins share one cached join-state encoding, the interleaved
   bursts invalidate it between waves, and (sync_log, so [single_config]
   turns WAL batching on) the rejoin-era traffic group-commits. A stale
   cached snapshot being served, or a batch surviving partially, trips the
   convergence / fidelity oracles. *)
let join_storm_schedule =
  {
    S.kind = S.Single { sync_log = true };
    clients = 4;
    groups = 1;
    horizon_ms = 14_000;
    events =
      [
        S.Burst { client = 0; group = 0; at_ms = 2_500; count = 4; size = 32 };
        S.Client_churn { client = 1; at_ms = 3_000; down_ms = 1_000; crash = false };
        S.Client_churn { client = 2; at_ms = 3_100; down_ms = 1_000; crash = false };
        S.Client_churn { client = 3; at_ms = 3_200; down_ms = 1_000; crash = true };
        S.Burst { client = 0; group = 0; at_ms = 4_050; count = 3; size = 48 };
        S.Client_churn { client = 2; at_ms = 6_000; down_ms = 800; crash = false };
        S.Burst { client = 1; group = 0; at_ms = 7_500; count = 2; size = 16 };
        S.Lock_cycle { client = 0; group = 0; lock = 0; at_ms = 8_500; hold_ms = 400 };
      ];
  }

let test_join_storm_regression () =
  let r = Check.Runner.execute ~seed:11L join_storm_schedule in
  Alcotest.(check (list string))
    "no violations" []
    (List.map O.violation_line r.Check.Runner.r_violations);
  Alcotest.(check bool) "traffic delivered" true (r.Check.Runner.r_deliveries > 0)

(* Shrunk failover reproducers from wide corona-check sweeps, each replayed
   with the seed that found it. A server partition deposes the coordinator,
   and then:
   - sharded 626: a client that churned before the partition ends with an
     empty copy after it heals;
   - sharded 693: recovery reseeded the shard allocators below positions
     the clients had already seen, so a barrier vector ran backwards;
   - replicated 3253: the deposed coordinator's [Delete_group], delivered
     after the heal, wiped the copy the new reign was serving;
   - sharded 9914 and 19302: forwards parked behind a freeze were replayed
     newest first on a [Shard_assign], so the owner's duplicate filter
     dropped the older ones and a later owner stamped them again;
   - sharded 494: a new owner re-stamped forwards its predecessor had
     already sequenced in the other half of the partition.
   The first two fell to the single recovery round (positions gathered with
   the directory, owners reassigned before buffered requests replay); the
   third to replicas ignoring a deposed coordinator's delete; the next two
   to replaying parked forwards oldest first; the last to [Shard_assign]
   carrying the survivors' origin watermarks to the new owners. *)
let partition_regressions =
  [
    ( 626L,
      {
        S.kind = S.Sharded { replicas = 2; shards = 4 };
        clients = 2;
        groups = 2;
        horizon_ms = 12_000;
        events =
          [
            S.Client_churn { client = 1; at_ms = 2541; down_ms = 807; crash = false };
            S.Partition_servers { servers = [ 0 ]; at_ms = 3087; dur_ms = 2956 };
          ];
      } );
    ( 693L,
      {
        S.kind = S.Sharded { replicas = 2; shards = 2 };
        clients = 3;
        groups = 2;
        horizon_ms = 12_000;
        events =
          [
            S.Partition_servers { servers = [ 0 ]; at_ms = 2137; dur_ms = 4658 };
            S.Burst { client = 2; group = 0; at_ms = 3684; count = 1; size = 8 };
            S.Client_churn { client = 0; at_ms = 5896; down_ms = 1898; crash = false };
          ];
      } );
    ( 3253L,
      {
        S.kind = S.Replicated { replicas = 3 };
        clients = 2;
        groups = 2;
        horizon_ms = 12_000;
        events =
          [
            S.Client_churn { client = 1; at_ms = 3647; down_ms = 624; crash = false };
            S.Partition_servers { servers = [ 0 ]; at_ms = 3771; dur_ms = 3284 };
            S.Client_churn { client = 1; at_ms = 4866; down_ms = 2669; crash = false };
          ];
      } );
    ( 9914L,
      {
        S.kind = S.Sharded { replicas = 3; shards = 8 };
        clients = 2;
        groups = 2;
        horizon_ms = 12_000;
        events =
          [
            S.Partition_servers { servers = [ 0; 3 ]; at_ms = 2197; dur_ms = 3206 };
            S.Burst { client = 0; group = 0; at_ms = 5681; count = 8; size = 8 };
          ];
      } );
    ( 19302L,
      {
        S.kind = S.Sharded { replicas = 3; shards = 8 };
        clients = 2;
        groups = 1;
        horizon_ms = 12_000;
        events =
          [
            S.Partition_servers { servers = [ 0; 3 ]; at_ms = 2158; dur_ms = 3169 };
            S.Hot_burst { client = 1; group = 0; at_ms = 5688; count = 5; size = 8 };
          ];
      } );
    ( 494L,
      {
        S.kind = S.Sharded { replicas = 3; shards = 8 };
        clients = 2;
        groups = 2;
        horizon_ms = 12_000;
        events =
          [
            S.Partition_servers { servers = [ 0; 3 ]; at_ms = 2873; dur_ms = 3966 };
            S.Client_churn { client = 0; at_ms = 3813; down_ms = 1309; crash = false };
            S.Burst { client = 1; group = 1; at_ms = 5816; count = 6; size = 8 };
          ];
      } );
  ]

(* Shrunk relay reproducers from a 5000-seed `--relay` full-profile sweep.
   Each is a client churn or a relay crash, then a burst soon after the
   member is back. A relay member's [Join_accepted] comes up its proxied
   connection while the relay re-fans broadcasts on its control connection,
   so the burst's first updates reached the rejoined member before its
   reply: they were dropped, or applied before the join's continuation,
   and the member saw a seqno gap (201, 1258 and 3258 with a digest mismatch too).
   They fell to the client holding a joining group's deliveries, changes
   and chunks until the reply. *)
let relay_regressions =
  let relay ~relays ~clients ~groups events =
    { S.kind = S.Relay { relays }; clients; groups; horizon_ms = 20_000; events }
  in
  [
    ( 201L,
      relay ~relays:4 ~clients:5 ~groups:1
        [
          S.Client_churn { client = 4; at_ms = 7700; down_ms = 2727; crash = false };
          S.Burst { client = 0; group = 0; at_ms = 10428; count = 4; size = 8 };
        ] );
    ( 905L,
      relay ~relays:2 ~clients:3 ~groups:2
        [
          S.Client_churn { client = 1; at_ms = 3571; down_ms = 2748; crash = false };
          S.Burst { client = 2; group = 1; at_ms = 6322; count = 2; size = 8 };
        ] );
    ( 1258L,
      relay ~relays:4 ~clients:5 ~groups:3
        [
          S.Crash_relay { relay = 0; at_ms = 8133 };
          S.Burst { client = 3; group = 0; at_ms = 8833; count = 5; size = 8 };
        ] );
    ( 3165L,
      relay ~relays:3 ~clients:4 ~groups:1
        [
          S.Client_churn { client = 0; at_ms = 8686; down_ms = 1217; crash = false };
          S.Burst { client = 3; group = 0; at_ms = 9904; count = 5; size = 19 };
        ] );
    ( 3258L,
      relay ~relays:3 ~clients:5 ~groups:2
        [
          S.Client_churn { client = 2; at_ms = 4500; down_ms = 2562; crash = false };
          S.Burst { client = 0; group = 0; at_ms = 7060; count = 6; size = 8 };
        ] );
  ]

(* Shrunk sharded reproducers from a 5000-seed sweep (4801 from
   `--sharded --smoke`, the rest from `--sharded` full). Each partitions
   srv-0 away, then churns clients after the heal, and a rejoin is never
   answered. In 1530, srv-0's takeover round closed on a timer while its
   query to srv-2 was still held by the partition; the answer came after
   the heal and was merged into the directory anyway, bringing back a group
   deleted since, with a stale shard position. The next view barrier was
   stamped with that position, which the joiner's own copy never reaches.
   They fell to the round closing only on answers or deaths and counting
   only the answers of the round that is open. *)
let sharded_regressions =
  let sharded ~replicas ~shards ~clients ~groups ~horizon_ms events =
    { S.kind = S.Sharded { replicas; shards }; clients; groups; horizon_ms; events }
  in
  [
    ( 1530L,
      sharded ~replicas:2 ~shards:8 ~clients:3 ~groups:3 ~horizon_ms:20_000
        [
          S.Partition_servers { servers = [ 0 ]; at_ms = 6476; dur_ms = 5304 };
          S.Client_churn { client = 0; at_ms = 11519; down_ms = 1529; crash = false };
          S.Client_churn { client = 1; at_ms = 12449; down_ms = 887; crash = false };
        ] );
    ( 3600L,
      sharded ~replicas:2 ~shards:2 ~clients:3 ~groups:3 ~horizon_ms:20_000
        [
          S.Partition_servers { servers = [ 0 ]; at_ms = 9933; dur_ms = 5447 };
          S.Client_churn { client = 2; at_ms = 14469; down_ms = 1330; crash = false };
          S.Client_churn { client = 1; at_ms = 15512; down_ms = 1349; crash = false };
        ] );
    ( 4027L,
      sharded ~replicas:3 ~shards:8 ~clients:3 ~groups:3 ~horizon_ms:20_000
        [
          S.Partition_servers { servers = [ 0 ]; at_ms = 3167; dur_ms = 4343 };
          S.Client_churn { client = 0; at_ms = 7272; down_ms = 1332; crash = false };
          S.Client_churn { client = 2; at_ms = 7821; down_ms = 706; crash = true };
        ] );
    ( 4370L,
      sharded ~replicas:2 ~shards:8 ~clients:3 ~groups:2 ~horizon_ms:20_000
        [
          S.Burst { client = 0; group = 1; at_ms = 7081; count = 1; size = 8 };
          S.Partition_servers { servers = [ 0 ]; at_ms = 11063; dur_ms = 3080 };
          S.Client_churn { client = 1; at_ms = 12792; down_ms = 2279; crash = false };
          S.Client_churn { client = 2; at_ms = 14479; down_ms = 475; crash = false };
          S.Client_churn { client = 0; at_ms = 14677; down_ms = 690; crash = false };
        ] );
    ( 4956L,
      sharded ~replicas:3 ~shards:4 ~clients:3 ~groups:3 ~horizon_ms:20_000
        [
          S.Partition_servers { servers = [ 0 ]; at_ms = 2237; dur_ms = 5749 };
          S.Client_churn { client = 2; at_ms = 7358; down_ms = 2354; crash = false };
          S.Client_churn { client = 0; at_ms = 8735; down_ms = 428; crash = false };
        ] );
    ( 4801L,
      sharded ~replicas:2 ~shards:2 ~clients:2 ~groups:2 ~horizon_ms:12_000
        [
          S.Partition_servers { servers = [ 0 ]; at_ms = 2143; dur_ms = 4109 };
          S.Client_churn { client = 0; at_ms = 6625; down_ms = 1009; crash = false };
          S.Client_churn { client = 1; at_ms = 7243; down_ms = 714; crash = false };
        ] );
  ]

let replay_regressions regressions () =
  List.iter
    (fun (seed, sched) ->
      let r = Check.Runner.execute ~seed sched in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %Ld: no violations" seed)
        []
        (List.map O.violation_line r.Check.Runner.r_violations))
    regressions

let test_partition_regressions = replay_regressions partition_regressions

let test_relay_regressions = replay_regressions relay_regressions

let test_sharded_regressions = replay_regressions sharded_regressions

(* --- seeded bug + shrinking ----------------------------------------------- *)

(* A client that reconnects after churn but "forgets" to rejoin its groups
   keeps a stale replica: the convergence (or membership) oracle must fire,
   and the shrinker must cut the schedule down while keeping it failing. *)
let seeded_bug_schedule =
  {
    S.kind = S.Single { sync_log = false };
    clients = 3;
    groups = 1;
    horizon_ms = 12_000;
    events =
      [
        S.Client_churn { client = 1; at_ms = 3_000; down_ms = 1_000; crash = false };
        S.Burst { client = 0; group = 0; at_ms = 6_000; count = 3; size = 16 };
        S.Burst { client = 2; group = 0; at_ms = 7_000; count = 2; size = 16 };
        S.Lock_cycle { client = 2; group = 0; lock = 0; at_ms = 8_000; hold_ms = 400 };
      ];
  }

let bug =
  {
    Check.Runner.skip_reconcile = false;
    skip_rejoin = true;
    skip_barrier = false;
    relay_crash = false;
    skip_failover = false;
  }

let test_seeded_bug_detected () =
  let r = Check.Runner.execute ~bug ~seed:5L seeded_bug_schedule in
  Alcotest.(check bool) "oracle fired" true (r.Check.Runner.r_violations <> []);
  let clean = Check.Runner.execute ~seed:5L seeded_bug_schedule in
  Alcotest.(check (list string))
    "clean run passes" []
    (List.map O.violation_line clean.Check.Runner.r_violations)

let test_shrinker_keeps_failure () =
  let still_fails s =
    (Check.Runner.execute ~bug ~seed:5L s).Check.Runner.r_violations <> []
  in
  let shrunk, stats = Check.Shrink.shrink ~still_fails seeded_bug_schedule in
  Alcotest.(check bool) "still fails" true (still_fails shrunk);
  Alcotest.(check bool)
    "strictly smaller" true
    (List.length shrunk.S.events < List.length seeded_bug_schedule.S.events);
  Alcotest.(check int) "kept" (List.length shrunk.S.events) stats.Check.Shrink.sh_kept;
  (* the churn event is the trigger: it must survive shrinking *)
  Alcotest.(check bool)
    "churn kept" true
    (List.exists (function S.Client_churn _ -> true | _ -> false) shrunk.S.events)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_reproducer_prints () =
  let s = Format.asprintf "%a" (S.pp_ocaml ~seed:5L) seeded_bug_schedule in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle s))
    [ "Check.Schedule.Single"; "Client_churn"; "~seed:5L"; "Check.Runner.execute" ]

(* --- injection registry --------------------------------------------------- *)

(* corona_check's [--inject] help line and parser are both generated from
   [Check.Inject.specs]; this test is the drift guard: the registry must be
   self-consistent and the rendered help must mention every injection. *)
let test_inject_registry () =
  Alcotest.(check (list string))
    "registry names"
    [ "skip-reconcile"; "skip-rejoin"; "skip-barrier"; "relay-crash"; "skip-failover" ]
    Check.Inject.names;
  Alcotest.(check string) "rendered help line"
    "BUG  deliberately break the runner: skip-reconcile | skip-rejoin | skip-barrier | relay-crash | skip-failover"
    (Check.Inject.spec_doc ());
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "help mentions %s" needle)
        true
        (contains ~needle (Check.Inject.spec_doc ())))
    Check.Inject.names;
  let open Check.Inject in
  Alcotest.(check bool) "skip-reconcile sets exactly its flag" true
    (of_string "skip-reconcile" = Some { none with skip_reconcile = true });
  Alcotest.(check bool) "skip-rejoin sets exactly its flag" true
    (of_string "skip-rejoin" = Some { none with skip_rejoin = true });
  Alcotest.(check bool) "skip-barrier sets exactly its flag" true
    (of_string "skip-barrier" = Some { none with skip_barrier = true });
  Alcotest.(check bool) "relay-crash sets exactly its flag" true
    (of_string "relay-crash" = Some { none with relay_crash = true });
  Alcotest.(check bool) "skip-failover sets exactly its flag" true
    (of_string "skip-failover" = Some { none with skip_failover = true });
  Alcotest.(check bool) "unknown name rejected" true (of_string "skip-nothing" = None);
  Alcotest.(check bool) "runner's no_bug is the registry's none" true
    (Check.Runner.no_bug = none)

(* --- sharded deployments --------------------------------------------------- *)

(* Pinned sharded schedule: bursts cycle o0/o1/o2 which route to shards
   1/2/3 of 4 (pinned in test_ordering), so sequencing genuinely spans
   shards; two lock cycles overlap so a grant is inherited through a
   cross-shard barrier; and the queued waiter (client 2) crashes while its
   inherited grant would be mid-barrier. *)
let sharded_lock_schedule =
  {
    S.kind = S.Sharded { replicas = 2; shards = 4 };
    clients = 3;
    groups = 1;
    horizon_ms = 12_000;
    events =
      [
        S.Burst { client = 0; group = 0; at_ms = 2_500; count = 6; size = 32 };
        S.Lock_cycle { client = 0; group = 0; lock = 0; at_ms = 4_000; hold_ms = 1_500 };
        S.Lock_cycle { client = 1; group = 0; lock = 1; at_ms = 4_100; hold_ms = 300 };
        (* queued behind client 0 until 5.5 s ... *)
        S.Lock_cycle { client = 2; group = 0; lock = 0; at_ms = 4_300; hold_ms = 300 };
        (* ... but crashes at 4.8 s: the handoff must skip the dead waiter *)
        S.Client_churn { client = 2; at_ms = 4_800; down_ms = 1_000; crash = true };
        S.Burst { client = 1; group = 0; at_ms = 7_000; count = 4; size = 16 };
        S.Lock_cycle { client = 1; group = 0; lock = 0; at_ms = 8_000; hold_ms = 400 };
      ];
  }

let test_sharded_locks_span_shards () =
  let r = Check.Runner.execute ~seed:21L sharded_lock_schedule in
  Alcotest.(check (list string))
    "no violations" []
    (List.map O.violation_line r.Check.Runner.r_violations);
  Alcotest.(check bool) "traffic delivered" true (r.Check.Runner.r_deliveries > 0)

(* The seeded sharded bug: membership views fan directly instead of riding
   the barrier. The cross-shard oracle must catch the missing stamps on the
   same schedule that passes clean. *)
let test_skip_barrier_bug_detected () =
  let bug = { Check.Runner.no_bug with Check.Runner.skip_barrier = true } in
  let r = Check.Runner.execute ~bug ~seed:21L sharded_lock_schedule in
  Alcotest.(check bool) "cross-shard oracle fired" true
    (List.exists
       (fun v -> contains ~needle:"barrier stamps" (O.violation_line v))
       r.Check.Runner.r_violations)

(* Sharded seed 4 under [--smoke]: srv-1 crashes, its client reconnects
   and, with skip-rejoin, never rejoins g0. The client and the servers then
   agree that it left, so only membership judged by intent (alive, wants
   to be connected, joined once) catches the injection. *)
let sharded_rejoin_schedule =
  {
    S.kind = S.Sharded { replicas = 3; shards = 4 };
    clients = 3;
    groups = 1;
    horizon_ms = 12_000;
    events = [ S.Crash_server { server = 1; at_ms = 2_162; down_ms = 0 } ];
  }

let test_skip_rejoin_caught_on_sharded () =
  let bug = { Check.Runner.no_bug with Check.Runner.skip_rejoin = true } in
  let r = Check.Runner.execute ~bug ~seed:4L sharded_rejoin_schedule in
  Alcotest.(check (list string))
    "membership oracle names the forgotten member"
    [ "[membership] g0: servers list [c1,c2] but joined agents are [c0,c1,c2]" ]
    (List.map O.violation_line r.Check.Runner.r_violations);
  let clean = Check.Runner.execute ~seed:4L sharded_rejoin_schedule in
  Alcotest.(check (list string))
    "same schedule is clean without the bug" []
    (List.map O.violation_line clean.Check.Runner.r_violations)

let test_sharded_trunk_passes_smoke () =
  for seed = 1 to 12 do
    let seed = Int64.of_int seed in
    let sched =
      let rng = Sim.Rng.create seed in
      S.generate ~smoke:true ~sharded:true rng
    in
    let r = Check.Runner.execute ~seed sched in
    List.iter
      (fun v -> Alcotest.failf "sharded seed %Ld: %s" seed (O.violation_line v))
      r.Check.Runner.r_violations
  done

let test_sharded_runner_deterministic () =
  List.iter
    (fun seed ->
      let sched =
        let rng = Sim.Rng.create seed in
        S.generate ~smoke:true ~sharded:true rng
      in
      let r1 = Check.Runner.execute ~seed sched in
      let r2 = Check.Runner.execute ~seed sched in
      Alcotest.(check (list string))
        (Printf.sprintf "trace of sharded seed %Ld" seed)
        r1.Check.Runner.r_trace r2.Check.Runner.r_trace)
    [ 2L; 19L ]

(* --- relay deployments ----------------------------------------------------- *)

(* Pinned relay scenario: three clients behind two relays, traffic before
   and after relay 0 crashes. Trunk behavior: the crashed relay's members
   fail over to relay 1, resync via Updates_since, and every oracle —
   including delivery completeness — stays green. *)
let relay_crash_schedule =
  {
    S.kind = S.Relay { relays = 2 };
    clients = 3;
    groups = 1;
    horizon_ms = 12_000;
    events =
      [
        S.Burst { client = 0; group = 0; at_ms = 2_000; count = 4; size = 16 };
        S.Burst { client = 2; group = 0; at_ms = 3_000; count = 3; size = 16 };
        S.Crash_relay { relay = 0; at_ms = 5_000 };
        S.Burst { client = 1; group = 0; at_ms = 8_000; count = 4; size = 16 };
        S.Burst { client = 2; group = 0; at_ms = 9_000; count = 2; size = 16 };
      ];
  }

let test_relay_failover_trunk () =
  let r = Check.Runner.execute ~seed:11L relay_crash_schedule in
  Alcotest.(check (list string))
    "no violations" []
    (List.map O.violation_line r.Check.Runner.r_violations);
  Alcotest.(check bool) "deliveries happened" true (r.Check.Runner.r_deliveries > 0)

(* The same scenario with the skip-failover injection: members of the dead
   relay never reconnect, so their streams stop short of the root's — the
   completeness oracle (and only a relay-gated oracle) must name them. *)
let test_skip_failover_caught_by_completeness () =
  let bug = { Check.Runner.no_bug with Check.Runner.skip_failover = true } in
  let r = Check.Runner.execute ~bug ~seed:11L relay_crash_schedule in
  Alcotest.(check bool) "completeness oracle fired" true
    (List.exists
       (fun (v : O.violation) -> v.O.v_oracle = "completeness")
       r.Check.Runner.r_violations);
  let clean = Check.Runner.execute ~seed:11L relay_crash_schedule in
  Alcotest.(check (list string))
    "same schedule is clean without the bug" []
    (List.map O.violation_line clean.Check.Runner.r_violations)

(* The relay-crash hazard injection is not a bug: it piles a deterministic
   mid-run relay crash on top of the schedule and the system must absorb
   it. *)
let test_relay_crash_hazard_survives () =
  for seed = 1 to 12 do
    let seed = Int64.of_int seed in
    let sched =
      let rng = Sim.Rng.create seed in
      S.generate ~smoke:true ~relay:true rng
    in
    let bug = { Check.Runner.no_bug with Check.Runner.relay_crash = true } in
    let r = Check.Runner.execute ~bug ~seed sched in
    List.iter
      (fun v -> Alcotest.failf "relay seed %Ld: %s" seed (O.violation_line v))
      r.Check.Runner.r_violations
  done

let test_relay_runner_deterministic () =
  List.iter
    (fun seed ->
      let sched =
        let rng = Sim.Rng.create seed in
        S.generate ~smoke:true ~relay:true rng
      in
      let r1 = Check.Runner.execute ~seed sched in
      let r2 = Check.Runner.execute ~seed sched in
      Alcotest.(check (list string))
        (Printf.sprintf "trace of relay seed %Ld" seed)
        r1.Check.Runner.r_trace r2.Check.Runner.r_trace)
    [ 3L; 14L ]

(* --- oracle replay models ------------------------------------------------- *)

let empty_input =
  {
    O.i_copies = [];
    i_journals = [];
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

let test_lock_oracle_model () =
  let j events = { empty_input with O.i_journals = [ ("srv", "g", events) ] } in
  let ok events = Alcotest.(check int) "clean" 0 (List.length (O.locks (j events))) in
  let bad events =
    Alcotest.(check bool) "flagged" true (O.locks (j events) <> [])
  in
  ok
    [
      Corona.Locks.Granted ("l", "a");
      Corona.Locks.Queued ("l", "b");
      Corona.Locks.Released ("l", "a");
      Corona.Locks.Granted ("l", "b");
      Corona.Locks.Released ("l", "b");
    ];
  (* double grant without release *)
  bad [ Corona.Locks.Granted ("l", "a"); Corona.Locks.Granted ("l", "b") ];
  (* grant out of queue order *)
  bad
    [
      Corona.Locks.Granted ("l", "a");
      Corona.Locks.Queued ("l", "b");
      Corona.Locks.Queued ("l", "c");
      Corona.Locks.Released ("l", "a");
      Corona.Locks.Granted ("l", "c");
    ];
  (* release by non-holder *)
  bad [ Corona.Locks.Granted ("l", "a"); Corona.Locks.Released ("l", "b") ];
  (* lazy removal makes the queue jump legal *)
  ok
    [
      Corona.Locks.Granted ("l", "a");
      Corona.Locks.Queued ("l", "b");
      Corona.Locks.Queued ("l", "c");
      Corona.Locks.Unqueued ("l", "b");
      Corona.Locks.Released ("l", "a");
      Corona.Locks.Granted ("l", "c");
    ]

(* Deploy labels each lock table's journal with the incarnation that made
   it: a lock cycle before a single-server crash stays under srv-0#0, and
   the persistent group that the restarted server recovers gets a fresh
   table under srv-0#1. *)
let test_lock_journals_across_restart () =
  let engine = Sim.Engine.create ~seed:5L () in
  let fabric = Net.Fabric.create engine in
  let d = Check.Deploy.create fabric (S.Single { sync_log = false }) in
  let lock_cycle ~host ~member ~first k =
    Corona.Client.connect fabric ~host ~server:(Check.Deploy.client_target d 0) ~member
      ~on_connected:(fun c ->
        if first then Corona.Client.create_group c ~group:"p" ~persistent:true ~k:ignore ();
        Corona.Client.join c ~group:"p"
          ~k:(fun _ ->
            Corona.Client.acquire_lock c ~group:"p" ~lock:"l" ~k:(fun _ ->
                Corona.Client.release_lock c ~group:"p" ~lock:"l" ~k))
          ())
      ~on_failed:(fun () -> Alcotest.failf "%s could not connect" member)
      ()
  in
  let host name = Net.Fabric.add_host fabric ~name () in
  let cycles = ref 0 in
  lock_cycle ~host:(host "c0") ~member:"a" ~first:true (fun _ -> incr cycles);
  Sim.Engine.run engine;
  Check.Deploy.crash_server d 0;
  Sim.Engine.run engine;
  Check.Deploy.restart_server d;
  lock_cycle ~host:(host "c1") ~member:"b" ~first:false (fun _ -> incr cycles);
  Sim.Engine.run engine;
  Alcotest.(check int) "both lock cycles completed" 2 !cycles;
  let journals = Check.Deploy.lock_journals d in
  let cycle m = Corona.Locks.[ Granted ("l", m); Released ("l", m) ] in
  Alcotest.(check bool) "one journal per incarnation, each with its own cycle" true
    (journals = [ ("srv-0#0", "p", cycle "a"); ("srv-0#1", "p", cycle "b") ]);
  Alcotest.(check int) "the journals replay clean" 0
    (List.length (O.locks { empty_input with O.i_journals = journals }))

let test_total_order_oracle () =
  let obs = Check.Observe.create "c0" in
  Check.Observe.record obs ~now:1.0 (Check.Observe.Joined { group = "g"; next = 0 });
  let deliver ~now seqno data =
    Check.Observe.record obs ~now
      (Check.Observe.Delivered
         { group = "g"; seqno; sender = "c1"; kind = "append"; obj = "o"; data })
  in
  deliver ~now:2.0 0 "x";
  deliver ~now:2.1 1 "y";
  let clean = { empty_input with O.i_clients = [ obs ] } in
  Alcotest.(check int) "contiguous ok" 0 (List.length (O.total_order clean));
  deliver ~now:2.2 3 "z" (* gap: #2 skipped *);
  Alcotest.(check bool) "gap flagged" true (O.total_order clean <> []);
  (* two clients disagreeing on the content of one seqno *)
  let a = Check.Observe.create "a" and b = Check.Observe.create "b" in
  List.iter
    (fun (o, data) ->
      Check.Observe.record o ~now:1.0 (Check.Observe.Joined { group = "g"; next = 0 });
      Check.Observe.record o ~now:2.0
        (Check.Observe.Delivered
           { group = "g"; seqno = 0; sender = "s"; kind = "append"; obj = "o"; data }))
    [ (a, "one"); (b, "two") ];
  let input = { empty_input with O.i_clients = [ a; b ] } in
  Alcotest.(check bool) "divergent content flagged" true (O.total_order input <> [])

let test_era_scoping () =
  (* same seqno, different content, but separated by a server restart: the
     §6 seqno reuse after a crash must NOT be flagged *)
  let a = Check.Observe.create "a" and b = Check.Observe.create "b" in
  List.iter
    (fun (o, now, data) ->
      Check.Observe.record o ~now:(now -. 0.5)
        (Check.Observe.Joined { group = "g"; next = 7 });
      Check.Observe.record o ~now
        (Check.Observe.Delivered
           { group = "g"; seqno = 7; sender = "s"; kind = "append"; obj = "o"; data }))
    [ (a, 2.0, "before-crash"); (b, 9.0, "after-recovery") ];
  let input = { empty_input with O.i_clients = [ a; b ]; i_eras = [ 5.0 ] } in
  Alcotest.(check int) "era-scoped" 0 (List.length (O.total_order input));
  let no_eras = { input with O.i_eras = [] } in
  Alcotest.(check bool) "without eras it would flag" true (O.total_order no_eras <> [])

let test_fidelity_oracle () =
  let base = [ ("o", "seed") ] in
  let u seqno data =
    {
      Proto.Types.seqno;
      group = "g";
      kind = Proto.Types.Append_update;
      obj = "o";
      data;
      sender = "s";
      timestamp = 0.0;
    }
  in
  let live = Corona.Shared_state.of_objects base in
  Corona.Shared_state.apply live (u 3 "x");
  Corona.Shared_state.apply live (u 4 "y");
  let copy =
    {
      Check.Deploy.c_owner = "srv";
      c_digest = Corona.Shared_state.digest live;
      c_next = 5;
      c_base = Some (base, 3);
      c_updates = [ u 3 "x"; u 4 "y" ];
      c_vector = [];
    }
  in
  let input g c = { empty_input with O.i_copies = [ (g, [ c ]) ] } in
  Alcotest.(check int) "replay ok" 0 (List.length (O.fidelity (input "g" copy)));
  let holey = { copy with Check.Deploy.c_updates = [ u 3 "x" ] } in
  Alcotest.(check bool) "missing tail flagged" true (O.fidelity (input "g" holey) <> [])

let () =
  Alcotest.run "check"
    [
      ( "schedule",
        [
          tc "generation shape and guards" `Quick test_generation_shape;
          tc "generation deterministic" `Quick test_generation_deterministic;
          tc "reproducer prints" `Quick test_reproducer_prints;
        ] );
      ( "runner",
        [
          tc "determinism regression" `Quick test_runner_deterministic;
          tc "trunk passes smoke seeds" `Quick test_trunk_passes_smoke;
          tc "seed 37 failover regression" `Quick test_seed_37_failover_regression;
          tc "reconnect-during-join-storm regression" `Quick test_join_storm_regression;
          tc "deposed-coordinator partition regressions" `Quick
            test_partition_regressions;
          tc "relay join-reply race regressions" `Quick test_relay_regressions;
          tc "sharded unanswered-rejoin regressions" `Quick test_sharded_regressions;
        ] );
      ( "seeded-bug",
        [
          tc "injected bug trips an oracle" `Quick test_seeded_bug_detected;
          tc "shrinker keeps the failure" `Quick test_shrinker_keeps_failure;
        ] );
      ("inject", [ tc "registry and help stay in sync" `Quick test_inject_registry ]);
      ( "sharded",
        [
          tc "locks span shards, waiter crash mid-barrier" `Quick
            test_sharded_locks_span_shards;
          tc "skip-barrier caught by cross-shard oracle" `Quick
            test_skip_barrier_bug_detected;
          tc "skip-rejoin caught by intent-based membership" `Quick
            test_skip_rejoin_caught_on_sharded;
          tc "sharded trunk passes smoke seeds" `Quick test_sharded_trunk_passes_smoke;
          tc "sharded determinism regression" `Quick test_sharded_runner_deterministic;
        ] );
      ( "relay",
        [
          tc "relay crash fails members over to the sibling" `Quick
            test_relay_failover_trunk;
          tc "skip-failover caught by completeness oracle" `Quick
            test_skip_failover_caught_by_completeness;
          tc "relay-crash hazard survives smoke seeds" `Quick
            test_relay_crash_hazard_survives;
          tc "relay determinism regression" `Quick test_relay_runner_deterministic;
        ] );
      ( "oracles",
        [
          tc "lock replay model" `Quick test_lock_oracle_model;
          tc "total order" `Quick test_total_order_oracle;
          tc "era scoping (§6 seqno reuse)" `Quick test_era_scoping;
          tc "log-reduction fidelity" `Quick test_fidelity_oracle;
          tc "lock journals across a restart" `Quick test_lock_journals_across_restart;
        ] );
    ]
