(* Tests for the ordering substrate: vector clock laws, causal delivery
   (BSS), the (group, object) shard map, and the sequencer hold-back — per
   shard, with cross-shard barriers; one shard is the classic total order. *)

module V = Ordering.Vclock

(* --- vclock ------------------------------------------------------------- *)

let test_vclock_relations () =
  let a = V.tick (V.tick V.empty "x") "y" in
  let b = V.tick a "x" in
  Alcotest.(check bool) "a before b" true (V.compare_causal a b = V.Before);
  Alcotest.(check bool) "b after a" true (V.compare_causal b a = V.After);
  Alcotest.(check bool) "a equal a" true (V.compare_causal a a = V.Equal);
  let c = V.tick a "z" in
  Alcotest.(check bool) "b and c concurrent" true (V.compare_causal b c = V.Concurrent)

let gen_vclock =
  QCheck.Gen.(
    map
      (fun pairs -> V.of_list (List.map (fun (s, n) -> ("s" ^ string_of_int s, n + 1))
        pairs))
      (list_size (int_range 0 5) (pair (int_range 0 4) (int_range 0 5))))

let arb_vclock = QCheck.make gen_vclock

let prop_merge_upper_bound =
  QCheck.Test.make ~name:"merge is an upper bound" ~count:300
    (QCheck.pair arb_vclock arb_vclock)
    (fun (a, b) ->
      let m = V.merge a b in
      V.leq a m && V.leq b m)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutes" ~count:300 (QCheck.pair arb_vclock arb_vclock)
    (fun (a, b) -> V.to_list (V.merge a b) = V.to_list (V.merge b a))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:300 arb_vclock
    (fun a -> V.to_list (V.merge a a) = V.to_list a)

let prop_tick_strictly_after =
  QCheck.Test.make ~name:"tick is strictly after" ~count:300 arb_vclock
    (fun a -> V.compare_causal a (V.tick a "s0") = V.Before)

let prop_roundtrip_list =
  QCheck.Test.make ~name:"of_list . to_list = id" ~count:300 arb_vclock
    (fun a -> V.to_list (V.of_list (V.to_list a)) = V.to_list a)

(* --- causal delivery ----------------------------------------------------- *)

let test_causal_in_order () =
  let site_b = Ordering.Causal.create ~site:"b" in
  let a = Ordering.Causal.create ~site:"a" in
  let v1 = Ordering.Causal.stamp_send a in
  let v2 = Ordering.Causal.stamp_send a in
  Alcotest.(check (list string)) "first delivered" [ "m1" ]
    (Ordering.Causal.receive site_b ~from:"a" v1 "m1");
  Alcotest.(check (list string)) "second delivered" [ "m2" ]
    (Ordering.Causal.receive site_b ~from:"a" v2 "m2")

let test_causal_holds_back_out_of_order () =
  let site_b = Ordering.Causal.create ~site:"b" in
  let a = Ordering.Causal.create ~site:"a" in
  let v1 = Ordering.Causal.stamp_send a in
  let v2 = Ordering.Causal.stamp_send a in
  Alcotest.(check (list string)) "m2 held back" []
    (Ordering.Causal.receive site_b ~from:"a" v2 "m2");
  Alcotest.(check int) "one pending" 1 (Ordering.Causal.pending site_b);
  Alcotest.(check (list string)) "m1 releases both" [ "m1"; "m2" ]
    (Ordering.Causal.receive site_b ~from:"a" v1 "m1");
  Alcotest.(check int) "none pending" 0 (Ordering.Causal.pending site_b)

let test_causal_transitive_dependency () =
  (* a sends m1; b receives it and replies m2; c receives m2 before m1:
     m2 must wait for m1. *)
  let a = Ordering.Causal.create ~site:"a" in
  let b = Ordering.Causal.create ~site:"b" in
  let c = Ordering.Causal.create ~site:"c" in
  let v_m1 = Ordering.Causal.stamp_send a in
  ignore (Ordering.Causal.receive b ~from:"a" v_m1 "m1");
  let v_m2 = Ordering.Causal.stamp_send b in
  Alcotest.(check (list string)) "m2 waits for its cause" []
    (Ordering.Causal.receive c ~from:"b" v_m2 "m2");
  Alcotest.(check (list string)) "m1 releases m1;m2" [ "m1"; "m2" ]
    (Ordering.Causal.receive c ~from:"a" v_m1 "m1")

let test_causal_duplicate_ignored () =
  let b = Ordering.Causal.create ~site:"b" in
  let a = Ordering.Causal.create ~site:"a" in
  let v1 = Ordering.Causal.stamp_send a in
  ignore (Ordering.Causal.receive b ~from:"a" v1 "m1");
  Alcotest.(check (list string)) "duplicate dropped" []
    (Ordering.Causal.receive b ~from:"a" v1 "m1")

let prop_causal_delivery_order_per_sender =
  (* Whatever the arrival permutation, messages from one sender are
     delivered in send order. *)
  QCheck.Test.make ~name:"per-sender FIFO under any arrival order" ~count:200
    QCheck.(pair (int_range 1 8) (int_range 0 10_000))
    (fun (n, seed) ->
      let sender = Ordering.Causal.create ~site:"s" in
      let msgs = List.init n (fun i -> (i, Ordering.Causal.stamp_send sender)) in
      let arrival = Array.of_list msgs in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      Sim.Rng.shuffle rng arrival;
      let receiver = Ordering.Causal.create ~site:"r" in
      let delivered = ref [] in
      Array.iter
        (fun (i, v) ->
          List.iter (fun x -> delivered := x :: !delivered)
            (Ordering.Causal.receive receiver ~from:"s" v i))
        arrival;
      List.rev !delivered = List.init n Fun.id)

(* --- shard map ------------------------------------------------------------ *)

module SM = Ordering.Shard_map

let test_shard_map_pinned () =
  (* Replicas on different hosts must compute identical shard assignments,
     so the concrete FNV-1a values are pinned: any change to the hash (or an
     accidental reintroduction of the polymorphic [Hashtbl.hash]) re-routes
     live keyspaces and fails here. *)
  List.iter
    (fun (group, obj, shards, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "shard_of %s/%s %%%d" group obj shards)
        expect
        (SM.shard_of ~shards ~group ~obj))
    [
      ("g0", "o0", 4, 1);
      ("g0", "o1", 4, 2);
      ("g0", "o2", 4, 3);
      ("g0", "hot", 4, 1);
      ("g1", "o0", 8, 0);
      ("g1", "o1", 8, 3);
    ]

let test_shard_map_separator () =
  (* ("ab","c") and ("a","bc") concatenate identically: the embedded
     separator must keep them distinct as hash inputs *)
  Alcotest.(check bool) "component boundary hashed" true
    (SM.hash ~group:"ab" ~obj:"c" <> SM.hash ~group:"a" ~obj:"bc")

let test_shard_map_range_and_degenerate () =
  for i = 0 to 99 do
    let obj = Printf.sprintf "o%d" i in
    let s = SM.shard_of ~shards:8 ~group:"g" ~obj in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 8);
    Alcotest.(check int) "unsharded always 0" 0 (SM.shard_of ~shards:1 ~group:"g" ~obj)
  done;
  (* every shard of a small pool gets some traffic under a spread keyspace *)
  let hit = Array.make 4 false in
  for i = 0 to 199 do
    hit.(SM.shard_of ~shards:4 ~group:"g" ~obj:(Printf.sprintf "obj-%d" i)) <- true
  done;
  Alcotest.(check bool) "all shards reachable" true (Array.for_all Fun.id hit)

let test_shard_map_initial_owners () =
  Alcotest.(check (array string))
    "round-robin with wrap"
    [| "s0"; "s1"; "s2"; "s0"; "s1" |]
    (SM.initial_owners ~shards:5 [ "s0"; "s1"; "s2" ])

(* --- hold-back queues --------------------------------------------------- *)

module SH = Ordering.Shard_holdback

let deliveries actions =
  List.filter_map (function SH.Deliver (s, x) -> Some (s, x) | SH.Barrier _ -> None) actions

let barriers actions =
  List.filter_map (function SH.Barrier b -> Some b | SH.Deliver _ -> None) actions

(* --- holdback: one shard, the classic sequencer's single stream ---------- *)

let one_stream () = SH.create ~shards:1 ()

let offer1 hb ~seqno x = List.map snd (deliveries (SH.offer hb ~shard:0 ~seqno x))

let test_holdback_in_order () =
  let hb = one_stream () in
  Alcotest.(check (list string)) "0 released" [ "a" ] (offer1 hb ~seqno:0 "a");
  Alcotest.(check (list string)) "1 released" [ "b" ] (offer1 hb ~seqno:1 "b")

let test_holdback_gap_then_run () =
  let hb = one_stream () in
  Alcotest.(check (list string)) "2 held" [] (offer1 hb ~seqno:2 "c");
  Alcotest.(check (list string)) "1 held" [] (offer1 hb ~seqno:1 "b");
  Alcotest.(check (option (pair int int))) "gap reported" (Some (0, 0))
    (SH.gap hb ~shard:0);
  Alcotest.(check (list string)) "0 releases the run" [ "a"; "b"; "c" ]
    (offer1 hb ~seqno:0 "a");
  Alcotest.(check (option (pair int int))) "no gap" None (SH.gap hb ~shard:0)

let test_holdback_duplicates_and_stale () =
  let hb = one_stream () in
  ignore (offer1 hb ~seqno:0 "a");
  Alcotest.(check (list string)) "stale dropped" [] (offer1 hb ~seqno:0 "a'");
  ignore (offer1 hb ~seqno:2 "c");
  Alcotest.(check (list string)) "duplicate buffered dropped" []
    (offer1 hb ~seqno:2 "c'");
  Alcotest.(check (list string)) "run preserves first copy" [ "b"; "c" ]
    (offer1 hb ~seqno:1 "b")

let test_holdback_reset () =
  let hb = one_stream () in
  ignore (offer1 hb ~seqno:5 "x");
  SH.reset hb ~vector:[| 10 |];
  Alcotest.(check int) "pending cleared" 0 (SH.pending hb ~shard:0);
  Alcotest.(check (list string)) "resumes at new position" [ "y" ]
    (offer1 hb ~seqno:10 "y")

let test_holdback_gap_after_drain () =
  (* Exercises the lazily-tracked minimum: draining the old minimum leaves
     the cached bound stale, and the next [gap] probe must recompute it
     rather than report a gap that has already closed. *)
  let hb = one_stream () in
  ignore (offer1 hb ~seqno:5 "e");
  ignore (offer1 hb ~seqno:9 "i");
  Alcotest.(check (option (pair int int))) "initial gap" (Some (0, 4))
    (SH.gap hb ~shard:0);
  List.iter (fun s -> ignore (offer1 hb ~seqno:s (string_of_int s))) [ 0; 1; 2; 3 ];
  Alcotest.(check (list string)) "drain through the old minimum" [ "4"; "e" ]
    (offer1 hb ~seqno:4 "4");
  Alcotest.(check (option (pair int int))) "gap recomputed after drain"
    (Some (6, 8))
    (SH.gap hb ~shard:0);
  Alcotest.(check (list string)) "rest drains" [ "6"; "7"; "8"; "i" ]
    (List.concat_map (fun s -> offer1 hb ~seqno:s (string_of_int s)) [ 8; 7; 6 ]);
  Alcotest.(check (option (pair int int))) "empty buffer, no gap" None
    (SH.gap hb ~shard:0)

let test_holdback_gap_after_reset () =
  let hb = one_stream () in
  ignore (offer1 hb ~seqno:3 "x");
  SH.reset hb ~vector:[| 10 |];
  Alcotest.(check (option (pair int int))) "reset clears gap" None
    (SH.gap hb ~shard:0);
  ignore (offer1 hb ~seqno:12 "z");
  Alcotest.(check (option (pair int int)))
    "gap relative to the reset position" (Some (10, 11))
    (SH.gap hb ~shard:0)

let prop_holdback_releases_in_sequence =
  QCheck.Test.make ~name:"any permutation is released 0..n-1 in order" ~count:200
    QCheck.(pair (int_range 1 30) (int_range 0 10_000))
    (fun (n, seed) ->
      let arrival = Array.init n Fun.id in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      Sim.Rng.shuffle rng arrival;
      let hb = one_stream () in
      let out = ref [] in
      Array.iter
        (fun i -> List.iter (fun x -> out := x :: !out) (offer1 hb ~seqno:i i))
        arrival;
      List.rev !out = List.init n Fun.id && SH.pending hb ~shard:0 = 0)

(* --- shard holdback: N streams with cross-shard barriers ---------------- *)

let test_shard_streams_independent () =
  let hb = SH.create ~shards:2 () in
  Alcotest.(check (list (pair int string))) "shard 0 delivers" [ (0, "a") ]
    (deliveries (SH.offer hb ~shard:0 ~seqno:0 "a"));
  (* a gap on shard 0 must not hold shard 1 back *)
  Alcotest.(check (list (pair int string))) "shard 0 gapped" []
    (deliveries (SH.offer hb ~shard:0 ~seqno:2 "c"));
  Alcotest.(check (list (pair int string))) "shard 1 unaffected" [ (1, "x") ]
    (deliveries (SH.offer hb ~shard:1 ~seqno:0 "x"));
  Alcotest.(check (option (pair int int))) "shard 0 gap reported" (Some (1, 1))
    (SH.gap hb ~shard:0);
  Alcotest.(check (list (pair int string))) "filling the gap releases the run"
    [ (0, "b"); (0, "c") ]
    (deliveries (SH.offer hb ~shard:0 ~seqno:1 "b"))

let test_barrier_gates_all_streams () =
  let hb = SH.create ~shards:2 () in
  (* barrier at [1;1]: each stream owes one update before it may fire, and
     no stream may run past its slot while it is parked *)
  Alcotest.(check int) "barrier parked" 0
    (List.length (SH.offer_barrier hb ~bar:7 ~vector:[| 1; 1 |] "view"));
  (* post-barrier traffic on shard 0 is capped even though it is in order *)
  Alcotest.(check (list string)) "slot 1 capped" []
    (List.filter_map (fun _ -> None) (SH.offer hb ~shard:0 ~seqno:1 "post"));
  let acts = SH.offer hb ~shard:0 ~seqno:0 "a0" in
  Alcotest.(check (list (pair int string))) "shard 0 reaches its slot" [ (0, "a0") ]
    (deliveries acts);
  Alcotest.(check int) "still one short" 1 (SH.pending_barriers hb);
  Alcotest.(check (list (pair int int))) "stalled shard reported" [ (1, 0) ]
    (SH.stalled_shards hb);
  let acts = SH.offer hb ~shard:1 ~seqno:0 "b0" in
  Alcotest.(check (list string)) "barrier fires" [ "view" ] (barriers acts);
  (* the lifted cap releases the parked post-barrier update in the same batch *)
  Alcotest.(check (list (pair int string)))
    "delivery order: b0, then barrier-released post"
    [ (1, "b0"); (0, "post") ]
    (deliveries acts);
  Alcotest.(check int) "no barrier left" 0 (SH.pending_barriers hb)

let test_barrier_late_commit_fires_immediately () =
  let hb = SH.create ~shards:2 () in
  ignore (SH.offer hb ~shard:0 ~seqno:0 "a");
  ignore (SH.offer hb ~shard:1 ~seqno:0 "b");
  ignore (SH.offer hb ~shard:1 ~seqno:1 "c");
  (* the commit raced the post-barrier traffic: positions already satisfy it *)
  Alcotest.(check (list string)) "fires on arrival" [ "late" ]
    (barriers (SH.offer_barrier hb ~bar:3 ~vector:[| 1; 1 |] "late"))

let test_barrier_duplicates_filtered () =
  let hb = SH.create ~shards:1 () in
  ignore (SH.offer hb ~shard:0 ~seqno:0 "a");
  Alcotest.(check (list string)) "fires" [ "b" ]
    (barriers (SH.offer_barrier hb ~bar:1 ~vector:[| 1 |] "b"));
  Alcotest.(check (list string)) "re-fanned commit dropped" []
    (barriers (SH.offer_barrier hb ~bar:1 ~vector:[| 1 |] "b"));
  ignore (SH.offer_barrier hb ~bar:5 ~vector:[| 9 |] "parked");
  Alcotest.(check int) "parked once" 1 (SH.pending_barriers hb);
  ignore (SH.offer_barrier hb ~bar:5 ~vector:[| 9 |] "parked");
  Alcotest.(check int) "parked duplicate dropped" 1 (SH.pending_barriers hb)

let test_barriers_fire_in_bar_order () =
  let hb = SH.create ~shards:1 () in
  ignore (SH.offer_barrier hb ~bar:11 ~vector:[| 2 |] "second");
  ignore (SH.offer_barrier hb ~bar:10 ~vector:[| 1 |] "first");
  let acts =
    SH.offer hb ~shard:0 ~seqno:0 "u0" @ SH.offer hb ~shard:0 ~seqno:1 "u1"
  in
  Alcotest.(check (list string)) "bar order respected" [ "first"; "second" ]
    (barriers acts)

let test_reset_keeps_parked_barriers () =
  let hb = SH.create ~shards:2 () in
  ignore (SH.offer hb ~shard:0 ~seqno:3 "buffered");
  ignore (SH.offer_barrier hb ~bar:2 ~vector:[| 2; 2 |] "join");
  (* adopt transferred positions: buffers drop, the barrier survives *)
  SH.reset hb ~vector:[| 2; 2 |];
  Alcotest.(check int) "barrier survives reset" 1 (SH.pending_barriers hb);
  Alcotest.(check (list string)) "poll fires it at the adopted positions"
    [ "join" ]
    (barriers (SH.poll hb));
  Alcotest.(check (list (pair int string))) "dropped buffer stays dropped" []
    (deliveries (SH.poll hb));
  (* clear_barriers drops parked ones outright (post-heal re-prepare path) *)
  ignore (SH.offer_barrier hb ~bar:9 ~vector:[| 5; 5 |] "stale");
  SH.clear_barriers hb;
  Alcotest.(check int) "cleared" 0 (SH.pending_barriers hb)

let prop_sharded_permutation_delivers_all =
  QCheck.Test.make
    ~name:"any arrival permutation delivers every stream 0..n-1 in order"
    ~count:150
    QCheck.(tup3 (int_range 1 4) (int_range 1 12) (int_range 0 10_000))
    (fun (shards, n, seed) ->
      let items =
        List.concat_map
          (fun s -> List.init n (fun i -> (s, i)))
          (List.init shards Fun.id)
      in
      let arrival = Array.of_list items in
      let rng = Sim.Rng.create (Int64.of_int seed) in
      Sim.Rng.shuffle rng arrival;
      let hb = SH.create ~shards () in
      let out = Array.make shards [] in
      Array.iter
        (fun (s, i) ->
          List.iter
            (fun (s', x) -> out.(s') <- x :: out.(s'))
            (deliveries (SH.offer hb ~shard:s ~seqno:i i)))
        arrival;
      Array.for_all (fun l -> List.rev l = List.init n Fun.id) out
      && Array.for_all (fun s -> s = n) (SH.positions hb))

(* Updates of every stream arrive in a random interleaving, some twice, and
   barriers whose vectors lie inside the streams arrive among them (in bar
   order, some re-sent), as a coordinator's commits do over one connection.
   Vectors are componentwise non-decreasing in bar order, as the
   coordinator stamps them. Checked over the emitted actions, in order:
   every stream is released 0..n-1 in order; every barrier fires once, in
   bar order, with every stream at or past its slot; and while a barrier is
   parked no update at or past its slot is released. *)
type arrival = Update of int * int | Barrier_commit

let prop_holdback_barriers_gate_interleavings =
  QCheck.Test.make ~name:"barriers gate random interleavings with duplicates" ~count:300
    QCheck.(tup4 (int_range 1 4) (int_range 1 15) (int_range 0 4) (int_range 0 100_000))
    (fun (shards, n, nbars, seed) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let vectors =
        let raw = Array.init nbars (fun _ -> Array.init shards (fun _ -> Sim.Rng.int rng (n + 1))) in
        for s = 0 to shards - 1 do
          let col = Array.map (fun v -> v.(s)) raw in
          Array.sort Int.compare col;
          Array.iteri (fun b x -> raw.(b).(s) <- x) col
        done;
        raw
      in
      let updates =
        List.concat_map (fun s -> List.init n (fun i -> Update (s, i))) (List.init shards Fun.id)
      in
      let dup_updates = List.filter (fun _ -> Sim.Rng.int rng 4 = 0) updates in
      let commits =
        List.concat_map
          (fun b -> if Sim.Rng.int rng 3 = 0 then [ b; b ] else [ b ])
          (List.init nbars Fun.id)
      in
      let arrival =
        Array.of_list (updates @ dup_updates @ List.map (fun _ -> Barrier_commit) commits)
      in
      Sim.Rng.shuffle rng arrival;
      let hb = SH.create ~shards () in
      let released = Array.make shards [] and fired = ref [] in
      let offered = Array.make nbars false and parked = ref [] in
      let ok = ref true in
      let observe actions =
        List.iter
          (function
            | SH.Deliver (s, i) ->
                if List.exists (fun b -> i >= vectors.(b).(s)) !parked then ok := false;
                released.(s) <- i :: released.(s)
            | SH.Barrier b ->
                Array.iteri
                  (fun s slot -> if List.length released.(s) < slot then ok := false)
                  vectors.(b);
                parked := List.filter (fun b' -> b' <> b) !parked;
                fired := b :: !fired)
          actions
      in
      let commits = ref commits in
      Array.iter
        (function
          | Update (s, i) -> observe (SH.offer hb ~shard:s ~seqno:i i)
          | Barrier_commit -> (
              match !commits with
              | b :: rest ->
                  commits := rest;
                  if not offered.(b) then begin
                    offered.(b) <- true;
                    parked := b :: !parked
                  end;
                  observe (SH.offer_barrier hb ~bar:b ~vector:vectors.(b) b)
              | [] -> ok := false))
        arrival;
      !ok
      && Array.for_all (fun l -> List.rev l = List.init n Fun.id) released
      && List.rev !fired = List.init nbars Fun.id
      && SH.pending_barriers hb = 0)

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "ordering"
    [
      ( "vclock",
        [
          tc "causal relations" `Quick test_vclock_relations;
          q prop_merge_upper_bound;
          q prop_merge_commutative;
          q prop_merge_idempotent;
          q prop_tick_strictly_after;
          q prop_roundtrip_list;
        ] );
      ( "causal",
        [
          tc "in-order delivery" `Quick test_causal_in_order;
          tc "holds back out-of-order" `Quick test_causal_holds_back_out_of_order;
          tc "transitive dependency" `Quick test_causal_transitive_dependency;
          tc "duplicate ignored" `Quick test_causal_duplicate_ignored;
          q prop_causal_delivery_order_per_sender;
        ] );
      ( "holdback",
        [
          tc "in order" `Quick test_holdback_in_order;
          tc "gap then run" `Quick test_holdback_gap_then_run;
          tc "duplicates and stale" `Quick test_holdback_duplicates_and_stale;
          tc "reset" `Quick test_holdback_reset;
          tc "gap after drain" `Quick test_holdback_gap_after_drain;
          tc "gap after reset" `Quick test_holdback_gap_after_reset;
          q prop_holdback_releases_in_sequence;
        ] );
      ( "shard-map",
        [
          tc "pinned assignments (cross-host determinism)" `Quick test_shard_map_pinned;
          tc "component separator" `Quick test_shard_map_separator;
          tc "range and degenerate pool" `Quick test_shard_map_range_and_degenerate;
          tc "initial owner table" `Quick test_shard_map_initial_owners;
        ] );
      ( "shard-holdback",
        [
          tc "streams independent" `Quick test_shard_streams_independent;
          tc "barrier gates all streams" `Quick test_barrier_gates_all_streams;
          tc "late commit fires immediately" `Quick test_barrier_late_commit_fires_immediately;
          tc "duplicate barriers filtered" `Quick test_barrier_duplicates_filtered;
          tc "barriers fire in bar order" `Quick test_barriers_fire_in_bar_order;
          tc "reset keeps parked barriers" `Quick test_reset_keeps_parked_barriers;
          q prop_sharded_permutation_delivers_all;
          q prop_holdback_barriers_gate_interleavings;
        ] );
    ]
