(* Unit and property tests for the discrete-event engine, RNG and
   statistics. *)

let test_clock_starts_at_zero () =
  let e = Sim.Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Sim.Engine.now e)

let test_events_fire_in_time_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  ignore (Sim.Engine.schedule e ~delay:3.0 (record "c"));
  ignore (Sim.Engine.schedule e ~delay:1.0 (record "a"));
  ignore (Sim.Engine.schedule e ~delay:2.0 (record "b"));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Sim.Engine.now e)

let test_ties_fire_in_schedule_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> order := i :: !order))
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo ties" (List.init 10 Fun.id) (List.rev !order)

let test_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Alcotest.(check int) "nothing pending" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_cancel_twice_is_safe () =
  let e = Sim.Engine.create () in
  let a = Sim.Engine.schedule e ~delay:1.0 ignore in
  let b = Sim.Engine.schedule e ~delay:2.0 ignore in
  Sim.Engine.cancel e a;
  Sim.Engine.cancel e a;
  Alcotest.(check int) "one left" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e b;
  Alcotest.(check int) "none left" 0 (Sim.Engine.pending e)

let test_cancel_after_fire_keeps_pending_accurate () =
  (* Regression: cancelling an event that already ran (or cancelling twice)
     used to decrement [pending] again, driving the count negative and
     leaking the tombstone in the old side-table scheme. *)
  let e = Sim.Engine.create () in
  let a = Sim.Engine.schedule e ~delay:1.0 ignore in
  let b = Sim.Engine.schedule e ~delay:2.0 ignore in
  Alcotest.(check bool) "first event fired" true (Sim.Engine.step e);
  Alcotest.(check int) "one pending after step" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e a;
  Sim.Engine.cancel e a;
  Alcotest.(check int) "cancel-after-fire is a no-op" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e b;
  Sim.Engine.cancel e b;
  Alcotest.(check int) "double cancel decrements once" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let test_events_fired_counter () =
  let e = Sim.Engine.create () in
  Alcotest.(check int) "starts at zero" 0 (Sim.Engine.events_fired e);
  for _ = 1 to 3 do
    ignore (Sim.Engine.schedule e ~delay:1.0 ignore)
  done;
  let cancelled = Sim.Engine.schedule e ~delay:2.0 ignore in
  Sim.Engine.cancel e cancelled;
  Sim.Engine.run e;
  Alcotest.(check int) "counts executed events only" 3 (Sim.Engine.events_fired e)

let test_schedule_from_callback () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay:0.5 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested schedule" [ 1.0; 1.5 ] (List.rev !times)

let test_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> ignore (Sim.Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 0.0))) "only <= 2.5 fired" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock advanced to until" 2.5 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "rest fired later" 4 (List.length !fired)

let test_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let at = ref nan in
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () ->
      ignore (Sim.Engine.schedule e ~delay:(-3.0) (fun () -> at := Sim.Engine.now e))));
  Sim.Engine.run e;
  Alcotest.(check (float 0.0)) "clamped to now" 5.0 !at

let test_periodic_stops_when_false () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  Sim.Engine.periodic e ~every:1.0 (fun () ->
      incr n;
      !n < 5);
  Sim.Engine.run e;
  Alcotest.(check int) "ran 5 times" 5 !n;
  Alcotest.(check (float 0.0)) "stopped at 5s" 5.0 (Sim.Engine.now e)

let test_determinism () =
  let run_once () =
    let e = Sim.Engine.create ~seed:99L () in
    let rng = Sim.Engine.rng e in
    let acc = ref [] in
    for _ = 1 to 5 do
      let d = Sim.Rng.float rng 10.0 in
      ignore (Sim.Engine.schedule e ~delay:d (fun () -> acc := Sim.Engine.now e :: !acc))
    done;
    Sim.Engine.run e;
    !acc
  in
  Alcotest.(check (list (float 0.0))) "identical runs" (run_once ()) (run_once ())

let prop_events_fire_in_nondecreasing_time =
  QCheck.Test.make ~name:"random schedules fire in nondecreasing time order"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0.0 100.0))
    (fun delays ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          ignore
            (Sim.Engine.schedule e ~delay:d (fun () ->
                 fired := Sim.Engine.now e :: !fired)))
        delays;
      Sim.Engine.run e;
      let times = List.rev !fired in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      List.length times = List.length delays && sorted times)

(* Reference model: the pending events in a list kept sorted by
   (time, schedule order); a cancel takes the event out at once. Every
   engine operation is replayed against it and must agree in fire order,
   clock, pending count and fired count. *)
module Model = struct
  type st = Pending | Cancelled | Fired

  type ev = { at : float; seq : int; run : unit -> unit; mutable st : st }

  type t = { mutable clock : float; mutable next : int; mutable q : ev list; mutable fired : int }

  type id = ev

  let create () = { clock = 0.0; next = 0; q = []; fired = 0 }

  let now t = t.clock

  let schedule_at t at run =
    let at = if at < t.clock then t.clock else at in
    let e = { at; seq = t.next; run; st = Pending } in
    t.next <- t.next + 1;
    let rec insert = function
      | [] -> [ e ]
      | x :: rest as l ->
          if e.at < x.at || (e.at = x.at && e.seq < x.seq) then e :: l else x :: insert rest
    in
    t.q <- insert t.q;
    e

  let schedule t ~delay run =
    schedule_at t (t.clock +. if delay < 0.0 then 0.0 else delay) run

  let schedule_pooled t ~at f a = ignore (schedule_at t at (fun () -> f a))

  let cancel t e =
    if e.st = Pending then begin
      e.st <- Cancelled;
      t.q <- List.filter (fun x -> x != e) t.q
    end

  let step t =
    match t.q with
    | [] -> false
    | e :: rest ->
        t.q <- rest;
        e.st <- Fired;
        t.clock <- e.at;
        t.fired <- t.fired + 1;
        e.run ();
        true

  let run ?until t =
    match until with
    | None -> while step t do () done
    | Some limit ->
        let rec go () =
          match t.q with
          | e :: _ when e.at <= limit ->
              ignore (step t);
              go ()
          | _ -> if t.clock < limit then t.clock <- limit
        in
        go ()

  let pending t = List.length t.q

  let events_fired t = t.fired
end

module type ENGINE = sig
  type t

  type id

  val create : unit -> t

  val now : t -> float

  val schedule : t -> delay:float -> (unit -> unit) -> id

  val schedule_at : t -> float -> (unit -> unit) -> id

  val schedule_pooled : t -> at:float -> (int -> unit) -> int -> unit

  val cancel : t -> id -> unit

  val step : t -> bool

  val run : ?until:float -> t -> unit

  val pending : t -> int

  val events_fired : t -> int
end

(* What a fired event does besides logging itself. *)
type nested = Then_schedule of float | Then_pooled of float | Then_cancel of int

type op =
  | Schedule of float * nested option (* delay, may be negative *)
  | Schedule_at of float * nested option (* absolute, may be in the past *)
  | Pooled of float * nested option (* absolute, may be in the past *)
  | Cancel of int (* picks a handle made so far, fired or not *)
  | Step
  | Run_until of float

(* Replays [ops] and returns what an observer sees: each firing as
   (event number, clock), and after every op (clock, pending, fired). *)
module Replay (E : ENGINE) = struct
  let exec ops =
    let t = E.create () in
    let fires = ref [] and obs = ref [] in
    let handles = ref [||] and next_id = ref 0 in
    let nested_of = Hashtbl.create 16 in
    let cancel k =
      let n = Array.length !handles in
      if n > 0 then E.cancel t !handles.(k mod n)
    in
    let rec fire id =
      fires := (id, E.now t) :: !fires;
      match Hashtbl.find_opt nested_of id with
      | None -> ()
      | Some (Then_schedule d) -> classic (fun f -> E.schedule t ~delay:d f) None
      | Some (Then_pooled d) -> pooled (E.now t +. d) None
      | Some (Then_cancel k) -> cancel k
    and fresh nested =
      let id = !next_id in
      incr next_id;
      Option.iter (Hashtbl.replace nested_of id) nested;
      id
    and classic sched nested =
      let id = fresh nested in
      let h = sched (fun () -> fire id) in
      handles := Array.append !handles [| h |]
    and pooled at nested = E.schedule_pooled t ~at fire (fresh nested) in
    List.iter
      (fun op ->
        (match op with
        | Schedule (d, n) -> classic (fun f -> E.schedule t ~delay:d f) n
        | Schedule_at (at, n) -> classic (fun f -> E.schedule_at t at f) n
        | Pooled (at, n) -> pooled at n
        | Cancel k -> cancel k
        | Step -> ignore (E.step t)
        | Run_until u -> E.run ~until:u t);
        obs := (E.now t, E.pending t, E.events_fired t) :: !obs)
      ops;
    E.run t;
    obs := (E.now t, E.pending t, E.events_fired t) :: !obs;
    (List.rev !fires, List.rev !obs)
end

module Real_run = Replay (struct
  include Sim.Engine

  type id = event_id

  let create () = create ()
end)

module Model_run = Replay (Model)

(* Times on a coarse grid, so equal timestamps (the schedule-order
   tie-break) and past times (the clamp to [now]) come up constantly. *)
let gen_op =
  let open QCheck.Gen in
  let time = map (fun k -> float_of_int k /. 2.0) (int_range (-2) 8) in
  let nested =
    frequency
      [
        (3, return None);
        (1, map (fun d -> Some (Then_schedule d)) time);
        (1, map (fun d -> Some (Then_pooled d)) time);
        (1, map (fun k -> Some (Then_cancel k)) nat);
      ]
  in
  frequency
    [
      (3, map2 (fun d n -> Schedule (d, n)) time nested);
      (2, map2 (fun at n -> Schedule_at (at, n)) time nested);
      (3, map2 (fun at n -> Pooled (at, n)) time nested);
      (3, map (fun k -> Cancel k) nat);
      (2, return Step);
      (1, map (fun u -> Run_until u) time);
    ]

let show_op = function
  | Schedule (d, _) -> Printf.sprintf "schedule %g" d
  | Schedule_at (at, _) -> Printf.sprintf "schedule_at %g" at
  | Pooled (at, _) -> Printf.sprintf "pooled %g" at
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Step -> "step"
  | Run_until u -> Printf.sprintf "run ~until:%g" u

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine matches a sorted-list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun ops -> Real_run.exec ops = Model_run.exec ops)

(* The queue's sifts must not allocate: 100k pooled schedule+step pairs at
   2000 pending may allocate only the caller's boxed time and the boxed
   clock, 4 minor words per event. A sift written with closures that
   capture the key allocates several times that. *)
let test_pooled_step_allocation () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  let f i = hits := !hits + i in
  let delay i = float_of_int (i * 7919 mod 1000) in
  for i = 0 to 1999 do
    Sim.Engine.schedule_pooled e ~at:(delay i) f 1
  done;
  let pairs = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to pairs do
    Sim.Engine.schedule_pooled e ~at:(Sim.Engine.now e +. delay i) f 1;
    ignore (Sim.Engine.step e)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int pairs in
  Alcotest.(check int) "pending held" 2000 (Sim.Engine.pending e);
  Alcotest.(check int) "every pair fired one event" pairs !hits;
  if words > 4.0 then Alcotest.failf "%.2f minor words per event (at most 4)" words

(* --- rng --------------------------------------------------------------- *)

let test_rng_reproducible () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

(* The first draws of two seeds: every experiment's numbers depend on
   them, so the generator's representation may change but no output may. *)
let test_rng_pinned_outputs () =
  List.iter
    (fun (seed, a, b, f, j, i, split) ->
      let r = Sim.Rng.create seed in
      let name = Printf.sprintf "seed %Ld" seed in
      Alcotest.(check int64) (name ^ " int64 #1") a (Sim.Rng.int64 r);
      Alcotest.(check int64) (name ^ " int64 #2") b (Sim.Rng.int64 r);
      Alcotest.(check (float 0.0)) (name ^ " float 1.0") f (Sim.Rng.float r 1.0);
      Alcotest.(check (float 0.0)) (name ^ " float 0.8e-3") j (Sim.Rng.float r 0.8e-3);
      Alcotest.(check int) (name ^ " int 1000") i (Sim.Rng.int r 1000);
      Alcotest.(check int64) (name ^ " split") split (Sim.Rng.int64 (Sim.Rng.split r)))
    [
      ( 7L, 7191089600892374487L, 309689372594955804L, 0x1.cd30810175625p-1,
        0x1.e8ff53c4b361ap-12, 837, 7959962799974569576L );
      ( 501L, -817947824116201021L, -3736420790219037326L, 0x1.832dda902e227p-1,
        0x1.4371e34f79e62p-12, 443, -7953747835172401707L );
    ]

(* A draw allocates only its boxed float result. *)
let test_rng_float_allocation () =
  let r = Sim.Rng.create 5L in
  let acc = ref 0.0 in
  let draws = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    acc := !acc +. Sim.Rng.float r 1.0
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int draws in
  Alcotest.(check bool) "draws in [0, 1)" true (!acc >= 0.0 && !acc < float_of_int draws);
  if words > 2.0 then Alcotest.failf "%.2f minor words per draw (at most 2)" words

let test_rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let child = Sim.Rng.split a in
  (* The child stream differs from the parent's continuation. *)
  let c1 = Sim.Rng.int64 child and p1 = Sim.Rng.int64 a in
  Alcotest.(check bool) "streams differ" true (c1 <> p1)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_range =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let a = Array.of_list l in
      Sim.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_exponential_positive =
  QCheck.Test.make ~name:"Rng.exponential positive" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      Sim.Rng.exponential rng ~mean:2.0 > 0.0)

(* --- stats ------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Sim.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Sim.Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sim.Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Sim.Stats.max_value s);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 (Sim.Stats.stddev s)

let test_stats_percentiles () =
  let s = Sim.Stats.create () in
  for i = 1 to 100 do
    Sim.Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 50.0 (Sim.Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Sim.Stats.percentile s 95.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Sim.Stats.percentile s 100.0);
  Alcotest.(check (float 0.0)) "p0 -> min" 1.0 (Sim.Stats.percentile s 0.0)

let test_stats_empty () =
  let s = Sim.Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Sim.Stats.mean s));
  Alcotest.(check (float 0.0)) "stddev 0" 0.0 (Sim.Stats.stddev s)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"Stats.mean within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Sim.Stats.create () in
      List.iter (Sim.Stats.add s) l;
      let m = Sim.Stats.mean s in
      m >= Sim.Stats.min_value s -. 1e-9 && m <= Sim.Stats.max_value s +. 1e-9)

let prop_merge_counts =
  QCheck.Test.make ~name:"Stats.merge sums counts and totals" ~count:200
    QCheck.(pair (list (float_range 0. 100.)) (list (float_range 0. 100.)))
    (fun (la, lb) ->
      let a = Sim.Stats.create () and b = Sim.Stats.create () in
      List.iter (Sim.Stats.add a) la;
      List.iter (Sim.Stats.add b) lb;
      let m = Sim.Stats.merge a b in
      Sim.Stats.count m = List.length la + List.length lb
      && abs_float (Sim.Stats.total m -. (Sim.Stats.total a +. Sim.Stats.total b))
         < 1e-6)

let test_histogram () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Sim.Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -5.0; 50.0 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "bucket 0 (incl. underflow)" 2 counts.(0);
  Alcotest.(check int) "bucket 1" 2 counts.(1);
  Alcotest.(check int) "bucket 9 (incl. overflow)" 2 counts.(9);
  let lo, hi = Sim.Stats.Histogram.bucket_bounds h 3 in
  Alcotest.(check (float 1e-9)) "bound lo" 3.0 lo;
  Alcotest.(check (float 1e-9)) "bound hi" 4.0 hi

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "engine",
        [
          tc "clock starts at zero" `Quick test_clock_starts_at_zero;
          tc "events fire in time order" `Quick test_events_fire_in_time_order;
          tc "ties fire in schedule order" `Quick test_ties_fire_in_schedule_order;
          tc "cancel" `Quick test_cancel;
          tc "cancel twice is safe" `Quick test_cancel_twice_is_safe;
          tc "cancel after fire keeps pending accurate" `Quick
            test_cancel_after_fire_keeps_pending_accurate;
          tc "events_fired counter" `Quick test_events_fired_counter;
          tc "schedule from callback" `Quick test_schedule_from_callback;
          tc "run ~until" `Quick test_run_until;
          tc "negative delay clamped" `Quick test_negative_delay_clamped;
          tc "periodic stops when false" `Quick test_periodic_stops_when_false;
          tc "deterministic runs" `Quick test_determinism;
          q prop_events_fire_in_nondecreasing_time;
          q prop_engine_matches_model;
          tc "pooled step allocates at most 4 words" `Quick test_pooled_step_allocation;
        ] );
      ( "rng",
        [
          tc "reproducible" `Quick test_rng_reproducible;
          tc "split independence" `Quick test_rng_split_independent;
          tc "pinned outputs" `Quick test_rng_pinned_outputs;
          tc "float allocates only its result" `Quick test_rng_float_allocation;
          q prop_int_in_range;
          q prop_float_in_range;
          q prop_shuffle_is_permutation;
          q prop_exponential_positive;
        ] );
      ( "stats",
        [
          tc "basic moments" `Quick test_stats_basic;
          tc "percentiles" `Quick test_stats_percentiles;
          tc "empty collector" `Quick test_stats_empty;
          tc "histogram" `Quick test_histogram;
          q prop_mean_between_min_max;
          q prop_merge_counts;
        ] );
    ]
