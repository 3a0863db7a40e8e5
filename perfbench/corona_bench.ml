(* End-to-end benchmark of the Corona service: three open-loop workloads
   (fanout, join_churn, replicated_failover) driven through the libraries'
   public interfaces from one single-threaded process.

   Two clocks, never mixed in one name:
   - [virt_*] metrics are virtual time of the modeled deployment. They are
     a pure function of the seed: every run at one seed prints the same
     bits.
   - [host_*] and [setup_s] are calibrated process CPU time of the
     simulator itself (see [calibration_task]).

   A run is a sequence of episodes. Each episode builds a fresh world
   (set-up, timed on its own), then runs one measured window: Poisson
   writers and visitors scheduled in virtual time, a fault phase after
   the latency window, and a drain to quiescence. The first
   [virt_episodes] episodes (seeds derived from [--seed]) give the virtual
   metrics; every episode in the [--seconds] budget gives one host-time
   sample, and the medians are reported. Correctness checks run after
   every episode; any failure makes the exit code non-zero.

   With [--trace 1], episodes alternate untraced and traced; the traced
   ones time the benchmark's own calls into each layer and read the
   layers' public counters around the window, and only per-layer metrics
   are printed.

   Usage: corona_bench.exe --workload NAME --seed N --seconds S --trace 0|1 *)

module T = Proto.Types
module C = Corona.Client
module E = Sim.Engine
module TB = Workload.Testbed
module Node = Replication.Node
module Cluster = Replication.Cluster

let clock = Unix.gettimeofday

(* --- workloads --------------------------------------------------------- *)

type fault =
  | Blip of float
      (** partition the server from the resident members' machines for this
          many virtual seconds; TCP stalls and retransmits across it *)
  | Crash_coordinator  (** fail-stop [srv-0], the replicated sequencer *)

type spec = {
  name : string;
  replicated : bool;
  groups : int;
  members : int;  (** resident members per group; the last one writes *)
  write_rate : float;  (** Poisson writes per second per writer *)
  write_size : int;
  initial : (T.object_id * string) list;  (** each group's initial state *)
  notify : bool;  (** members subscribe to membership changes *)
  visitor_rate : float;  (** Poisson visitor arrivals per second *)
  dwell : float;  (** mean visitor stay, seconds *)
  visitor_transfer : T.transfer_spec;
  window : float;  (** virtual seconds of arrivals per episode *)
  fault : fault;
  virt_episodes : int;  (** episodes pooled into the virtual metrics *)
}

let specs =
  [
    (* 4 x 250 members on one UltraSparc; 0.83 writes/s per group puts the
       server NIC at ~70% (250 x ~1.05 kB per broadcast on 1.25 MB/s).
       Visitors join without state, so [Transfer] stays idle. *)
    {
      name = "fanout";
      replicated = false;
      groups = 4;
      members = 250;
      write_rate = 0.75;
      write_size = 1000;
      initial = [];
      notify = false;
      visitor_rate = 2.0;
      dwell = 15.0;
      visitor_transfer = T.No_state;
      window = 300.0;
      fault = Blip 2.0;
      virt_episodes = 56;
    };
    (* One persistent-sized group: 100 kB of state (20 x 5 kB) and 40
       resident members who subscribe to membership changes. The chatter
       overrides its own small objects, so the state stays bounded while
       every write invalidates the join-state cache. *)
    {
      name = "join_churn";
      replicated = false;
      groups = 1;
      members = 40;
      write_rate = 10.0;
      write_size = 500;
      initial = List.init 20 (fun i -> (Printf.sprintf "doc-%02d" i, String.make 5000 'd'));
      notify = true;
      visitor_rate = 2.0;
      dwell = 10.0;
      visitor_transfer = T.Full_state;
      window = 400.0;
      fault = Blip 2.0;
      virt_episodes = 32;
    };
    (* Table 2 deployment: coordinator + 6 replicas, 12 client machines,
       default node config; 20 groups x 50 members, one writer per group. *)
    {
      name = "replicated_failover";
      replicated = true;
      groups = 20;
      members = 50;
      write_rate = 2.0;
      write_size = 1000;
      initial = [];
      notify = false;
      visitor_rate = 1.0;
      dwell = 20.0;
      visitor_transfer = T.Full_state;
      window = 120.0;
      fault = Crash_coordinator;
      virt_episodes = 16;
    };
  ]

let visitor_machines = 2

(* A latency taken from a growing queue is not a latency: once the last
   write falls due, every broadcast must reach every member within this
   much virtual time or the run fails. *)
let drain_bound = 8.0

(* Virtual time allowed for the drain before the checks run. *)
let drain_cap = 20.0

(* The fault comes after the latency window, so the latency percentiles
   describe fault-free service and [virt_outage_ms] the fault. Arrivals go
   on through the fault phase: ops due during the outage are still sent,
   checked and counted. *)
let fault_phase = 12.0

let fault_lead = 1.0

let gname g = Printf.sprintf "g%d" g

let objs = Array.init 10 (Printf.sprintf "w%d")

(* --- the world under test -------------------------------------------- *)

type deployment = Single of TB.single | Replicated of Cluster.t

type world = {
  engine : E.t;
  fabric : Net.Fabric.t;
  resident_hosts : Net.Host.t array;
  visitor_hosts : Net.Host.t array;
  entry : int -> Net.Host.t;  (** the server client [i] connects to *)
  servers : Net.Host.t list;
  deployment : deployment;
}

let build spec ~seed : world =
  let residents = if spec.replicated then 12 else 6 in
  let split hosts = (Array.sub hosts 0 residents, Array.sub hosts residents visitor_machines) in
  if spec.replicated then begin
    let tb = TB.replicated ~seed ~client_machines:(residents + visitor_machines) () in
    let c = tb.TB.r_cluster in
    let resident_hosts, visitor_hosts = split tb.TB.r_client_hosts in
    {
      engine = tb.TB.r_engine;
      fabric = tb.TB.r_fabric;
      resident_hosts;
      visitor_hosts;
      entry = (fun i -> Node.host (Cluster.replica_for c i));
      servers = List.map Node.host (Cluster.nodes c);
      deployment = Replicated c;
    }
  end
  else begin
    let tb = TB.single_server ~seed ~client_machines:(residents + visitor_machines) () in
    let resident_hosts, visitor_hosts = split tb.TB.s_client_hosts in
    {
      engine = tb.TB.s_engine;
      fabric = tb.TB.s_fabric;
      resident_hosts;
      visitor_hosts;
      entry = (fun _ -> tb.TB.s_server_host);
      servers = [ tb.TB.s_server_host ];
      deployment = Single tb;
    }
  end

(* --- one episode's bookkeeping --------------------------------------- *)

type member = {
  cl : C.t;
  gi : int;
  group : T.group_id;
  entry : Net.Host.t;
  mutable next : int;  (** next seqno this member must see; -1 before joining *)
  full : bool;  (** joined with the whole state, so its replica is comparable *)
  mutable gap : bool;
  mutable present : bool;
}

type ep = {
  engine : E.t;
  traced : bool;
  mutable step_s : float;  (** host seconds inside [Engine.step] *)
  mutable call_s : float;  (** host seconds inside benchmark calls into [Client] *)
  mutable calls : int;
  mutable dues : float array;  (** due time of each write, by write id *)
  mutable writes : int;
  mutable echoed : int;
  outstanding : int array;  (** per group: writes not yet delivered back to their writer *)
  rtt : Sim.Stats.t;
  join : Sim.Stats.t;
  cpu_wait : Sim.Stats.t;
  mutable pending_max : int;
  mutable late_max : float;
  mutable fault_at : float;
  mutable window_end : float;  (** ops due before this give the latency samples *)
  mutable arrivals_end : float;
  mutable outage : float;
  mutable last_delivery : float;
  mutable deliveries : int;
  mutable visitors : int;
  mutable joins_ok : int;
  mutable joins_failed : int;
  mutable leaves_failed : int;
  mutable members : member list;
}

let new_ep engine ~traced ~groups =
  {
    engine;
    traced;
    step_s = 0.0;
    call_s = 0.0;
    calls = 0;
    dues = Array.make 1024 0.0;
    writes = 0;
    echoed = 0;
    outstanding = Array.make groups 0;
    rtt = Sim.Stats.create ();
    join = Sim.Stats.create ();
    cpu_wait = Sim.Stats.create ();
    pending_max = 0;
    late_max = 0.0;
    fault_at = infinity;
    window_end = infinity;
    arrivals_end = infinity;
    outage = nan;
    last_delivery = 0.0;
    deliveries = 0;
    visitors = 0;
    joins_ok = 0;
    joins_failed = 0;
    leaves_failed = 0;
    members = [];
  }

(* A host-time span around one call into the [Client] layer. *)
let call ep f =
  if ep.traced then begin
    let t0 = clock () in
    f ();
    ep.call_s <- ep.call_s +. (clock () -. t0);
    ep.calls <- ep.calls + 1
  end
  else f ()

(* Step the engine until virtual time [until] (or quiescence). Traced, the
   steps are timed in batches: the span clock has microsecond grain. *)
let drive ep ~until =
  let stop = ref false in
  ignore (E.schedule_at ep.engine until (fun () -> stop := true));
  if ep.traced then begin
    let live = ref true in
    while !live && not !stop do
      let t0 = clock () in
      let k = ref 0 in
      while !k < 64 && !live && not !stop do
        live := E.step ep.engine;
        incr k
      done;
      ep.step_s <- ep.step_s +. (clock () -. t0)
    done
  end
  else
    while (not !stop) && E.step ep.engine do
      ()
    done

(* Writes carry their id as a decimal prefix, so any member can recover the
   due time of what it was delivered. *)
let payload size id =
  let b = Bytes.make size '.' in
  let s = string_of_int id in
  Bytes.blit_string s 0 b 0 (String.length s);
  Bytes.unsafe_to_string b

let write_id data =
  let rec go i acc =
    if i < String.length data then
      match data.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> acc
    else acc
  in
  go 0 0

let push_due ep t =
  if ep.writes = Array.length ep.dues then begin
    let a = Array.make (2 * ep.writes) 0.0 in
    Array.blit ep.dues 0 a 0 ep.writes;
    ep.dues <- a
  end;
  ep.dues.(ep.writes) <- t;
  ep.writes <- ep.writes + 1;
  ep.writes - 1

(* Sampled at every op's due time: how long new work would wait for the
   CPU of the server it enters, and the engine's queue depth. *)
let sample ep host due =
  let now = E.now ep.engine in
  ep.late_max <- Float.max ep.late_max (now -. due);
  Sim.Stats.add ep.cpu_wait (Float.max 0.0 (Net.Host.cpu_busy_until host -. now));
  ep.pending_max <- max ep.pending_max (E.pending ep.engine)

let watch ep m =
  let me = C.member m.cl in
  C.set_on_event m.cl (fun _ ev ->
      match ev with
      | C.Delivered u ->
          let now = E.now ep.engine in
          ep.deliveries <- ep.deliveries + 1;
          ep.last_delivery <- now;
          if m.next >= 0 && u.T.seqno <> m.next then m.gap <- true;
          m.next <- u.T.seqno + 1;
          if Float.is_nan ep.outage && now >= ep.fault_at
             && ep.dues.(write_id u.T.data) >= ep.fault_at
          then ep.outage <- now -. ep.fault_at;
          if String.equal u.T.sender me then begin
            ep.echoed <- ep.echoed + 1;
            ep.outstanding.(m.gi) <- ep.outstanding.(m.gi) - 1;
            let due = ep.dues.(write_id u.T.data) in
            if due < ep.window_end then Sim.Stats.add ep.rtt (now -. due)
          end
      | _ -> ())

(* Open-loop arrivals: a Poisson process conditioned on its count. Exactly
   [rate * (until - from)] arrivals fall at uniform random times, so every
   episode offers the same load while arrivals still bunch as Poisson ones
   do. Each fires at its exact virtual time: the generator is never late. *)
let arrivals engine rng ~rate ~from ~until fire =
  let n = Float.to_int (Float.round (rate *. (until -. from))) in
  let times = Array.init n (fun _ -> from +. Sim.Rng.float rng (until -. from)) in
  Array.sort Float.compare times;
  let rec arm i =
    if i < n then
      ignore
        (E.schedule_at engine times.(i) (fun () ->
             fire times.(i);
             arm (i + 1)))
  in
  arm 0

let write ep spec m due =
  let id = push_due ep due in
  ep.outstanding.(m.gi) <- ep.outstanding.(m.gi) + 1;
  sample ep m.entry due;
  let data = payload spec.write_size id in
  let obj = objs.(id mod Array.length objs) in
  call ep (fun () ->
      C.bcast_state m.cl ~group:m.group ~obj ~data ~mode:T.Sender_inclusive ())

let leave ep m =
  call ep (fun () ->
      C.leave m.cl ~group:m.group ~k:(function
        | C.R_ok ->
            m.present <- false;
            C.disconnect m.cl
        | _ -> ep.leaves_failed <- ep.leaves_failed + 1))

let visit ep spec (w : world) rng due =
  let v = ep.visitors in
  ep.visitors <- v + 1;
  let host = w.visitor_hosts.(v mod Array.length w.visitor_hosts) in
  let server = w.entry ((spec.groups * spec.members) + v) in
  let gi = Sim.Rng.int rng spec.groups in
  let group = gname gi in
  let dwell = Sim.Rng.exponential rng ~mean:spec.dwell in
  sample ep server due;
  let failed () = ep.joins_failed <- ep.joins_failed + 1 in
  call ep (fun () ->
      C.connect w.fabric ~host ~server ~member:(Printf.sprintf "v%d" v)
        ~on_connected:(fun cl ->
          let full = spec.visitor_transfer = T.Full_state in
          let m = { cl; gi; group; entry = server; full; next = -1; gap = false; present = false } in
          watch ep m;
          call ep (fun () ->
              C.join cl ~group ~transfer:spec.visitor_transfer ~notify:spec.notify
                ~k:(function
                  | C.R_join { at_seqno; _ } ->
                      m.next <- at_seqno;
                      m.present <- true;
                      ep.members <- m :: ep.members;
                      ep.joins_ok <- ep.joins_ok + 1;
                      if due < ep.window_end then Sim.Stats.add ep.join (E.now ep.engine -. due);
                      if due +. dwell < ep.arrivals_end then
                        ignore (E.schedule_at ep.engine (due +. dwell) (fun () -> leave ep m))
                  | _ ->
                      failed ();
                      C.disconnect cl)
                ()))
        ~on_failed:failed ())

(* --- set-up: connect and join the resident members -------------------- *)

let setup spec (w : world) ep =
  let n = spec.groups * spec.members in
  let ready = ref 0 in
  let all = ref [||] in
  TB.spawn_clients w.fabric ~hosts:w.resident_hosts ~server_for:w.entry ~n ~prefix:"m"
    (fun clients ->
      all := clients;
      for g = 0 to spec.groups - 1 do
        let slice = Array.sub clients (g * spec.members) spec.members in
        C.create_group slice.(0) ~group:(gname g) ~initial:spec.initial
          ~k:(fun _ ->
            TB.join_all slice ~group:(gname g) ~notify:spec.notify (fun () ->
                incr ready))
          ()
      done);
  TB.run_until w.engine (fun () -> !ready = spec.groups);
  if !ready <> spec.groups then failwith "set-up did not complete";
  Array.mapi
    (fun i cl ->
      let gi = i / spec.members in
      let group = gname gi in
      let next = match C.last_seqno cl group with Some s -> s + 1 | None -> -1 in
      let m = { cl; gi; group; entry = w.entry i; full = true; next; gap = false; present = true } in
      watch ep m;
      ep.members <- m :: ep.members;
      m)
    !all

(* --- per-layer counters, read around the measured window -------------- *)

let counters (w : world) =
  let f = float_of_int in
  let gc = Gc.quick_stat () in
  let common =
    [
      ("events", f (E.events_fired w.engine));
      ("packets", f (Net.Fabric.packets_sent w.fabric));
      ("bytes", f (Net.Fabric.bytes_sent w.fabric));
      ("batches", f (Net.Fabric.batches_sent w.fabric));
      ("encodes", f (Proto.Message.encode_count ()));
      ("minor", gc.Gc.minor_words);
      ("promoted", gc.Gc.promoted_words);
      ("major", f gc.Gc.major_collections);
    ]
  in
  let cpus = List.map (fun h -> ("cpu:" ^ Net.Host.name h, Net.Host.cpu_seconds_used h)) w.servers in
  let layer =
    match w.deployment with
    | Single tb ->
        let s = tb.TB.s_server in
        let st = Corona.Server.stats s in
        let ps = Corona.Server.pool_stats s in
        let hits, misses = Corona.Server.transfer_cache_stats s in
        let recs, writes =
          List.fold_left
            (fun (r, n) g ->
              let cs = Storage.Wal.commit_stats (Corona.Server_storage.wal_for tb.TB.s_storage g) in
              (r + cs.Storage.Wal.records_committed, n + cs.Storage.Wal.physical_writes))
            (0, 0) (Corona.Server.group_ids s)
        in
        [
          ("server_deliveries", f st.Corona.Server.deliveries_sent);
          ("responses", f st.Corona.Server.responses_sent);
          ("transfer_bytes", f st.Corona.Server.state_transfer_bytes);
          ("cache_hits", f hits);
          ("cache_misses", f misses);
          ("leases", f ps.Proto.Pool.leases);
          ("pool_hits", f ps.Proto.Pool.hits);
          ("high_water", f ps.Proto.Pool.high_water);
          ("wal_records", f recs);
          ("wal_writes", f writes);
          ("disk_bytes", f (Storage.Disk.bytes_written (Corona.Server_storage.disk tb.TB.s_storage)));
        ]
    | Replicated c ->
        let nodes = Cluster.nodes c in
        let sum g = f (List.fold_left (fun a n -> a + g (Node.stats n)) 0 nodes) in
        let hits, misses =
          List.fold_left
            (fun (h, m) n ->
              let h', m' = Node.transfer_cache_stats n in
              (h + h', m + m'))
            (0, 0) nodes
        in
        [
          ("fwd", sum (fun s -> s.Node.fwd_bcasts));
          ("sequenced", sum (fun s -> s.Node.sequenced));
          ("applied", sum (fun s -> s.Node.applied));
          ("node_deliveries", sum (fun s -> s.Node.deliveries_sent));
          ("elections", sum (fun s -> s.Node.elections_started));
          ("cache_hits", f hits);
          ("cache_misses", f misses);
        ]
  in
  common @ cpus @ layer

let get cs k = match List.assoc_opt k cs with Some v -> v | None -> 0.0

(* --- checks at quiescence --------------------------------------------- *)

(* The authoritative copy a member's replica must match: the single server,
   or the replicated node the member is connected to. *)
let authority (w : world) m =
  match w.deployment with
  | Single tb ->
      let s = tb.TB.s_server in
      (Corona.Server.group_state s m.group, Corona.Server.group_next_seqno s m.group)
  | Replicated c ->
      let n = Cluster.node c (Net.Host.name m.entry) in
      (Node.group_state n m.group, Node.group_next_seqno n m.group)

let check spec (w : world) ep ~c0 ~c1 =
  let problems = ref [] in
  let bad = ref 0 in
  let note s = if List.length !problems < 5 then problems := s :: !problems in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        incr bad;
        note s)
      fmt
  in
  List.iter
    (fun m ->
      if m.present then begin
        let state, next = authority w m in
        let mine = C.last_seqno m.cl m.group in
        let who = C.member m.cl in
        if m.gap then problem "%s: gap or duplicate in its delivered seqnos" who
        else if (match (mine, next) with Some a, Some b -> a <> b - 1 | _ -> true) then
          problem "%s: last seqno %s, group sequenced %s" who
            (match mine with Some a -> string_of_int a | None -> "-")
            (match next with Some b -> string_of_int (b - 1) | None -> "-")
        else if m.full then
          match (C.replica m.cl m.group, state) with
          | Some r, Some s when Corona.Shared_state.equal r s -> ()
          | _ ->
              problem "%s: replica differs from its server's copy (digest %s)" who
                (match state with Some s -> Corona.Shared_state.digest s | None -> "-")
      end)
    ep.members;
  (* Every live server holding a group agrees on it. *)
  (match w.deployment with
  | Replicated c ->
      for g = 0 to spec.groups - 1 do
        let group = gname g in
        let copies =
          List.filter_map
            (fun n ->
              match (Node.group_state n group, Node.group_next_seqno n group) with
              | Some s, Some q -> Some (Node.id n, Corona.Shared_state.digest s, q)
              | _ -> None)
            (Cluster.live_nodes c)
        in
        match copies with
        | (_, d0, q0) :: rest ->
            List.iter
              (fun (id, d, q) ->
                if d <> d0 || q <> q0 then problem "%s: copy of %s disagrees" id group)
              rest
        | [] -> problem "%s: no live copy" group
      done
  | Single _ ->
      let sent = int_of_float (get c1 "server_deliveries" -. get c0 "server_deliveries") in
      if sent <> ep.deliveries then
        problem "server counted %d deliveries, members received %d" sent ep.deliveries);
  let lost = ep.writes - ep.echoed in
  if lost > 0 then note (Printf.sprintf "%d writes never delivered back to their writer" lost);
  if ep.joins_failed + ep.leaves_failed > 0 then
    note (Printf.sprintf "%d joins and %d leaves failed" ep.joins_failed ep.leaves_failed);
  if Float.is_nan ep.outage then problem "no write due after the fault was delivered";
  let drain = Float.max 0.0 (ep.last_delivery -. ep.arrivals_end) in
  if drain > drain_bound then
    problem "backlog took %.3f virtual s to drain (bound %.1f s): offered load too high" drain
      drain_bound;
  (!bad + lost + ep.joins_failed + ep.leaves_failed, drain, List.rev !problems)

(* --- one episode ------------------------------------------------------ *)

type result = {
  traced : bool;
  setup_s : float;  (** calibrated host seconds *)
  window_cpu_s : float;  (** calibrated host seconds *)
  speed : float;  (** calibration nominal / measured: >1 on a fast machine *)
  ops : int;
  attempted : int;
  failed : int;
  problems : string list;
  rtt : float array;
  joins : float array;
  outage : float;
  drain : float;
  late_max : float;
  layers : (string * float * string) list;
}

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Host CPU time on a shared machine drifts by up to 2x over tens of
   seconds as neighbours come and go, far more than any change under test.
   Every host time is therefore reported in calibrated seconds: scaled by
   [calibration_nominal] over the measured time of a fixed task that mixes
   the simulator's own operations (small allocations, hash-table churn, a
   sort), run right before and right after the episode. A change to the
   libraries cannot move the calibration task, so it shows in full. *)
let calibration_task () =
  let t0 = Sys.time () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 8191) (Some i);
    match Hashtbl.find_opt h ((i * 7) land 8191) with Some (Some v) -> acc := !acc + v | _ -> ()
  done;
  let l = List.init 30_000 (fun i -> (i * 7919) land 65535) in
  let a = Array.of_list (List.sort Int.compare l) in
  ignore (Sys.opaque_identity (!acc + a.(0)));
  Sys.time () -. t0

(* The calibration task's CPU time on an idle 2.1 GHz Xeon (2 vCPU). *)
let calibration_nominal = 0.0135

let run_episode spec ~seed ~traced =
  Gc.full_major ();
  let cal_before = calibration_task () in
  let cpu0 = Sys.time () in
  let w = build spec ~seed:(Int64.of_int seed) in
  let ep = new_ep w.engine ~traced ~groups:spec.groups in
  let residents = setup spec w ep in
  let setup_s = Sys.time () -. cpu0 in
  let rng = Sim.Rng.create (Int64.of_int (seed lxor 0x5bd1e995)) in
  let write_rng = Sim.Rng.split rng in
  let visit_rng = Sim.Rng.split rng in
  (* Timeline: the latency window [t0, t_end), then the fault phase, in
     which arrivals go on and the fault strikes [fault_lead] in. *)
  let t0 = E.now w.engine +. 0.5 in
  let t_end = t0 +. spec.window in
  let until = t_end +. fault_phase in
  ep.window_end <- t_end;
  ep.arrivals_end <- until;
  ep.fault_at <- t_end +. fault_lead;
  for g = 0 to spec.groups - 1 do
    let writer = residents.((g * spec.members) + spec.members - 1) in
    arrivals w.engine (Sim.Rng.split write_rng) ~rate:spec.write_rate ~from:t0 ~until
      (write ep spec writer)
  done;
  arrivals w.engine visit_rng ~rate:spec.visitor_rate ~from:t0 ~until (visit ep spec w visit_rng);
  let coord_util = ref 0.0 in
  (match (spec.fault, w.deployment) with
  | Blip duration, _ ->
      let names hs = Array.to_list (Array.map Net.Host.name hs) in
      Net.Fault.partition_during w.fabric
        [ List.map Net.Host.name w.servers @ names w.visitor_hosts; names w.resident_hosts ]
        ~at:ep.fault_at ~duration
  | Crash_coordinator, Replicated c ->
      (* The crash lands at the first millisecond from [planned] on at which
         no write is in flight: every writer has its own writes back and
         every live copy of each group has applied the same prefix. A crash
         in the middle of a sequenced fan-out leaves a seqno hole at the
         replicas it had not reached yet, which the gap check reports; that
         case is excluded, not hidden: the gap check stays on. *)
      let planned = ep.fault_at in
      ep.fault_at <- infinity;
      let h = Node.host (Cluster.node c "srv-0") in
      let at_start = ref 0.0 in
      ignore (E.schedule_at w.engine t0 (fun () -> at_start := Net.Host.cpu_seconds_used h));
      let settled () =
        List.for_all
          (fun g ->
            ep.outstanding.(g) = 0
            &&
            match List.filter_map (fun n -> Node.group_next_seqno n (gname g)) (Cluster.live_nodes c) with
            | q :: rest -> List.for_all (Int.equal q) rest
            | [] -> true)
          (List.init spec.groups Fun.id)
      in
      let rec crash_when_settled () =
        if settled () then begin
          let now = E.now w.engine in
          coord_util := ratio (Net.Host.cpu_seconds_used h -. !at_start) (now -. t0);
          ep.fault_at <- now;
          Net.Fault.crash_at w.fabric h ~at:now
        end
        else ignore (E.schedule w.engine ~delay:1e-3 crash_when_settled)
      in
      ignore (E.schedule_at w.engine planned crash_when_settled)
  | Crash_coordinator, Single _ -> invalid_arg "crash needs a replicated deployment");
  let c0 = counters w in
  let v0 = E.now w.engine in
  let cpu_w0 = Sys.time () in
  drive ep ~until:(until +. drain_cap);
  let window_cpu_s = Sys.time () -. cpu_w0 in
  let speed = calibration_nominal /. ((cal_before +. calibration_task ()) /. 2.0) in
  let c1 = counters w in
  let span = E.now w.engine -. v0 in
  let failed, drain, problems = check spec w ep ~c0 ~c1 in
  let ops = ep.echoed + ep.joins_ok in
  let attempted = ep.writes + ep.visitors in
  let d k = get c1 k -. get c0 k in
  let fops = float_of_int ops in
  let per_op k = ratio (d k) fops in
  let util =
    List.fold_left
      (fun a h -> Float.max a (ratio (d ("cpu:" ^ Net.Host.name h)) span))
      0.0 w.servers
  in
  let takeover =
    match w.deployment with
    | Replicated c ->
        List.fold_left
          (fun a n ->
            match (Node.stats n).Node.took_over_at with
            | Some t when t >= ep.fault_at -> Float.max a ((t -. ep.fault_at) *. 1e3)
            | _ -> a)
          0.0 (Cluster.nodes c)
    | Single _ -> 0.0
  in
  let layers =
    [
      ("sim.events_per_op", per_op "events", "count/op");
      ("sim.step_host_us_per_op", ratio (1e6 *. speed *. (ep.step_s -. ep.call_s)) fops, "us/op");
      ("sim.pending_max", float_of_int ep.pending_max, "count");
      ("net.packets_per_op", per_op "packets", "count/op");
      ("net.bytes_per_op", per_op "bytes", "B/op");
      ("net.batches_per_op", per_op "batches", "count/op");
      ("net.server_cpu_util", util, "ratio");
      ("net.server_cpu_wait_p99_ms", 1e3 *. Sim.Stats.percentile ep.cpu_wait 99.0, "ms");
      ("proto.encodes_per_op", per_op "encodes", "count/op");
      ("proto.pool_leases_per_op", per_op "leases", "count/op");
      ("proto.pool_hit_ratio", ratio (d "pool_hits") (d "leases"), "ratio");
      ("proto.pool_high_water", get c1 "high_water", "count");
      ("core.deliveries_per_op", ratio (float_of_int ep.deliveries) fops, "count/op");
      ("core.responses_per_op", per_op "responses", "count/op");
      ("core.client_call_host_us", ratio (1e6 *. speed *. ep.call_s) (float_of_int ep.calls), "us");
      ("core.transfer_bytes_per_join", ratio (d "transfer_bytes") (float_of_int ep.joins_ok), "B/join");
      ("core.transfer_cache_hit_ratio", ratio (d "cache_hits") (d "cache_hits" +. d "cache_misses"), "ratio");
      ("storage.wal_records_per_write", ratio (d "wal_records") (d "wal_writes"), "count/write");
      ("storage.disk_bytes_per_op", per_op "disk_bytes", "B/op");
      ("replication.fwd_per_op", per_op "fwd", "count/op");
      ("replication.sequenced_per_op", per_op "sequenced", "count/op");
      ("replication.applied_per_op", per_op "applied", "count/op");
      ("replication.deliveries_per_op", per_op "node_deliveries", "count/op");
      ("replication.coord_cpu_util", !coord_util, "ratio");
      ("replication.elections_started", d "elections", "count");
      ("replication.takeover_ms", takeover, "ms");
      ("replication.lost_updates", float_of_int (ep.writes - ep.echoed), "count");
      ("gc.minor_words_per_op", per_op "minor", "words/op");
      ("gc.promoted_words_per_op", per_op "promoted", "words/op");
      ("gc.major_collections", d "major", "count");
    ]
  in
  {
    traced;
    setup_s = setup_s *. speed;
    window_cpu_s = window_cpu_s *. speed;
    speed;
    ops;
    attempted;
    failed;
    problems;
    rtt = Sim.Stats.samples ep.rtt;
    joins = Sim.Stats.samples ep.join;
    outage = ep.outage;
    drain;
    late_max = ep.late_max;
    layers;
  }

(* --- standalone codec timings on the workload's own frame shape -------- *)

let codec_timing spec =
  let u =
    {
      T.seqno = 123456;
      group = gname 0;
      kind = T.Set_state;
      obj = objs.(1);
      data = payload spec.write_size 123456;
      sender = Printf.sprintf "m%d" (spec.members - 1);
      timestamp = 1234.5678;
    }
  in
  let msg = Proto.Message.Response (Proto.Message.Deliver u) in
  let bytes = Proto.Message.encoded_bytes (Proto.Message.pre_encode msg) in
  let best f =
    let n = 5000 in
    let b = ref infinity in
    for _ = 1 to 5 do
      let t0 = clock () in
      for _ = 1 to n do
        f ()
      done;
      b := Float.min !b ((clock () -. t0) /. float_of_int n *. 1e9)
    done;
    !b
  in
  let enc =
    best (fun () ->
        ignore (Sys.opaque_identity (Proto.Message.encoded_bytes (Proto.Message.pre_encode msg))))
  in
  let dec =
    best (fun () ->
        ignore (Sys.opaque_identity (Proto.Message.peek_kind bytes));
        ignore (Sys.opaque_identity (Proto.Message.decode (Proto.Codec.Reader.of_string bytes))))
  in
  (enc, dec)

(* --- reporting -------------------------------------------------------- *)

let stats_of arrays =
  let s = Sim.Stats.create () in
  List.iter (Array.iter (Sim.Stats.add s)) arrays;
  s

let median xs = Sim.Stats.median (stats_of [ Array.of_list xs ])

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "corona_bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fanout | join_churn | replicated_failover");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload; " ^ usage);
        exit 2
  in
  let tracing = !trace = 1 in
  let deadline = clock () +. !seconds in
  (* Traced runs alternate untraced/traced episodes (the untraced ones are
     the base of the overhead ratio); untraced runs pool their first
     [virt_episodes] episodes into the virtual metrics. *)
  let min_episodes = if tracing then 4 else spec.virt_episodes in
  (* The heap peak is read once the virtual episodes are done: up to there
     the allocation sequence, and so the GC's, depends on the seed only. *)
  let peak_heap_words = ref 0 in
  let rec loop e acc =
    if e = spec.virt_episodes then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    if e >= min_episodes && clock () >= deadline then List.rev acc
    else begin
      let r = run_episode spec ~seed:((!seed * 1000) + e) ~traced:(tracing && e mod 2 = 1) in
      Printf.eprintf
        "episode %d%s: speed %.3f, setup %.4fs, %d ops in %.3fs cpu (%.0f ops/s), outage %.1fms\n%!"
        e
        (if r.traced then " (traced)" else "")
        r.speed r.setup_s r.ops r.window_cpu_s
        (ratio (float_of_int r.ops) r.window_cpu_s)
        (1e3 *. r.outage);
      loop (e + 1) (r :: acc)
    end
  in
  let results = loop 0 [] in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 results in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 results in
  let problems = List.concat_map (fun r -> r.problems) results in
  let drain = List.fold_left (fun a r -> Float.max a r.drain) 0.0 results in
  let late = List.fold_left (fun a r -> Float.max a r.late_max) 0.0 results in
  let untraced = List.filter (fun r -> not r.traced) results in
  let ops_per_s rs = median (List.map (fun r -> ratio (float_of_int r.ops) r.window_cpu_s) rs) in
  let virt = List.filteri (fun i _ -> i < spec.virt_episodes) results in
  let rtt = stats_of (List.map (fun r -> r.rtt) virt) in
  let joins = stats_of (List.map (fun r -> r.joins) virt) in
  let ms x = 1e3 *. x in
  List.iter (fun p -> Printf.printf "check failed: %s\n" p) problems;
  Printf.printf
    "%s seed=%d episodes=%d (traced %d) error_rate=%.6f (%d/%d) virt_rtt n=%d virt_join n=%d \
     drain_max=%.3fs (bound %.1fs) generator_late_max=%.3fms\n"
    spec.name !seed (List.length results)
    (List.length results - List.length untraced)
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted (Sim.Stats.count rtt) (Sim.Stats.count joins) drain drain_bound (ms late);
  let metrics =
    if tracing then begin
      let traced = List.filter (fun r -> r.traced) results in
      let names = List.map (fun (n, _, u) -> (n, u)) (List.hd traced).layers in
      let enc, dec = codec_timing spec in
      let value n r =
        let _, v, _ = List.find (fun (n', _, _) -> String.equal n' n) r.layers in
        v
      in
      List.map (fun (n, u) -> (n, median (List.map (value n) traced), u)) names
      @ [
          ("proto.encode_host_ns", enc, "ns");
          ("proto.decode_host_ns", dec, "ns");
          ("bench.tracing_overhead", ratio (ops_per_s traced) (ops_per_s untraced), "ratio");
        ]
    end
    else
      [
        ("virt_rtt_p50_ms", ms (Sim.Stats.percentile rtt 50.0), "ms");
        ("virt_rtt_p99_ms", ms (Sim.Stats.percentile rtt 99.0), "ms");
        ("virt_join_p50_ms", ms (Sim.Stats.percentile joins 50.0), "ms");
        ("virt_join_p99_ms", ms (Sim.Stats.percentile joins 99.0), "ms");
        ("virt_outage_ms", ms (median (List.map (fun r -> r.outage) virt)), "ms");
        ("host_ops_per_s", ops_per_s untraced, "1/s");
        ("setup_s", median (List.map (fun r -> r.setup_s) results), "s");
        ("peak_heap_mb", float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
      ]
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "check failed: a metric is not a finite number";
  let correct = failed = 0 && problems = [] && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (json_metrics metrics);
  if not correct then exit 1
