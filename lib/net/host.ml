type cpu_profile = {
  profile_name : string;
  send_overhead : float;
  recv_overhead : float;
  per_byte_cost : float;
  workers : int;
}

(* Cost calibration note: the absolute values below are chosen so that the
   simulated testbed lands in the same order of magnitude as the paper's
   1998-era measurements (multicast RTTs of tens of milliseconds for tens of
   clients, server throughput of hundreds of kB/s on a 10 Mbps LAN). Only
   the relative shapes matter for the reproduction. *)

let ultrasparc =
  {
    profile_name = "ultrasparc-1";
    send_overhead = 250e-6;
    recv_overhead = 200e-6;
    per_byte_cost = 180e-9;
    workers = 1;
  }

let sparc20 =
  {
    profile_name = "sparc-20";
    send_overhead = 400e-6;
    recv_overhead = 350e-6;
    per_byte_cost = 300e-9;
    workers = 1;
  }

let pentium_ii_quad =
  {
    profile_name = "pentium-ii-200x4";
    send_overhead = 180e-6;
    recv_overhead = 150e-6;
    per_byte_cost = 120e-9;
    workers = 4;
  }

let modem_client =
  {
    profile_name = "modem-client";
    send_overhead = 1.5e-3;
    recv_overhead = 1.2e-3;
    per_byte_cost = 1e-6;
    workers = 1;
  }

type t = {
  engine : Sim.Engine.t;
  clock : float array; (* the engine's clock cell: read flat, never boxed *)
  name : string;
  cpu : cpu_profile;
  nic_bandwidth : float;
  mutable worker_free : float array; (* virtual time each CPU worker frees *)
  (* One-element float arrays rather than mutable float fields: a float
     store into this mixed record (or a [float ref], which shares the
     generic ['a ref] representation) boxes a fresh float on every single
     reservation, while a float-array store is flat and allocation-free. *)
  nic_free : float array;
  cpu_seconds : float array;
  mutable alive : bool;
  mutable epoch : int;
  mutable transitions : float list; (* crash/restart instants, newest first *)
  mutable crash_hooks : (unit -> unit) list;
  multicast_capable : bool;
}

let default_bandwidth = 1.25e6 (* 10 Mbps Ethernet *)

let create engine ~name ?(cpu = ultrasparc) ?(nic_bandwidth = default_bandwidth)
    ?(multicast_capable = true) () =
  {
    engine;
    clock = Sim.Engine.clock engine;
    name;
    cpu;
    nic_bandwidth;
    worker_free = Array.make (max 1 cpu.workers) 0.0;
    nic_free = [| 0.0 |];
    cpu_seconds = [| 0.0 |];
    alive = true;
    epoch = 0;
    transitions = [];
    crash_hooks = [];
    multicast_capable;
  }

let name t = t.name

let engine t = t.engine

let cpu t = t.cpu

let is_alive t = t.alive

let multicast_capable t = t.multicast_capable

let nic_bandwidth t = t.nic_bandwidth

let epoch t = t.epoch

(* Run [f] at virtual time [at] only if the host is still in the same
   incarnation by then. *)
let guarded_at t at f =
  let epoch_at_schedule = t.epoch in
  ignore
    (Sim.Engine.schedule_at t.engine at (fun () ->
         if t.alive && t.epoch = epoch_at_schedule then f ()))

(* The CPU and NIC are pure accumulators over virtual time, so a batch
   caller can reserve many slots inline (closed form) instead of chaining
   one event per stage; [exec] and [nic_send] are the single-slot users of
   the same primitives, which keeps the accounting byte-identical between
   the chained and batched paths. *)

(* Earliest-free worker (non-preemptive FIFO), as a tail recursion on int
   indices so the per-call [ref] disappears from the hot loop. *)
let rec earliest_free (free : float array) i best =
  if i >= Array.length free then best
  else earliest_free free (i + 1) (if free.(i) < free.(best) then i else best)

let reserve_cpu t ~cost =
  let cost = if cost < 0.0 then 0.0 else cost in
  let now = t.clock.(0) in
  let best = earliest_free t.worker_free 1 0 in
  let start = if t.worker_free.(best) > now then t.worker_free.(best) else now in
  let finish = start +. cost in
  t.worker_free.(best) <- finish;
  t.cpu_seconds.(0) <- t.cpu_seconds.(0) +. cost;
  finish

(* Batch flavor of {!reserve_cpu}: fill [into.(0..n-1)] with the finish
   times of [n] successive same-cost reservations. Identical accounting to
   [n] single calls, but the finish times land in the caller's float array
   without [n] boxed-float returns crossing the module boundary. *)
let reserve_cpu_many t ~cost ~n ~into =
  let cost = if cost < 0.0 then 0.0 else cost in
  let now = t.clock.(0) in
  let free = t.worker_free in
  for i = 0 to n - 1 do
    let best = earliest_free free 1 0 in
    let start = if free.(best) > now then free.(best) else now in
    let finish = start +. cost in
    free.(best) <- finish;
    into.(i) <- finish
  done;
  t.cpu_seconds.(0) <- t.cpu_seconds.(0) +. (float_of_int n *. cost)

(* Slot flavor of {!reserve_cpu}: cost read from [costs.(i)], finish written
   to [into.(i)] — no float crosses the call boundary. *)
let reserve_cpu_slot t ~costs ~into i =
  let cost = if costs.(i) < 0.0 then 0.0 else costs.(i) in
  let now = t.clock.(0) in
  let best = earliest_free t.worker_free 1 0 in
  let start = if t.worker_free.(best) > now then t.worker_free.(best) else now in
  let finish = start +. cost in
  t.worker_free.(best) <- finish;
  t.cpu_seconds.(0) <- t.cpu_seconds.(0) +. cost;
  into.(i) <- finish

let reserve_nic_from t ~from ~size =
  let start = if t.nic_free.(0) > from then t.nic_free.(0) else from in
  let finish = start +. (float_of_int (max 0 size) /. t.nic_bandwidth) in
  t.nic_free.(0) <- finish;
  finish

(* Slot flavor of {!reserve_nic_from} for batched fan-out: reserve starting
   no earlier than [fins.(i)], write the finish time to [into.(i)]. No
   float crosses the call boundary, so the per-recipient loop stays
   allocation-free. *)
let reserve_nic_slot t ~size ~fins ~into i =
  let from = fins.(i) in
  let start = if t.nic_free.(0) > from then t.nic_free.(0) else from in
  let finish = start +. (float_of_int (max 0 size) /. t.nic_bandwidth) in
  t.nic_free.(0) <- finish;
  into.(i) <- finish

let exec t ~cost f = if t.alive then guarded_at t (reserve_cpu t ~cost) f

let nic_send t ~size f =
  if t.alive then
    guarded_at t (reserve_nic_from t ~from:t.clock.(0) ~size) f

let has_transitions t = match t.transitions with [] -> false | _ :: _ -> true

let epoch_changed_within t ~after ~until =
  List.exists (fun at -> at > after && at <= until) t.transitions

let cpu_busy_until t =
  let now = t.clock.(0) in
  Array.fold_left (fun acc x -> min acc (max x now)) infinity t.worker_free

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.epoch <- t.epoch + 1;
    (* Queued work is implicitly dropped by the epoch guard. *)
    let now = t.clock.(0) in
    t.transitions <- now :: t.transitions;
    t.worker_free <- Array.map (fun _ -> now) t.worker_free;
    t.nic_free.(0) <- now;
    List.iter (fun hook -> hook ()) (List.rev t.crash_hooks)
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
    t.epoch <- t.epoch + 1;
    let now = t.clock.(0) in
    t.transitions <- now :: t.transitions;
    t.worker_free <- Array.map (fun _ -> now) t.worker_free;
    t.nic_free.(0) <- now
  end

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks

let cpu_seconds_used t = t.cpu_seconds.(0)

