type config = { base_latency : float; jitter : float; loss_rate : float }

let lan = { base_latency = 0.3e-3; jitter = 0.0; loss_rate = 0.0 }

let campus = { base_latency = 1.5e-3; jitter = 0.2e-3; loss_rate = 0.0 }

(* Transport-private state (TCP listener tables, multicast channel
   registries, ...) hangs off the fabric instance instead of living in
   process-global tables: two simulations in one process must never share
   listeners or channels. Each transport declares its own [ext] constructor
   and claims a slot by name. *)
type ext = ..

type t = {
  engine : Sim.Engine.t;
  config : config;
  rng : Sim.Rng.t;
  hosts : (string, Host.t) Hashtbl.t;
  mutable host_order : Host.t list; (* newest first *)
  mutable component_of : (string, int) Hashtbl.t option; (* None = no partition *)
  mutable packets : int;
  mutable bytes : int;
  mutable batches : int;
  mutable extensions : (string * ext) list;
  mutable free_batches : batch list; (* recycled transmit_many state *)
}

(* Recycled per-fan-out state for [transmit_many]: scratch arrays sized to
   the largest batch seen plus two persistent stage closures, so a
   steady-state broadcast allocates no per-recipient closures or event
   records at all. The record is leased at issue and released when every
   recipient has reached its terminal event (delivery, drop, or epoch
   silence) — [b_remaining] counts down to the release point, where the
   optional completion callback fires. *)
and batch = {
  b_fab : t;
  mutable b_src : Host.t;
  mutable b_issued_at : float;
  mutable b_remaining : int;
  mutable b_dsts : Host.t array; (* the caller's array, held until completion *)
  mutable b_fin : float array; (* sender-CPU finish, issue scratch *)
  mutable b_arrive : float array; (* stage-1 time: the engine runs read it *)
  mutable b_until : float array; (* sender-epoch guard horizon per recipient *)
  mutable b_deser : float array;
  mutable b_kind : int array; (* 0 = deliver, 1 = drop (partition/loss) *)
  mutable b_dst_epoch : int array; (* receiver epoch at deser reservation *)
  mutable b_k : int -> unit;
  mutable b_on_dropped : int -> unit;
  mutable b_on_complete : unit -> unit;
  mutable b_stage1 : int -> unit;
  mutable b_stage2 : int -> unit;
}

let ignore_i (_ : int) = ()

let ignore_u () = ()

let create ?(config = lan) engine =
  {
    engine;
    config;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    hosts = Hashtbl.create 64;
    host_order = [];
    component_of = None;
    packets = 0;
    bytes = 0;
    batches = 0;
    extensions = [];
    free_batches = [];
  }

let find_ext t name = List.assoc_opt name t.extensions

let set_ext t name e =
  t.extensions <- (name, e) :: List.remove_assoc name t.extensions

let engine t = t.engine

let config t = t.config

let rng t = t.rng

let add_host t ~name ?cpu ?nic_bandwidth ?multicast_capable () =
  if Hashtbl.mem t.hosts name then
    invalid_arg (Printf.sprintf "Fabric.add_host: duplicate host %S" name);
  let host = Host.create t.engine ~name ?cpu ?nic_bandwidth ?multicast_capable () in
  Hashtbl.replace t.hosts name host;
  t.host_order <- host :: t.host_order;
  host

let host t name = Hashtbl.find t.hosts name

let hosts t = List.rev t.host_order

let latency t = t.config.base_latency

let partition t components =
  let table = Hashtbl.create 64 in
  List.iteri
    (fun idx names -> List.iter (fun n -> Hashtbl.replace table n idx) names)
    components;
  (* Unlisted hosts join the first component. *)
  Hashtbl.iter
    (fun name _ -> if not (Hashtbl.mem table name) then Hashtbl.replace table name 0)
    t.hosts;
  t.component_of <- Some table

let heal t = t.component_of <- None

let same_component t a b =
  match t.component_of with
  | None -> true
  | Some table -> (
      match
        ( Hashtbl.find_opt table (Host.name a),
          Hashtbl.find_opt table (Host.name b) )
      with
      | Some ca, Some cb -> ca = cb
      | _ -> true)

let reachable t a b =
  Host.is_alive a && Host.is_alive b && same_component t a b

let transmit t ~src ~dst ~size ?(on_dropped = ignore) k =
  let cpu_src = Host.cpu src and cpu_dst = Host.cpu dst in
  let serialize_cost =
    cpu_src.Host.send_overhead +. (float_of_int size *. cpu_src.Host.per_byte_cost)
  in
  let deserialize_cost =
    cpu_dst.Host.recv_overhead +. (float_of_int size *. cpu_dst.Host.per_byte_cost)
  in
  let deliver () =
    if Host.is_alive dst then Host.exec dst ~cost:deserialize_cost k
    else on_dropped ()
  in
  (* [add_host] rejects duplicate names, so host identity is physical. *)
  if src == dst then
    (* Loopback: skip NIC and network. *)
    Host.exec src ~cost:serialize_cost (fun () -> deliver ())
  else
    Host.exec src ~cost:serialize_cost (fun () ->
        Host.nic_send src ~size (fun () ->
            t.packets <- t.packets + 1;
            t.bytes <- t.bytes + size;
            if not (same_component t src dst) then on_dropped ()
            else if t.config.loss_rate > 0.0 && Sim.Rng.float t.rng 1.0 < t.config.loss_rate
            then on_dropped ()
            else begin
              let delay =
                t.config.base_latency
                +.
                if t.config.jitter > 0.0 then Sim.Rng.float t.rng t.config.jitter else 0.0
              in
              ignore (Sim.Engine.schedule t.engine ~delay deliver)
            end))

(* Batched fan-out: one scheduled delivery event per recipient instead of the
   three chained events ([exec] -> [nic_send] -> propagation) that [transmit]
   pays. Correctness hinges on the accumulator model being closed-form: a
   same-instant fan-out through [transmit] reserves every recipient's
   serialize slice synchronously at issue time (recipient order), then each
   exec-finish event reserves the NIC in heap order, which is recipient
   order again. We replay exactly those reservations inline, so delivery
   timestamps are byte-identical to the chained path. Deliberate divergences
   (documented in DESIGN.md): packet/byte counters are charged and loss /
   jitter randomness is drawn at issue time rather than at NIC-finish time,
   and the partition check moves to issue time; a sender crash between issue
   and NIC-finish is detected via the host's epoch-transition history and
   silences the affected deliveries just like the chained epoch guard.

   The per-recipient state lives in a recycled [batch] record (leased from
   [free_batches] at issue, re-shelved when the countdown reaches zero) and
   both delivery stages are pooled engine runs, so the steady-state loop
   allocates neither closures nor event records per recipient, and the
   event queue holds one entry per stretch of non-decreasing arrivals
   rather than one per recipient. *)

(* Stage 1 fires at the delivery (or drop-report) timestamp: sender-epoch
   guard, then either the drop callback or the receiver-CPU reservation
   followed by stage 2 — the [Host.exec] guard, unrolled so the epoch
   snapshot lands in a scratch array instead of a closure. *)
let rec batch_stage1 b i =
  let src = b.b_src in
  if
    Host.has_transitions src
    && Host.epoch_changed_within src ~after:b.b_issued_at ~until:b.b_until.(i)
  then batch_terminal b (* sender restarted in between: delivery silenced *)
  else if b.b_kind.(i) = 1 then begin
    b.b_on_dropped i;
    batch_terminal b
  end
  else begin
    let dst = b.b_dsts.(i) in
    if Host.is_alive dst then begin
      (* [b_fin] is issue-time scratch, dead by delivery time: reuse the
         slot for the deserialize finish so no float return is boxed. *)
      Host.reserve_cpu_slot dst ~costs:b.b_deser ~into:b.b_fin i;
      b.b_dst_epoch.(i) <- Host.epoch dst;
      Sim.Engine.schedule_run b.b_fab.engine ~times:b.b_fin ~first:i ~last:i
        b.b_stage2
    end
    else begin
      b.b_on_dropped i;
      batch_terminal b
    end
  end

and batch_stage2 b i =
  let dst = b.b_dsts.(i) in
  if Host.is_alive dst && Host.epoch dst = b.b_dst_epoch.(i) then b.b_k i;
  batch_terminal b

and batch_terminal b =
  b.b_remaining <- b.b_remaining - 1;
  if b.b_remaining = 0 then begin
    let on_complete = b.b_on_complete in
    (* Defang the callbacks before re-shelving so the freelist does not
       retain the caller's closures (and whatever they capture). *)
    b.b_k <- ignore_i;
    b.b_on_dropped <- ignore_i;
    b.b_on_complete <- ignore_u;
    b.b_fab.free_batches <- b :: b.b_fab.free_batches;
    on_complete ()
  end

let new_batch t src =
  let b =
    {
      b_fab = t;
      b_src = src;
      b_issued_at = 0.0;
      b_remaining = 0;
      b_dsts = [||];
      b_fin = [||];
      b_arrive = [||];
      b_until = [||];
      b_deser = [||];
      b_kind = [||];
      b_dst_epoch = [||];
      b_k = ignore_i;
      b_on_dropped = ignore_i;
      b_on_complete = ignore_u;
      b_stage1 = ignore_i;
      b_stage2 = ignore_i;
    }
  in
  b.b_stage1 <- (fun i -> batch_stage1 b i);
  b.b_stage2 <- (fun i -> batch_stage2 b i);
  b

let acquire_batch t src n =
  let b =
    match t.free_batches with
    | b :: rest ->
        t.free_batches <- rest;
        b
    | [] -> new_batch t src
  in
  if Array.length b.b_fin < n then begin
    let cap = ref (max 16 (Array.length b.b_fin)) in
    while !cap < n do
      cap := !cap * 2
    done;
    b.b_fin <- Array.make !cap 0.0;
    b.b_arrive <- Array.make !cap 0.0;
    b.b_until <- Array.make !cap 0.0;
    b.b_deser <- Array.make !cap 0.0;
    b.b_kind <- Array.make !cap 0;
    b.b_dst_epoch <- Array.make !cap 0
  end;
  b

let schedule_stretches engine ~times ~n h =
  let first = ref 0 in
  for i = 1 to n - 1 do
    if times.(i) < times.(i - 1) then begin
      Sim.Engine.schedule_run engine ~times ~first:!first ~last:(i - 1) h;
      first := i
    end
  done;
  if n > 0 then Sim.Engine.schedule_run engine ~times ~first:!first ~last:(n - 1) h

let transmit_many t ~src ~size ~on_dropped ~on_complete ~dsts ~len:n k =
  if n > 0 && Host.is_alive src then begin
    t.batches <- t.batches + 1;
    let b = acquire_batch t src n in
    b.b_src <- src;
    b.b_issued_at <- Sim.Engine.now t.engine;
    b.b_remaining <- n;
    b.b_k <- k;
    b.b_on_dropped <- on_dropped;
    b.b_on_complete <- on_complete;
    if b.b_dsts != dsts then b.b_dsts <- dsts;
    let cpu_src = Host.cpu src in
    let serialize_cost =
      cpu_src.Host.send_overhead +. (float_of_int size *. cpu_src.Host.per_byte_cost)
    in
    let fin = b.b_fin in
    Host.reserve_cpu_many src ~cost:serialize_cost ~n ~into:fin;
    (* The chained path reserves the NIC in the order its exec-finish events
       fire: by (finish time, recipient index). Equal-cost reservations on
       the earliest-free worker finish in non-decreasing order, however
       many workers the sender has, so that order is recipient order.
       One loop serves every network shape: the rare features (partitions,
       loss, jitter) each cost one test when absent, the
       NIC finish lands in [until] without a boxed return, and jitter and
       loss draws stay in recipient order. *)
    let cfg = t.config in
    let until = b.b_until and arrive = b.b_arrive in
    for i = 0 to n - 1 do
      let dst = dsts.(i) in
      let cpu_dst = Host.cpu dst in
      b.b_deser.(i) <-
        cpu_dst.Host.recv_overhead +. (float_of_int size *. cpu_dst.Host.per_byte_cost);
      if src == dst then begin
        (* Loopback: skip NIC and network, deliver at serialize finish. *)
        b.b_kind.(i) <- 0;
        until.(i) <- fin.(i);
        arrive.(i) <- fin.(i)
      end
      else begin
        Host.reserve_nic_slot src ~size ~fins:fin ~into:until i;
        t.packets <- t.packets + 1;
        t.bytes <- t.bytes + size;
        let partitioned =
          match t.component_of with
          | None -> false
          | Some _ -> not (same_component t src dst)
        in
        (* Each draw lands in [arrive.(i)], which the arrival time
           overwrites below: no boxed float crosses [Sim.Rng]. *)
        if
          partitioned
          || cfg.loss_rate > 0.0
             && begin
                  Sim.Rng.unit_into t.rng arrive i;
                  arrive.(i) < cfg.loss_rate
                end
        then begin
          (* The chained path reports partition/loss drops at NIC-finish
             time; keep that so retransmit timers fire identically. *)
          b.b_kind.(i) <- 1;
          arrive.(i) <- until.(i)
        end
        else begin
          (* A unit draw times [cfg.jitter] is bit-identical to
             [Sim.Rng.float rng cfg.jitter]. *)
          let jitter =
            if cfg.jitter > 0.0 then begin
              Sim.Rng.unit_into t.rng arrive i;
              arrive.(i) *. cfg.jitter
            end
            else 0.0
          in
          b.b_kind.(i) <- 0;
          arrive.(i) <- until.(i) +. (cfg.base_latency +. jitter)
        end
      end
    done;
    (* Loopback, drops and jitter can each break the arrival order. *)
    schedule_stretches t.engine ~times:arrive ~n b.b_stage1
  end
  else on_complete () (* nothing issued: the caller may reclaim at once *)

let record_packet t ~size =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + size

let packets_sent t = t.packets

let bytes_sent t = t.bytes

let batches_sent t = t.batches
