type subscription = {
  m_host : Host.t;
  m_key : string;
  m_handler : size:int -> Payload.t -> unit;
  m_epoch : int; (* host epoch at join: a crash invalidates the entry *)
}

type t = {
  fabric : Fabric.t;
  mutable subs : subscription list; (* newest first *)
  (* Join-order snapshot of [subs], rebuilt lazily after a join/leave: the
     send hot loop iterates an array instead of reversing and filtering the
     list per transmission. Entries whose host has crashed stay in the
     cache — the per-delivery epoch guard silences them, exactly as the
     issue-time liveness filter used to. *)
  mutable cache : subscription array;
  mutable cache_n : int;
  mutable cache_dirty : bool;
  mutable free_mb : mbatch list; (* recycled send state *)
}

(* Recycled per-send fan-out state, the multicast twin of the fabric's
   transmit batch: per-target subscriptions in a scratch array, two
   persistent pooled-event callbacks, a countdown to the recycle point. *)
and mbatch = {
  mb_chan : t;
  mutable mb_src : Host.t;
  mutable mb_issued_at : float;
  mutable mb_until : float; (* sender NIC finish: the epoch-guard horizon *)
  mutable mb_size : int;
  mutable mb_payload : Payload.t;
  mutable mb_remaining : int;
  mutable mb_subs : subscription array;
  mutable mb_scratch : float array; (* per-target deser cost / finish slot *)
  mutable mb_arrive : float array; (* per-target stage-1 time: a run reads it *)
  mutable mb_stage1 : int -> unit;
  mutable mb_stage2 : int -> unit;
}

let ignore_i (_ : int) = ()

let dummy_payload = Payload.Raw ""

(* Channels are named per fabric so server and clients meet on the same
   object; the registry is fabric-instance state so concurrent simulations
   in one process cannot share a channel. *)
type Fabric.ext += Channels of (string, t) Hashtbl.t

let registry fabric =
  match Fabric.find_ext fabric "multicast" with
  | Some (Channels r) -> r
  | Some _ | None ->
      let r = Hashtbl.create 16 in
      Fabric.set_ext fabric "multicast" (Channels r);
      r

let channel fabric ~name =
  let registry = registry fabric in
  match Hashtbl.find_opt registry name with
  | Some t -> t
  | None ->
      let t =
        {
          fabric;
          subs = [];
          cache = [||];
          cache_n = 0;
          cache_dirty = false;
          free_mb = [];
        }
      in
      Hashtbl.replace registry name t;
      t

let leave t host ?key () =
  let key = Option.value key ~default:(Host.name host) in
  t.cache_dirty <- true;
  t.subs <-
    List.filter
      (fun s -> not (s.m_host == host && s.m_key = key))
      t.subs

let join t host ?key ~handler () =
  let key = Option.value key ~default:(Host.name host) in
  leave t host ~key ();
  t.cache_dirty <- true;
  t.subs <-
    { m_host = host; m_key = key; m_handler = handler; m_epoch = Host.epoch host }
    :: t.subs

let refresh_cache t =
  match t.subs with
  | [] ->
      t.cache_n <- 0;
      t.cache_dirty <- false
  | first :: _ ->
      let n = List.length t.subs in
      if Array.length t.cache < n then t.cache <- Array.make (max 8 n) first;
      (* [subs] is newest-first; fill back-to-front for join order. *)
      let i = ref n in
      List.iter
        (fun s ->
          decr i;
          t.cache.(!i) <- s)
        t.subs;
      t.cache_n <- n;
      t.cache_dirty <- false

let live_subs t =
  List.filter
    (fun s -> Host.is_alive s.m_host && Host.epoch s.m_host = s.m_epoch)
    (List.rev t.subs)

let subscriber_count t = List.length (live_subs t)

(* Stage 1 fires at the per-target propagation timestamp: sender-epoch
   guard (a sender crash before its NIC finished the transmission kills the
   whole send, as the chained [exec]/[nic_send] guards used to), then the
   subscription's own liveness check and the receiver-CPU reservation. *)
let rec mb_stage1 mb i =
  let src = mb.mb_src in
  if
    Host.has_transitions src
    && Host.epoch_changed_within src ~after:mb.mb_issued_at ~until:mb.mb_until
  then mb_terminal mb
  else begin
    let s = mb.mb_subs.(i) in
    if Host.is_alive s.m_host && Host.epoch s.m_host = s.m_epoch then begin
      let cpu = Host.cpu s.m_host in
      (* Cost in, finish out through the scratch slot (read before write),
         so no boxed float crosses the reservation call. *)
      mb.mb_scratch.(i) <-
        cpu.Host.recv_overhead
        +. (float_of_int mb.mb_size *. cpu.Host.per_byte_cost);
      Host.reserve_cpu_slot s.m_host ~costs:mb.mb_scratch ~into:mb.mb_scratch i;
      Sim.Engine.schedule_run (Fabric.engine mb.mb_chan.fabric)
        ~times:mb.mb_scratch ~first:i ~last:i mb.mb_stage2
    end
    else mb_terminal mb
  end

and mb_stage2 mb i =
  let s = mb.mb_subs.(i) in
  if Host.is_alive s.m_host && Host.epoch s.m_host = s.m_epoch then
    s.m_handler ~size:mb.mb_size mb.mb_payload;
  mb_terminal mb

and mb_terminal mb =
  mb.mb_remaining <- mb.mb_remaining - 1;
  if mb.mb_remaining = 0 then begin
    mb.mb_payload <- dummy_payload;
    mb.mb_chan.free_mb <- mb :: mb.mb_chan.free_mb
  end

let new_mbatch t src =
  let mb =
    {
      mb_chan = t;
      mb_src = src;
      mb_issued_at = 0.0;
      mb_until = 0.0;
      mb_size = 0;
      mb_payload = dummy_payload;
      mb_remaining = 0;
      mb_subs = [||];
      mb_scratch = [||];
      mb_arrive = [||];
      mb_stage1 = ignore_i;
      mb_stage2 = ignore_i;
    }
  in
  mb.mb_stage1 <- (fun i -> mb_stage1 mb i);
  mb.mb_stage2 <- (fun i -> mb_stage2 mb i);
  mb

let acquire_mb t src =
  let mb =
    match t.free_mb with
    | mb :: rest ->
        t.free_mb <- rest;
        mb
    | [] -> new_mbatch t src
  in
  if Array.length mb.mb_subs < t.cache_n then begin
    mb.mb_subs <- Array.make (Array.length t.cache) t.cache.(0);
    mb.mb_scratch <- Array.make (Array.length t.cache) 0.0;
    mb.mb_arrive <- Array.make (Array.length t.cache) 0.0
  end;
  mb

(* One transmission reaching every live subscriber except the source.
   Timestamps are identical to the chained [exec] -> [nic_send] ->
   per-target schedule the send used to issue: the serialize and NIC finish
   times come from the same closed-form accumulators. Divergences (mirrors
   of the [Fabric.transmit_many] ones): the packet counter is charged and
   the reachability check performed at issue time rather than NIC-finish
   time, and a sender crash mid-transmission is silenced via the epoch
   window instead of dropped by event guards. *)
let send t ~src ~size payload =
  if Host.is_alive src then begin
    if t.cache_dirty then refresh_cache t;
    let cpu = Host.cpu src in
    let serialize_cost =
      cpu.Host.send_overhead +. (float_of_int size *. cpu.Host.per_byte_cost)
    in
    let engine = Fabric.engine t.fabric in
    let issued_at = Sim.Engine.now engine in
    let fin = Host.reserve_cpu src ~cost:serialize_cost in
    let nic_fin = Host.reserve_nic_from src ~from:fin ~size in
    Fabric.record_packet t.fabric ~size;
    let mb = acquire_mb t src in
    mb.mb_src <- src;
    mb.mb_issued_at <- issued_at;
    mb.mb_until <- nic_fin;
    mb.mb_size <- size;
    mb.mb_payload <- payload;
    let cnt = ref 0 in
    for i = 0 to t.cache_n - 1 do
      let s = t.cache.(i) in
      if
        s.m_host != src
        && Fabric.reachable t.fabric src s.m_host
      then begin
        (* Mostly the subscription the slot held last send: store only on
           change, so no write barrier per target. *)
        if mb.mb_subs.(!cnt) != s then mb.mb_subs.(!cnt) <- s;
        incr cnt
      end
    done;
    if !cnt = 0 then begin
      (* Nothing to deliver: retire the batch immediately. *)
      mb.mb_remaining <- 1;
      mb_terminal mb
    end
    else begin
      mb.mb_remaining <- !cnt;
      (* Every target propagates at the same instant, so the whole fan-out
         is one engine run. *)
      Array.fill mb.mb_arrive 0 !cnt (nic_fin +. Fabric.latency t.fabric);
      Fabric.schedule_stretches engine ~times:mb.mb_arrive ~n:!cnt mb.mb_stage1
    end
  end
