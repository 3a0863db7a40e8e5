type close_reason = Graceful | Peer_crashed | Rejected

let pp_close_reason ppf = function
  | Graceful -> Format.pp_print_string ppf "graceful"
  | Peer_crashed -> Format.pp_print_string ppf "peer-crashed"
  | Rejected -> Format.pp_print_string ppf "rejected"

(* A connection is two symmetric endpoints. Each endpoint numbers its
   outgoing messages and reorders at the receiver, so delivery is FIFO even
   under jitter; fabric-level drops (loss or partition) are retransmitted
   until the connection closes, which models TCP stalling across a partition
   and resuming on heal.

   An in-order arrival is on every fan-out's per-recipient path, so it
   reads only plain fields of the endpoint: [peer] and [receiver] hold
   sentinels (the endpoint itself, [no_receiver]) rather than option
   boxes, and [held] counts the holdback entries so the fast path does not
   touch the hashtable. *)

type conn = {
  id : int;
  serial : int; (* creation order among the fabric's endpoints *)
  fabric : Fabric.t;
  host : Host.t;
  host_open : (int, conn) Hashtbl.t; (* [host]'s open endpoints, by serial *)
  mutable peer : conn; (* the endpoint itself until the handshake completes *)
  mutable open_ : bool;
  mutable receiver : size:int -> Payload.t -> unit; (* [no_receiver] until set *)
  mutable on_close : (close_reason -> unit) option;
  mutable send_seq : int;
  mutable recv_next : int;
  mutable held : int; (* entries in [holdback] *)
  holdback : (int, int * Payload.t) Hashtbl.t; (* seq -> size, payload *)
  mutable early : (int * Payload.t) list; (* delivered before receiver set, newest first *)
}

let no_receiver ~size:(_ : int) (_ : Payload.t) = ()

let retransmit_timeout = 0.5

let crash_notify_delay = 0.2

type listener = {
  l_fabric : Fabric.t;
  l_host : Host.t;
  l_port : int;
  mutable l_open : bool;
  l_on_accept : conn -> unit;
}

(* Recycled per-fan-out state for {!send_batch}: scratch arrays plus the
   three persistent fabric callbacks, leased per broadcast and re-shelved
   when the fabric reports the fan-out complete. *)
type inflight = {
  mutable if_conns : conn array;
  mutable if_seqs : int array;
  mutable if_dsts : Host.t array;
  mutable if_size : int;
  mutable if_payload : Payload.t;
  mutable if_deliver : int -> unit;
  mutable if_dropped : int -> unit;
  mutable if_complete : unit -> unit;
}

(* Per-fabric transport state: the listener table — (host name, port) ->
   listener —, each host's open endpoints and the connection-id and
   endpoint counters live on the fabric instance, so concurrent simulations
   in one process cannot observe each other's endpoints. *)
type tcp_state = {
  listeners : (string * int, listener) Hashtbl.t;
  open_endpoints : (string, (int, conn) Hashtbl.t) Hashtbl.t; (* by host name *)
  mutable next_conn_id : int;
  mutable next_serial : int;
  mutable free_inflight : inflight list;
}

type Fabric.ext += Tcp_state of tcp_state

let state fabric =
  match Fabric.find_ext fabric "tcp" with
  | Some (Tcp_state s) -> s
  | Some _ | None ->
      let s =
        {
          listeners = Hashtbl.create 16;
          open_endpoints = Hashtbl.create 16;
          next_conn_id = 0;
          next_serial = 0;
          free_inflight = [];
        }
      in
      Fabric.set_ext fabric "tcp" (Tcp_state s);
      s

let fresh_id fabric =
  let s = state fabric in
  s.next_conn_id <- s.next_conn_id + 1;
  s.next_conn_id

let engine_of c = Fabric.engine c.fabric

let peer_exn c =
  if c.peer == c then invalid_arg "Tcp: endpoint used before handshake completed"
  else c.peer

let peer_host c = (peer_exn c).host

let is_open c = c.open_

let id c = c.id

let held c = c.held

let close_endpoint c reason =
  if c.open_ then begin
    c.open_ <- false;
    Hashtbl.remove c.host_open c.serial;
    Hashtbl.reset c.holdback;
    c.held <- 0;
    match c.on_close with Some f -> f reason | None -> ()
  end

(* Hand one in-order message to the receiver, or stash it until one is
   set. *)
let receive c ~size payload =
  if c.receiver == no_receiver then c.early <- (size, payload) :: c.early
  else c.receiver ~size payload

(* Deliver buffered in-order messages. *)
let rec flush_ready c =
  if c.open_ && c.held > 0 then
    match Hashtbl.find_opt c.holdback c.recv_next with
    | None -> ()
    | Some (size, payload) ->
        Hashtbl.remove c.holdback c.recv_next;
        c.held <- c.held - 1;
        c.recv_next <- c.recv_next + 1;
        receive c ~size payload;
        flush_ready c

(* One arriving in-sequence message. The steady state — it carries exactly
   the next expected sequence number and nothing is buffered behind it —
   is tested first and hands the payload straight to the receiver: no
   holdback probe or insert, no (size, payload) pair, no flush round-trip.
   Out-of-order arrivals take the buffering path unchanged; duplicates are
   dropped. *)
let deliver_to dst seq ~size payload =
  if dst.open_ then
    if seq = dst.recv_next && dst.held = 0 then begin
      dst.recv_next <- seq + 1;
      receive dst ~size payload
    end
    else if seq >= dst.recv_next && not (Hashtbl.mem dst.holdback seq) then begin
      Hashtbl.replace dst.holdback seq (size, payload);
      dst.held <- dst.held + 1;
      flush_ready dst
    end

let set_receiver c f =
  c.receiver <- f;
  let backlog = List.rev c.early in
  c.early <- [];
  List.iter (fun (size, payload) -> if c.open_ then f ~size payload) backlog

let set_on_close c f = c.on_close <- f |> Option.some

let rec transmit_seq src seq size payload =
  (* Retransmit until delivered or the connection dies on our side. *)
  let dst = peer_exn src in
  let retry () =
    if src.open_ then
      ignore
        (Sim.Engine.schedule (engine_of src) ~delay:retransmit_timeout (fun () ->
             if src.open_ then transmit_seq src seq size payload))
  in
  Fabric.transmit src.fabric ~src:src.host ~dst:dst.host ~size ~on_dropped:retry
    (fun () -> deliver_to dst seq ~size payload)

let send c ~size payload =
  if c.open_ then begin
    let seq = c.send_seq in
    c.send_seq <- seq + 1;
    transmit_seq c seq size payload
  end

(* --- batched fan-out ---------------------------------------------------- *)

(* [batch] is a caller-owned fill buffer: clear, add the recipient
   connections of this broadcast, hand it to {!send_batch}. The
   in-flight per-recipient state (sequence numbers, destination hosts, the
   three fabric callbacks) lives in a recycled [inflight] record leased from
   the fabric's transport state and re-shelved when the fabric reports the
   fan-out complete — a steady-state broadcast allocates nothing on this
   layer. The two arrays ping-pong: [send_batch] swaps the batch's fill
   array into the inflight record and gives the record's previous array
   back, so neither side ever copies a connection list. *)

type batch = { mutable ba_conns : conn array; mutable ba_n : int }

let batch_create () = { ba_conns = [||]; ba_n = 0 }

let batch_clear b = b.ba_n <- 0

(* A refill mostly writes each slot with the connection it already holds
   (the same members, in the same order): store only on change, so the
   steady state pays no write barrier per recipient. *)
let batch_add b c =
  let cap = Array.length b.ba_conns in
  if b.ba_n = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) c in
    Array.blit b.ba_conns 0 bigger 0 cap;
    b.ba_conns <- bigger
  end;
  if b.ba_conns.(b.ba_n) != c then b.ba_conns.(b.ba_n) <- c;
  b.ba_n <- b.ba_n + 1

let batch_length b = b.ba_n

let batch_get b i =
  if i < 0 || i >= b.ba_n then invalid_arg "Tcp.batch_get: index out of bounds";
  b.ba_conns.(i)

let batch_rev b =
  let a = b.ba_conns in
  for i = 0 to (b.ba_n / 2) - 1 do
    let j = b.ba_n - 1 - i in
    let c = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- c
  done

let ignore_i (_ : int) = ()

let ignore_u () = ()

let dummy_payload = Payload.Raw ""

let new_inflight st =
  let inf =
    {
      if_conns = [||];
      if_seqs = [||];
      if_dsts = [||];
      if_size = 0;
      if_payload = dummy_payload;
      if_deliver = ignore_i;
      if_dropped = ignore_i;
      if_complete = ignore_u;
    }
  in
  inf.if_deliver <-
    (fun i ->
      deliver_to
        (peer_exn inf.if_conns.(i))
        inf.if_seqs.(i) ~size:inf.if_size inf.if_payload);
  inf.if_dropped <-
    (fun i ->
      let c = inf.if_conns.(i) in
      if c.open_ then begin
        (* Copy everything the retry needs out of the inflight record: the
           timer fires long after the record has been recycled. *)
        let seq = inf.if_seqs.(i) in
        let size = inf.if_size in
        let payload = inf.if_payload in
        ignore
          (Sim.Engine.schedule (engine_of c) ~delay:retransmit_timeout (fun () ->
               if c.open_ then transmit_seq c seq size payload))
      end);
  inf.if_complete <-
    (fun () ->
      inf.if_payload <- dummy_payload;
      st.free_inflight <- inf :: st.free_inflight);
  inf

(* One payload to every open connection of [b], through one batched fabric
   transmit: sequence numbers are assigned in add order, exactly as a [send]
   loop would, and a drop falls back to the chained single-connection
   retransmit path. *)
let send_batch b ~size payload =
  (* Compact the live connections in place, preserving order. *)
  let live = ref 0 in
  for i = 0 to b.ba_n - 1 do
    let c = b.ba_conns.(i) in
    if c.host != b.ba_conns.(0).host then begin
      b.ba_n <- 0;
      invalid_arg "Tcp.send_batch: endpoints on several local hosts"
    end;
    if c.open_ then begin
      if !live <> i then b.ba_conns.(!live) <- c;
      incr live
    end
  done;
  let n = !live in
  b.ba_n <- 0;
  if n > 0 then begin
    let st = state b.ba_conns.(0).fabric in
    let inf =
      match st.free_inflight with
      | inf :: rest ->
          st.free_inflight <- rest;
          inf
      | [] -> new_inflight st
    in
    (* Swap the fill buffer into the inflight record. *)
    let tmp = inf.if_conns in
    inf.if_conns <- b.ba_conns;
    b.ba_conns <- tmp;
    let conns = inf.if_conns in
    let c0 = conns.(0) in
    if Array.length inf.if_seqs < Array.length conns then begin
      inf.if_seqs <- Array.make (Array.length conns) 0;
      inf.if_dsts <- Array.make (Array.length conns) c0.host
    end;
    for i = 0 to n - 1 do
      let c = conns.(i) in
      let s = c.send_seq in
      c.send_seq <- s + 1;
      inf.if_seqs.(i) <- s;
      let h = (peer_exn c).host in
      if inf.if_dsts.(i) != h then inf.if_dsts.(i) <- h
    done;
    inf.if_size <- size;
    inf.if_payload <- payload;
    Fabric.transmit_many c0.fabric ~src:c0.host ~size ~on_dropped:inf.if_dropped
      ~on_complete:inf.if_complete ~dsts:inf.if_dsts ~len:n inf.if_deliver
  end

let close c =
  if c.open_ then begin
    let p = peer_exn c in
    close_endpoint c Graceful;
    (* FIN: one-latency notification, no retransmission. *)
    let delay = Fabric.latency c.fabric in
    ignore
      (Sim.Engine.schedule (engine_of c) ~delay (fun () -> close_endpoint p Graceful))
  end

(* Crash handling: when a host dies, its endpoints close silently and each
   live peer learns about it after latency + crash_notify_delay (keepalive /
   reset detection). A host has one crash hook, over a table of its open
   endpoints that every close leaves, so a closed endpoint is not kept alive
   by its host. The hook closes them in creation order, scheduling the
   peers' notices in that order. *)
let crash_endpoints host_open =
  let eps = Hashtbl.fold (fun serial c acc -> (serial, c) :: acc) host_open [] in
  Hashtbl.reset host_open;
  List.iter
    (fun (_, c) ->
      let p = c.peer in
      c.open_ <- false;
      c.on_close <- None;
      if p != c then begin
        let notify_delay = Fabric.latency c.fabric +. crash_notify_delay in
        ignore
          (Sim.Engine.schedule (engine_of c) ~delay:notify_delay (fun () ->
               close_endpoint p Peer_crashed))
      end)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) eps)

let host_open st host =
  match Hashtbl.find_opt st.open_endpoints (Host.name host) with
  | Some t -> t
  | None ->
      let t = Hashtbl.create 16 in
      Hashtbl.replace st.open_endpoints (Host.name host) t;
      Host.on_crash host (fun () -> crash_endpoints t);
      t

let make_endpoint fabric host id =
  let st = state fabric in
  let serial = st.next_serial in
  st.next_serial <- serial + 1;
  let host_open = host_open st host in
  let holdback = Hashtbl.create 8 in
  let rec c =
    {
      id;
      serial;
      fabric;
      host;
      host_open;
      peer = c;
      open_ = true;
      receiver = no_receiver;
      on_close = None;
      send_seq = 0;
      recv_next = 0;
      held = 0;
      holdback;
      early = [];
    }
  in
  Hashtbl.replace host_open serial c;
  c

let listen fabric host ~port ~on_accept =
  let listeners = (state fabric).listeners in
  let key = (Host.name host, port) in
  (match Hashtbl.find_opt listeners key with
  | Some l when l.l_open ->
      invalid_arg
        (Printf.sprintf "Tcp.listen: %s:%d already bound" (Host.name host) port)
  | Some _ | None -> ());
  let l =
    { l_fabric = fabric; l_host = host; l_port = port; l_open = true; l_on_accept = on_accept }
  in
  Hashtbl.replace listeners key l;
  (* A crashed server's listener dies with it. *)
  Host.on_crash host (fun () -> l.l_open <- false);
  l

let close_listener l =
  l.l_open <- false;
  Hashtbl.remove (state l.l_fabric).listeners (Host.name l.l_host, l.l_port)

let syn_size = 64

(* A SYN or SYN-ACK that loss or a partition drops is resent every
   [retransmit_timeout] until the handshake settles: the client's [timeout]
   fires first or the SYN-ACK arrives. A dead destination and a closed
   port's RST still fail at once. *)
let connect fabric ~src ~dst ~port ?(timeout = 5.0) ~on_connected ~on_failed () =
  let engine = Fabric.engine fabric in
  let settled = ref false in
  let fail () =
    if not !settled then begin
      settled := true;
      on_failed ()
    end
  in
  let resend send ~gave_up =
    ignore
      (Sim.Engine.schedule engine ~delay:retransmit_timeout (fun () ->
           if !settled then gave_up () else send ()))
  in
  ignore (Sim.Engine.schedule engine ~delay:timeout fail);
  let rec syn () =
    Fabric.transmit fabric ~src ~dst ~size:syn_size
      ~on_dropped:(fun () ->
        if Host.is_alive dst then resend syn ~gave_up:ignore else fail ())
      (fun () ->
        match Hashtbl.find_opt (state fabric).listeners (Host.name dst, port) with
        | Some l when l.l_open && Host.is_alive dst ->
            let id = fresh_id fabric in
            let client_end = make_endpoint fabric src id in
            let server_end = make_endpoint fabric dst id in
            client_end.peer <- server_end;
            server_end.peer <- client_end;
            (* SYN-ACK: accept fires on the server now, the client learns
               after the return trip. *)
            l.l_on_accept server_end;
            let gave_up () = close_endpoint server_end Peer_crashed in
            let rec syn_ack () =
              Fabric.transmit fabric ~src:dst ~dst:src ~size:syn_size
                ~on_dropped:(fun () ->
                  if Host.is_alive src && not !settled then resend syn_ack ~gave_up
                  else gave_up ())
                (fun () ->
                  if not !settled then begin
                    settled := true;
                    if client_end.open_ then on_connected client_end
                  end)
            in
            syn_ack ()
        | Some _ | None ->
            (* RST *)
            Fabric.transmit fabric ~src:dst ~dst:src ~size:syn_size ~on_dropped:fail
              (fun () -> fail ()))
  in
  syn ()
