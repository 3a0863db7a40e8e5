type close_reason = Graceful | Peer_crashed | Rejected

let pp_close_reason ppf = function
  | Graceful -> Format.pp_print_string ppf "graceful"
  | Peer_crashed -> Format.pp_print_string ppf "peer-crashed"
  | Rejected -> Format.pp_print_string ppf "rejected"

(* A connection is two symmetric endpoints. Each endpoint numbers its
   outgoing messages and reorders at the receiver, so delivery is FIFO even
   under jitter; fabric-level drops (loss or partition) are retransmitted
   until the connection closes, which models TCP stalling across a partition
   and resuming on heal. *)

type conn = {
  id : int;
  fabric : Fabric.t;
  host : Host.t;
  mutable peer : conn option; (* None only during construction *)
  mutable open_ : bool;
  mutable receiver : (size:int -> Payload.t -> unit) option;
  mutable on_close : (close_reason -> unit) option;
  mutable send_seq : int;
  mutable recv_next : int;
  holdback : (int, int * Payload.t) Hashtbl.t; (* seq -> size, payload *)
  mutable early : (int * Payload.t) list; (* delivered before receiver set, newest first *)
}

let retransmit_timeout = 0.5

let crash_notify_delay = 0.2

type listener = {
  l_fabric : Fabric.t;
  l_host : Host.t;
  l_port : int;
  mutable l_open : bool;
  l_on_accept : conn -> unit;
}

(* Recycled per-fan-out state for {!send_batch_buf}: scratch arrays plus the
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
   listener — and the connection-id counter live on the fabric instance, so
   concurrent simulations in one process cannot observe each other's
   endpoints. *)
type tcp_state = {
  listeners : (string * int, listener) Hashtbl.t;
  mutable next_conn_id : int;
  mutable free_inflight : inflight list;
}

type Fabric.ext += Tcp_state of tcp_state

let state fabric =
  match Fabric.find_ext fabric "tcp" with
  | Some (Tcp_state s) -> s
  | Some _ | None ->
      let s =
        { listeners = Hashtbl.create 16; next_conn_id = 0; free_inflight = [] }
      in
      Fabric.set_ext fabric "tcp" (Tcp_state s);
      s

let fresh_id fabric =
  let s = state fabric in
  s.next_conn_id <- s.next_conn_id + 1;
  s.next_conn_id

let engine_of c = Fabric.engine c.fabric

let peer_exn c =
  match c.peer with
  | Some p -> p
  | None -> invalid_arg "Tcp: endpoint used before handshake completed"

let local_host c = c.host

let peer_host c = (peer_exn c).host

let is_open c = c.open_

let id c = c.id

let close_endpoint c reason =
  if c.open_ then begin
    c.open_ <- false;
    Hashtbl.reset c.holdback;
    match c.on_close with Some f -> f reason | None -> ()
  end

(* Deliver buffered in-order messages to the receiver (or stash them). *)
let rec flush_ready c =
  if c.open_ then
    match Hashtbl.find_opt c.holdback c.recv_next with
    | None -> ()
    | Some (size, payload) ->
        Hashtbl.remove c.holdback c.recv_next;
        c.recv_next <- c.recv_next + 1;
        (match c.receiver with
        | Some f -> f ~size payload
        | None -> c.early <- (size, payload) :: c.early);
        flush_ready c

(* One arriving in-sequence message. The steady state — it carries exactly
   the next expected sequence number and nothing is buffered behind it —
   is tested first and hands the payload straight to the receiver: no
   holdback probe or insert, no (size, payload) pair, no flush round-trip.
   Out-of-order arrivals take the buffering path unchanged; duplicates are
   dropped. *)
let deliver_to dst seq ~size payload =
  if dst.open_ then
    if seq = dst.recv_next && Hashtbl.length dst.holdback = 0 then begin
      dst.recv_next <- seq + 1;
      match dst.receiver with
      | Some f -> f ~size payload
      | None -> dst.early <- (size, payload) :: dst.early
    end
    else if seq >= dst.recv_next && not (Hashtbl.mem dst.holdback seq) then begin
      Hashtbl.replace dst.holdback seq (size, payload);
      flush_ready dst
    end

let set_receiver c f =
  c.receiver <- Some f;
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

(* Fan one payload out over many connections with a single batched fabric
   transmit per sending host. Sequence numbers are assigned up front in list
   order (identical to a [send] loop); retransmits after a drop fall back to
   the chained single-connection path, which is fine — they are rare and not
   on the fan-out hot path. *)
let rec send_batch conns ~size payload =
  match List.filter (fun c -> c.open_) conns with
  | [] -> ()
  | c0 :: _ as live ->
      let mine, rest =
        List.partition (fun c -> Host.name c.host = Host.name c0.host) live
      in
      let arr = Array.of_list mine in
      let seqs =
        Array.map
          (fun c ->
            let s = c.send_seq in
            c.send_seq <- s + 1;
            s)
          arr
      in
      let dsts = Array.map (fun c -> (peer_exn c).host) arr in
      Fabric.transmit_many c0.fabric ~src:c0.host ~size ~dsts
        ~on_dropped:(fun i ->
          let c = arr.(i) in
          if c.open_ then
            ignore
              (Sim.Engine.schedule (engine_of c) ~delay:retransmit_timeout
                 (fun () -> if c.open_ then transmit_seq c seqs.(i) size payload)))
        (fun i -> deliver_to (peer_exn arr.(i)) seqs.(i) ~size payload);
      if rest <> [] then send_batch rest ~size payload

(* --- reusable fan-out batches ------------------------------------------ *)

(* [batch] is a caller-owned fill buffer: clear, add the recipient
   connections of this broadcast, hand it to {!send_batch_buf}. The
   in-flight per-recipient state (sequence numbers, destination hosts, the
   three fabric callbacks) lives in a recycled [inflight] record leased from
   the fabric's transport state and re-shelved when the fabric reports the
   fan-out complete — a steady-state broadcast allocates nothing on this
   layer. The two arrays ping-pong: [send_batch_buf] swaps the batch's fill
   array into the inflight record and gives the record's previous array
   back, so neither side ever copies a connection list. *)

type batch = { mutable ba_conns : conn array; mutable ba_n : int }

let batch_create () = { ba_conns = [||]; ba_n = 0 }

let batch_clear b = b.ba_n <- 0

let batch_add b c =
  let cap = Array.length b.ba_conns in
  if b.ba_n = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) c in
    Array.blit b.ba_conns 0 bigger 0 cap;
    b.ba_conns <- bigger
  end;
  b.ba_conns.(b.ba_n) <- c;
  b.ba_n <- b.ba_n + 1

let batch_length b = b.ba_n

let batch_get b i =
  if i < 0 || i >= b.ba_n then invalid_arg "Tcp.batch_get: index out of bounds";
  b.ba_conns.(i)

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

let send_batch_buf b ~size payload =
  (* Compact the live connections in place, preserving order, and detect
     the (rare) mixed-sender case on the way. *)
  let live = ref 0 in
  let mixed = ref false in
  for i = 0 to b.ba_n - 1 do
    let c = b.ba_conns.(i) in
    if c.open_ then begin
      if !live > 0 && Host.name c.host <> Host.name b.ba_conns.(0).host then
        mixed := true;
      b.ba_conns.(!live) <- c;
      incr live
    end
  done;
  b.ba_n <- !live;
  let n = !live in
  if n = 0 then ()
  else if !mixed then begin
    (* Endpoints on several sending hosts: fall back to the list path, one
       batched transmit per host. *)
    let conns = ref [] in
    for i = n - 1 downto 0 do
      conns := b.ba_conns.(i) :: !conns
    done;
    b.ba_n <- 0;
    send_batch !conns ~size payload
  end
  else begin
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
    b.ba_n <- 0;
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
      inf.if_dsts.(i) <- (peer_exn c).host
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
    let delay = Fabric.latency c.fabric c.host p.host in
    ignore
      (Sim.Engine.schedule (engine_of c) ~delay (fun () -> close_endpoint p Graceful))
  end

(* Crash handling: when a host dies, its endpoints close silently and each
   live peer learns about it after latency + crash_notify_delay (keepalive /
   reset detection). *)
let watch_crash c =
  let p_delay () =
    match c.peer with
    | Some p -> Fabric.latency c.fabric c.host p.host
    | None -> 0.0
  in
  Host.on_crash c.host (fun () ->
      if c.open_ then begin
        let notify_delay = p_delay () +. crash_notify_delay in
        let peer = c.peer in
        c.open_ <- false;
        c.on_close <- None;
        match peer with
        | Some p ->
            ignore
              (Sim.Engine.schedule (engine_of c) ~delay:notify_delay (fun () ->
                   close_endpoint p Peer_crashed))
        | None -> ()
      end)

let make_endpoint fabric host id =
  let c =
    {
      id;
      fabric;
      host;
      peer = None;
      open_ = true;
      receiver = None;
      on_close = None;
      send_seq = 0;
      recv_next = 0;
      holdback = Hashtbl.create 8;
      early = [];
    }
  in
  watch_crash c;
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

let connect fabric ~src ~dst ~port ?(timeout = 5.0) ~on_connected ~on_failed () =
  let engine = Fabric.engine fabric in
  let settled = ref false in
  let fail () =
    if not !settled then begin
      settled := true;
      on_failed ()
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:timeout fail);
  (* SYN *)
  Fabric.transmit fabric ~src ~dst ~size:syn_size ~on_dropped:fail (fun () ->
      match Hashtbl.find_opt (state fabric).listeners (Host.name dst, port) with
      | Some l when l.l_open && Host.is_alive dst ->
          let id = fresh_id fabric in
          let client_end = make_endpoint fabric src id in
          let server_end = make_endpoint fabric dst id in
          client_end.peer <- Some server_end;
          server_end.peer <- Some client_end;
          (* SYN-ACK: accept fires on the server now, the client learns after
             the return trip. *)
          l.l_on_accept server_end;
          Fabric.transmit fabric ~src:dst ~dst:src ~size:syn_size
            ~on_dropped:(fun () -> close_endpoint server_end Peer_crashed)
            (fun () ->
              if not !settled then begin
                settled := true;
                if client_end.open_ then on_connected client_end
              end)
      | Some _ | None ->
          (* RST *)
          Fabric.transmit fabric ~src:dst ~dst:src ~size:syn_size ~on_dropped:fail
            (fun () -> fail ()))
