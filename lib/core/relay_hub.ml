(* Root-side registry of the relay dissemination tier (shared by the single
   server and the replicated node). Two kinds of connection arrive from a
   relay: one control connection ([Relay_register]) that fan-out frames are
   sent on, and one proxied upstream connection per member ([Relay_proxy])
   that carries that member's ordinary request/reply traffic verbatim.

   The hub's job on the fan-out path: partition a recipient connection list
   into direct connections (kept on the classic shared-frame path) and
   proxied connections, collapsing the latter to one [Relay_fanout] frame
   per owning relay — the root's per-broadcast transmit count drops from
   O(members) to O(relays). *)

module M = Proto.Message

type relay = {
  r_id : Proto.Types.member_id;
  r_conn : Net.Tcp.conn; (* control connection *)
  r_index : int; (* registration order: the relay's canonical slice *)
  mutable r_last_heartbeat : float;
  mutable r_members : int; (* self-reported via Relay_heartbeat *)
}

type t = {
  by_conn : (int, relay) Hashtbl.t; (* control conn id -> relay *)
  proxied : (int, relay) Hashtbl.t; (* proxied conn id -> owning relay *)
  by_id : (Proto.Types.member_id, relay) Hashtbl.t;
  mutable order : relay list; (* ascending registration order *)
  mutable next_index : int;
  mutable frames_sent : int;
  seen : (int, unit) Hashtbl.t; (* scratch: per-fan-out relay dedup *)
  hb_direct : Net.Tcp.batch; (* split scratch, refilled per fan-out *)
  hb_control : Net.Tcp.batch;
}

let create () =
  {
    by_conn = Hashtbl.create 8;
    proxied = Hashtbl.create 64;
    by_id = Hashtbl.create 8;
    order = [];
    next_index = 0;
    frames_sent = 0;
    seen = Hashtbl.create 8;
    hb_direct = Net.Tcp.batch_create ();
    hb_control = Net.Tcp.batch_create ();
  }

let register t ~relay ~conn ~at =
  let r =
    {
      r_id = relay;
      r_conn = conn;
      r_index = t.next_index;
      r_last_heartbeat = at;
      r_members = 0;
    }
  in
  t.next_index <- t.next_index + 1;
  Hashtbl.replace t.by_conn (Net.Tcp.id conn) r;
  Hashtbl.replace t.by_id relay r;
  t.order <- t.order @ [ r ];
  r

(* Mark [conn] as one member's traffic proxied by [relay]. An unknown relay
   id (its control registration lost) leaves the connection direct — flat
   fan-out over the proxied connection still reaches the member. *)
let register_proxy t ~relay ~conn =
  match Hashtbl.find_opt t.by_id relay with
  | Some r -> Hashtbl.replace t.proxied (Net.Tcp.id conn) r
  | None -> ()

let find t relay = Hashtbl.find_opt t.by_id relay

let heartbeat t ~relay ~members ~at =
  match Hashtbl.find_opt t.by_id relay with
  | Some r ->
      r.r_last_heartbeat <- at;
      r.r_members <- members
  | None -> ()

let relay_count t = Hashtbl.length t.by_conn

let frames_sent t = t.frames_sent

let relays t = t.order

let alive t = List.filter (fun r -> Net.Tcp.is_open r.r_conn) t.order

(* The relay that adopts a dead sibling's members: next alive relay in
   registration order, wrapping around. *)
let sibling t r =
  match alive t with
  | [] -> None
  | live -> (
      match List.find_opt (fun x -> x.r_index > r.r_index) live with
      | Some x -> Some x
      | None -> ( match live with x :: _ -> Some x | [] -> None))

type closed = Control of relay | Proxied of relay | Not_relay

(* Classify and unhook a closing connection. Control connections stay in
   [by_id]/[order] as dead entries (their index is their identity for
   handoff); proxied entries are dropped. *)
let conn_closed t conn =
  let id = Net.Tcp.id conn in
  match Hashtbl.find_opt t.by_conn id with
  | Some r ->
      Hashtbl.remove t.by_conn id;
      Control r
  | None -> (
      match Hashtbl.find_opt t.proxied id with
      | Some r ->
          Hashtbl.remove t.proxied id;
          Proxied r
      | None -> Not_relay)

(* Partition fan-out recipients: proxied connections collapse to their
   relay's control connection (deduped via the [seen] scratch table, and
   only while that control connection is open — otherwise the proxied
   connection stays direct as a degraded fallback). Order within each class
   follows the input order. *)
let split t conns =
  Hashtbl.reset t.seen;
  let direct, controls =
    List.fold_left
      (fun (direct, controls) conn ->
        match Hashtbl.find_opt t.proxied (Net.Tcp.id conn) with
        | Some r when Net.Tcp.is_open r.r_conn ->
            if Hashtbl.mem t.seen r.r_index then (direct, controls)
            else begin
              Hashtbl.replace t.seen r.r_index ();
              (direct, r.r_conn :: controls)
            end
        | Some _ | None -> (conn :: direct, controls))
      ([], []) conns
  in
  (List.rev direct, List.rev controls)
[@@corona.hot]

(* Batch flavor of [split]: partition the caller's recipient batch into the
   hub's two scratch batches. Same classification and ordering rules. *)
let split_batch t batch =
  Net.Tcp.batch_clear t.hb_direct;
  Net.Tcp.batch_clear t.hb_control;
  Hashtbl.reset t.seen;
  let n = Net.Tcp.batch_length batch in
  for i = 0 to n - 1 do
    let conn = Net.Tcp.batch_get batch i in
    match Hashtbl.find_opt t.proxied (Net.Tcp.id conn) with
    | Some r when Net.Tcp.is_open r.r_conn ->
        if not (Hashtbl.mem t.seen r.r_index) then begin
          Hashtbl.replace t.seen r.r_index ();
          Net.Tcp.batch_add t.hb_control r.r_conn
        end
    | Some _ | None -> Net.Tcp.batch_add t.hb_direct conn
  done
[@@corona.hot]

type delivered = {
  d_direct : int; (* point-to-point recipients *)
  d_frames : int; (* relay control frames (≤ relay count) *)
  d_direct_bytes : int;
  d_frame_bytes : int;
}

let no_delivery =
  { d_direct = 0; d_frames = 0; d_direct_bytes = 0; d_frame_bytes = 0 }

(* Fan [inner] out to the recipient [batch] (consumed by the call): direct
   recipients share one pre-encoded frame exactly as the flat path did;
   every relay with a proxied recipient gets one [Relay_fanout] frame whose
   payload splices the same cached bytes ([pre_encode_relay_fanout]),
   itself shared across all control connections by the batched transmit.
   With no relay tier present this degenerates to the classic
   single-encode single-batch fan-out. *)
let deliver t ~group ?exclude ~inner batch =
  if Net.Tcp.batch_length batch = 0 then no_delivery
  else begin
    let split = Hashtbl.length t.proxied > 0 in
    if split then split_batch t batch;
    let direct = if split then t.hb_direct else batch in
    let n_controls = if split then Net.Tcp.batch_length t.hb_control else 0 in
    let e = M.pre_encode (M.Response inner) in
    let wire = M.encoded_wire_size e in
    let d_direct = Net.Tcp.batch_length direct in
    M.send_batch_encoded_buf direct e;
    if n_controls = 0 then
      { d_direct; d_frames = 0; d_direct_bytes = d_direct * wire; d_frame_bytes = 0 }
    else begin
      let ef = M.pre_encode_relay_fanout ~group ?exclude ~inner ~inner_enc:e () in
      t.frames_sent <- t.frames_sent + n_controls;
      M.send_batch_encoded_buf t.hb_control ef;
      {
        d_direct;
        d_frames = n_controls;
        d_direct_bytes = d_direct * wire;
        d_frame_bytes = n_controls * M.encoded_wire_size ef;
      }
    end
  end
[@@corona.hot]
