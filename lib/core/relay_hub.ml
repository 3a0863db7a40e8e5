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

type t = {
  by_conn : (int, Proto.Types.member_id) Hashtbl.t; (* control conn id -> relay *)
  by_id : (Proto.Types.member_id, Net.Tcp.conn) Hashtbl.t; (* relay -> control conn *)
  proxied : (int, Net.Tcp.conn) Hashtbl.t; (* proxied conn id -> its relay's control conn *)
  seen : (int, unit) Hashtbl.t; (* scratch: per-fan-out relay dedup *)
  hb_direct : Net.Tcp.batch; (* split scratch, refilled per fan-out *)
  hb_control : Net.Tcp.batch;
}

let create () =
  {
    by_conn = Hashtbl.create 8;
    by_id = Hashtbl.create 8;
    proxied = Hashtbl.create 64;
    seen = Hashtbl.create 8;
    hb_direct = Net.Tcp.batch_create ();
    hb_control = Net.Tcp.batch_create ();
  }

let register t ~relay ~conn =
  Hashtbl.replace t.by_conn (Net.Tcp.id conn) relay;
  Hashtbl.replace t.by_id relay conn

(* Mark [conn] as one member's traffic proxied by [relay]. An unknown relay
   id (its control registration lost, or its control connection closed)
   leaves the connection direct — flat fan-out over the proxied connection
   still reaches the member. *)
let register_proxy t ~relay ~conn =
  match Hashtbl.find_opt t.by_id relay with
  | Some control -> Hashtbl.replace t.proxied (Net.Tcp.id conn) control
  | None -> ()

(* Unhook a closing connection. A relay whose control connection closed is
   forgotten; proxied connections it still owns fall back to direct sends
   until they close themselves. *)
let conn_closed t conn =
  let id = Net.Tcp.id conn in
  (match Hashtbl.find_opt t.by_conn id with
  | Some relay ->
      Hashtbl.remove t.by_conn id;
      Hashtbl.remove t.by_id relay
  | None -> ());
  Hashtbl.remove t.proxied id

(* Partition the caller's recipient batch into the hub's two scratch
   batches: proxied connections collapse to their relay's control connection
   (deduped via the [seen] scratch table, and only while that control
   connection is open — otherwise the proxied connection stays direct as a
   degraded fallback). Order within each class follows the batch order. *)
let split_batch t batch =
  Net.Tcp.batch_clear t.hb_direct;
  Net.Tcp.batch_clear t.hb_control;
  Hashtbl.reset t.seen;
  let n = Net.Tcp.batch_length batch in
  for i = 0 to n - 1 do
    let conn = Net.Tcp.batch_get batch i in
    match Hashtbl.find_opt t.proxied (Net.Tcp.id conn) with
    | Some control when Net.Tcp.is_open control ->
        let cid = Net.Tcp.id control in
        if not (Hashtbl.mem t.seen cid) then begin
          Hashtbl.replace t.seen cid ();
          Net.Tcp.batch_add t.hb_control control
        end
    | Some _ | None -> Net.Tcp.batch_add t.hb_direct conn
  done
[@@corona.hot]

type delivered = {
  d_direct : int; (* point-to-point recipients *)
  d_frames : int; (* relay control frames (≤ relay count) *)
}

let no_delivery = { d_direct = 0; d_frames = 0 }

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
    let d_direct = Net.Tcp.batch_length direct in
    M.send_batch_encoded direct e;
    if n_controls = 0 then { d_direct; d_frames = 0 }
    else begin
      let ef = M.pre_encode_relay_fanout ~group ?exclude ~inner ~inner_enc:e () in
      M.send_batch_encoded t.hb_control ef;
      { d_direct; d_frames = n_controls }
    end
  end
[@@corona.hot]
