type request =
  | Create_group of {
      group : Types.group_id;
      creator : Types.member_id;
      persistent : bool;
      initial : (Types.object_id * string) list;
    }
  | Delete_group of { group : Types.group_id; requester : Types.member_id }
  | Join of {
      group : Types.group_id;
      member : Types.member_id;
      role : Types.role;
      transfer : Types.transfer_spec;
      notify : bool;
    }
  | Leave of { group : Types.group_id; member : Types.member_id }
  | Get_membership of { group : Types.group_id }
  | Bcast of {
      group : Types.group_id;
      sender : Types.member_id;
      kind : Types.update_kind;
      obj : Types.object_id;
      data : string;
      mode : Types.delivery_mode;
    }
  | Acquire_lock of {
      group : Types.group_id;
      lock : Types.lock_id;
      member : Types.member_id;
    }
  | Release_lock of {
      group : Types.group_id;
      lock : Types.lock_id;
      member : Types.member_id;
    }
  | Reduce_log of { group : Types.group_id; member : Types.member_id }
  | Resend of {
      group : Types.group_id;
      member : Types.member_id;
      updates : Types.update list;
    }
  | Ping of { nonce : int }
  | Relay_register of { relay : Types.member_id }
      (* opens a relay's control connection: fan-out frames for the relay's
         members arrive here *)
  | Relay_proxy of { relay : Types.member_id }
      (* first message on a proxied upstream connection: everything after it
         is one member's traffic passed through verbatim by [relay] *)
  | Relay_heartbeat of { relay : Types.member_id; members : int }

type join_state =
  | Snapshot of {
      objects : (Types.object_id * string) list;
      log_tail : Types.update list;
    }
  | Update_history of Types.update list

type response =
  | Group_created of { group : Types.group_id }
  | State_chunk of {
      group : Types.group_id;
      objects : (Types.object_id * string) list;
      index : int;
      more : bool;
    }
  | Group_deleted of { group : Types.group_id }
  | Join_accepted of {
      group : Types.group_id;
      at_seqno : int;
      state : join_state;
      members : Types.member list;
      multicast : bool;
    }
  | Left of { group : Types.group_id }
  | Membership_info of { group : Types.group_id; members : Types.member list }
  | Membership_changed of {
      group : Types.group_id;
      change : Types.membership_change;
      members : Types.member list;
    }
  | Deliver of Types.update
  | Lock_granted of { group : Types.group_id; lock : Types.lock_id }
  | Lock_busy of {
      group : Types.group_id;
      lock : Types.lock_id;
      holder : Types.member_id;
    }
  | Lock_released of { group : Types.group_id; lock : Types.lock_id }
  | Log_reduced of { group : Types.group_id; upto : int }
  | Request_failed of { group : Types.group_id; reason : string }
  | Resend_request of { group : Types.group_id; from_seqno : int }
  | Pong of { nonce : int }
  | Shard_deliver of { shard : int; update : Types.update }
      (* shard-stamped broadcast: [update.seqno] counts within [shard]'s
         stream, not the group-wide one *)
  | Shard_view of {
      group : Types.group_id;
      bar : int;
      vector : int list; (* per-shard stream positions the barrier stamped *)
      op : string; (* rendered cross-shard operation descriptor *)
    }
  | Shard_joined of { group : Types.group_id; vector : int list }
      (* per-shard baseline of the snapshot a sharded join was served from *)
  | Relay_registered of { relay : Types.member_id; index : int }
  | Relay_fanout of {
      group : Types.group_id;
      exclude : Types.member_id option;
      inner : response;
    }
      (* one frame per relay carrying the response every member of [group]
         behind that relay must receive; the relay re-fans [inner] locally,
         skipping [exclude] (a sender-exclusive broadcast's sender) *)
  | Relay_slice of { relay : Types.member_id; lo : int; hi : int }
      (* slice assignment/handoff notice: [relay] now fronts the canonical
         slices [lo, hi) of the relay-index partition (at registration its
         own index; after a sibling crash, the dead relay's too) *)

type t = Request of request | Response of response

type Net.Payload.t += Corona of t

(* --- encoding ------------------------------------------------------- *)

module W = Codec.Writer
module R = Codec.Reader

let enc_role w = function
  | Types.Principal -> W.u8 w 0
  | Types.Observer -> W.u8 w 1

let dec_role r =
  match R.u8 r with
  | 0 -> Types.Principal
  | 1 -> Types.Observer
  | n -> raise (R.Malformed (Printf.sprintf "role tag %d" n))

let enc_kind w = function
  | Types.Set_state -> W.u8 w 0
  | Types.Append_update -> W.u8 w 1

let dec_kind r =
  match R.u8 r with
  | 0 -> Types.Set_state
  | 1 -> Types.Append_update
  | n -> raise (R.Malformed (Printf.sprintf "update kind tag %d" n))

let enc_mode w = function
  | Types.Sender_inclusive -> W.u8 w 0
  | Types.Sender_exclusive -> W.u8 w 1

let dec_mode r =
  match R.u8 r with
  | 0 -> Types.Sender_inclusive
  | 1 -> Types.Sender_exclusive
  | n -> raise (R.Malformed (Printf.sprintf "delivery mode tag %d" n))

let enc_transfer w = function
  | Types.Full_state -> W.u8 w 0
  | Types.Latest_updates n ->
      W.u8 w 1;
      W.u32 w n
  | Types.Objects objs ->
      W.u8 w 2;
      W.list w W.string objs
  | Types.No_state -> W.u8 w 3
  | Types.Updates_since n ->
      W.u8 w 4;
      W.int_as_i64 w n

let dec_transfer r =
  match R.u8 r with
  | 0 -> Types.Full_state
  | 1 -> Types.Latest_updates (R.u32 r)
  | 2 -> Types.Objects (R.list r R.string)
  | 3 -> Types.No_state
  | 4 -> Types.Updates_since (R.int_as_i64 r)
  | n -> raise (R.Malformed (Printf.sprintf "transfer tag %d" n))

let enc_member w (m : Types.member) =
  W.string w m.member;
  enc_role w m.role

let dec_member r : Types.member =
  let member = R.string r in
  let role = dec_role r in
  { member; role }

let enc_pair w (k, v) =
  W.string w k;
  W.string w v

let dec_pair r =
  let k = R.string r in
  let v = R.string r in
  (k, v)

let enc_update w (u : Types.update) =
  W.int_as_i64 w u.seqno;
  W.string w u.group;
  enc_kind w u.kind;
  W.string w u.obj;
  W.string w u.data;
  W.string w u.sender;
  W.f64 w u.timestamp

let dec_update r : Types.update =
  let seqno = R.int_as_i64 r in
  let group = R.string r in
  let kind = dec_kind r in
  let obj = R.string r in
  let data = R.string r in
  let sender = R.string r in
  let timestamp = R.f64 r in
  { seqno; group; kind; obj; data; sender; timestamp }

let enc_change w = function
  | Types.Member_joined m ->
      W.u8 w 0;
      W.string w m
  | Types.Member_left m ->
      W.u8 w 1;
      W.string w m
  | Types.Member_crashed m ->
      W.u8 w 2;
      W.string w m

let dec_change r =
  let tag = R.u8 r in
  let m = R.string r in
  match tag with
  | 0 -> Types.Member_joined m
  | 1 -> Types.Member_left m
  | 2 -> Types.Member_crashed m
  | n -> raise (R.Malformed (Printf.sprintf "membership change tag %d" n))

let enc_join_state w = function
  | Snapshot { objects; log_tail } ->
      W.u8 w 0;
      W.list w enc_pair objects;
      W.list w enc_update log_tail
  | Update_history updates ->
      W.u8 w 1;
      W.list w enc_update updates

let dec_join_state r =
  match R.u8 r with
  | 0 ->
      let objects = R.list r dec_pair in
      let log_tail = R.list r dec_update in
      Snapshot { objects; log_tail }
  | 1 -> Update_history (R.list r dec_update)
  | n -> raise (R.Malformed (Printf.sprintf "join state tag %d" n))

let enc_request w = function
  | Create_group { group; creator; persistent; initial } ->
      W.u8 w 0;
      W.string w group;
      W.string w creator;
      W.bool w persistent;
      W.list w enc_pair initial
  | Delete_group { group; requester } ->
      W.u8 w 1;
      W.string w group;
      W.string w requester
  | Join { group; member; role; transfer; notify } ->
      W.u8 w 2;
      W.string w group;
      W.string w member;
      enc_role w role;
      enc_transfer w transfer;
      W.bool w notify
  | Leave { group; member } ->
      W.u8 w 3;
      W.string w group;
      W.string w member
  | Get_membership { group } ->
      W.u8 w 4;
      W.string w group
  | Bcast { group; sender; kind; obj; data; mode } ->
      W.u8 w 5;
      W.string w group;
      W.string w sender;
      enc_kind w kind;
      W.string w obj;
      W.string w data;
      enc_mode w mode
  | Acquire_lock { group; lock; member } ->
      W.u8 w 6;
      W.string w group;
      W.string w lock;
      W.string w member
  | Release_lock { group; lock; member } ->
      W.u8 w 7;
      W.string w group;
      W.string w lock;
      W.string w member
  | Reduce_log { group; member } ->
      W.u8 w 8;
      W.string w group;
      W.string w member
  | Ping { nonce } ->
      W.u8 w 9;
      W.int_as_i64 w nonce
  | Resend { group; member; updates } ->
      W.u8 w 10;
      W.string w group;
      W.string w member;
      W.list w enc_update updates
  | Relay_register { relay } ->
      W.u8 w 11;
      W.string w relay
  | Relay_proxy { relay } ->
      W.u8 w 12;
      W.string w relay
  | Relay_heartbeat { relay; members } ->
      W.u8 w 13;
      W.string w relay;
      W.u32 w members

let dec_request r =
  match R.u8 r with
  | 0 ->
      let group = R.string r in
      let creator = R.string r in
      let persistent = R.bool r in
      let initial = R.list r dec_pair in
      Create_group { group; creator; persistent; initial }
  | 1 ->
      let group = R.string r in
      let requester = R.string r in
      Delete_group { group; requester }
  | 2 ->
      let group = R.string r in
      let member = R.string r in
      let role = dec_role r in
      let transfer = dec_transfer r in
      let notify = R.bool r in
      Join { group; member; role; transfer; notify }
  | 3 ->
      let group = R.string r in
      let member = R.string r in
      Leave { group; member }
  | 4 -> Get_membership { group = R.string r }
  | 5 ->
      let group = R.string r in
      let sender = R.string r in
      let kind = dec_kind r in
      let obj = R.string r in
      let data = R.string r in
      let mode = dec_mode r in
      Bcast { group; sender; kind; obj; data; mode }
  | 6 ->
      let group = R.string r in
      let lock = R.string r in
      let member = R.string r in
      Acquire_lock { group; lock; member }
  | 7 ->
      let group = R.string r in
      let lock = R.string r in
      let member = R.string r in
      Release_lock { group; lock; member }
  | 8 ->
      let group = R.string r in
      let member = R.string r in
      Reduce_log { group; member }
  | 9 -> Ping { nonce = R.int_as_i64 r }
  | 10 ->
      let group = R.string r in
      let member = R.string r in
      let updates = R.list r dec_update in
      Resend { group; member; updates }
  | 11 -> Relay_register { relay = R.string r }
  | 12 -> Relay_proxy { relay = R.string r }
  | 13 ->
      let relay = R.string r in
      let members = R.u32 r in
      Relay_heartbeat { relay; members }
  | n -> raise (R.Malformed (Printf.sprintf "request tag %d" n))

(* A [Relay_fanout] response up to its embedded inner response; shared
   with [pre_encode_relay_fanout], which appends the inner bytes itself. *)
let enc_relay_head w group exclude =
  W.u8 w 19;
  W.string w group;
  match exclude with
  | None -> W.bool w false
  | Some m ->
      W.bool w true;
      W.string w m

(* [rec]: [Relay_fanout] embeds the relayed response verbatim. *)
let rec enc_response w = function
  | Group_created { group } ->
      W.u8 w 0;
      W.string w group
  | State_chunk { group; objects; index; more } ->
      W.u8 w 13;
      W.string w group;
      W.list w enc_pair objects;
      W.int_as_i64 w index;
      W.bool w more
  | Group_deleted { group } ->
      W.u8 w 1;
      W.string w group
  | Join_accepted { group; at_seqno; state; members; multicast } ->
      W.u8 w 2;
      W.string w group;
      W.int_as_i64 w at_seqno;
      enc_join_state w state;
      W.list w enc_member members;
      W.bool w multicast
  | Left { group } ->
      W.u8 w 3;
      W.string w group
  | Membership_info { group; members } ->
      W.u8 w 4;
      W.string w group;
      W.list w enc_member members
  | Membership_changed { group; change; members } ->
      W.u8 w 5;
      W.string w group;
      enc_change w change;
      W.list w enc_member members
  | Deliver u ->
      W.u8 w 6;
      enc_update w u
  | Lock_granted { group; lock } ->
      W.u8 w 7;
      W.string w group;
      W.string w lock
  | Lock_busy { group; lock; holder } ->
      W.u8 w 8;
      W.string w group;
      W.string w lock;
      W.string w holder
  | Lock_released { group; lock } ->
      W.u8 w 9;
      W.string w group;
      W.string w lock
  | Log_reduced { group; upto } ->
      W.u8 w 10;
      W.string w group;
      W.int_as_i64 w upto
  | Request_failed { group; reason } ->
      W.u8 w 11;
      W.string w group;
      W.string w reason
  | Pong { nonce } ->
      W.u8 w 12;
      W.int_as_i64 w nonce
  | Resend_request { group; from_seqno } ->
      W.u8 w 14;
      W.string w group;
      W.int_as_i64 w from_seqno
  | Shard_deliver { shard; update } ->
      W.u8 w 15;
      W.u32 w shard;
      enc_update w update
  | Shard_view { group; bar; vector; op } ->
      W.u8 w 16;
      W.string w group;
      W.int_as_i64 w bar;
      W.list w W.int_as_i64 vector;
      W.string w op
  | Shard_joined { group; vector } ->
      W.u8 w 17;
      W.string w group;
      W.list w W.int_as_i64 vector
  | Relay_registered { relay; index } ->
      W.u8 w 18;
      W.string w relay;
      W.u32 w index
  | Relay_fanout { group; exclude; inner } ->
      enc_relay_head w group exclude;
      enc_response w inner
  | Relay_slice { relay; lo; hi } ->
      W.u8 w 20;
      W.string w relay;
      W.u32 w lo;
      W.u32 w hi

let rec dec_response r =
  match R.u8 r with
  | 0 -> Group_created { group = R.string r }
  | 1 -> Group_deleted { group = R.string r }
  | 2 ->
      let group = R.string r in
      let at_seqno = R.int_as_i64 r in
      let state = dec_join_state r in
      let members = R.list r dec_member in
      let multicast = R.bool r in
      Join_accepted { group; at_seqno; state; members; multicast }
  | 3 -> Left { group = R.string r }
  | 4 ->
      let group = R.string r in
      let members = R.list r dec_member in
      Membership_info { group; members }
  | 5 ->
      let group = R.string r in
      let change = dec_change r in
      let members = R.list r dec_member in
      Membership_changed { group; change; members }
  | 6 -> Deliver (dec_update r)
  | 7 ->
      let group = R.string r in
      let lock = R.string r in
      Lock_granted { group; lock }
  | 8 ->
      let group = R.string r in
      let lock = R.string r in
      let holder = R.string r in
      Lock_busy { group; lock; holder }
  | 9 ->
      let group = R.string r in
      let lock = R.string r in
      Lock_released { group; lock }
  | 10 ->
      let group = R.string r in
      let upto = R.int_as_i64 r in
      Log_reduced { group; upto }
  | 11 ->
      let group = R.string r in
      let reason = R.string r in
      Request_failed { group; reason }
  | 12 -> Pong { nonce = R.int_as_i64 r }
  | 13 ->
      let group = R.string r in
      let objects = R.list r dec_pair in
      let index = R.int_as_i64 r in
      let more = R.bool r in
      State_chunk { group; objects; index; more }
  | 14 ->
      let group = R.string r in
      let from_seqno = R.int_as_i64 r in
      Resend_request { group; from_seqno }
  | 15 ->
      let shard = R.u32 r in
      let update = dec_update r in
      Shard_deliver { shard; update }
  | 16 ->
      let group = R.string r in
      let bar = R.int_as_i64 r in
      let vector = R.list r R.int_as_i64 in
      let op = R.string r in
      Shard_view { group; bar; vector; op }
  | 17 ->
      let group = R.string r in
      let vector = R.list r R.int_as_i64 in
      Shard_joined { group; vector }
  | 18 ->
      let relay = R.string r in
      let index = R.u32 r in
      Relay_registered { relay; index }
  | 19 ->
      let group = R.string r in
      let exclude = if R.bool r then Some (R.string r) else None in
      let inner = dec_response r in
      Relay_fanout { group; exclude; inner }
  | 20 ->
      let relay = R.string r in
      let lo = R.u32 r in
      let hi = R.u32 r in
      Relay_slice { relay; lo; hi }
  | n -> raise (R.Malformed (Printf.sprintf "response tag %d" n))

(* Serializations of whole messages, for the bench's encodes-per-bcast
   counter: an encode-once fan-out performs exactly one regardless of how
   many recipients the message reaches. *)
let encodes = ref 0

let encode_count () = !encodes

let reset_encode_count () = encodes := 0

let encode_body w = function
  | Request req ->
      W.u8 w 0;
      enc_request w req
  | Response resp ->
      W.u8 w 1;
      enc_response w resp

let encode w t =
  incr encodes;
  encode_body w t

let decode r =
  match R.u8 r with
  | 0 -> Request (dec_request r)
  | 1 -> Response (dec_response r)
  | n -> raise (R.Malformed (Printf.sprintf "message tag %d" n))

let frame_header_size = 8

(* A message serialized exactly once. Client frames are charged by size
   alone — the fabric carries the OCaml message — so an encoding runs the
   encoder against a sizing writer and keeps only the length: O(fields),
   whatever the payload weighs. The bytes are rebuilt on demand by
   [encoded_bytes] (tests, goldens, peeks), by the same encoder, so they
   can never disagree with the size. [encoded_wire_size] is derived from
   the stored length, never recomputed — every fan-out path shares one
   [encoded] value across all recipients. *)
type encoded = { e_msg : t; e_len : int }

let pre_encode msg =
  let w = Codec.Writer.create_sizing () in
  encode w msg;
  { e_msg = msg; e_len = Codec.Writer.size w }

(* Relay fan-out splicing: the root serializes the inner response once
   (shared with any direct recipients via [pre_encode]) and wraps it in one
   [Relay_fanout] frame per relay — the frame itself is then shared across
   every relay control connection by [send_batch_encoded], so a broadcast
   costs the root O(relays) transmits and exactly two encodes however many
   members sit behind the tier. The frame is sized from [inner_enc]'s
   length, and equals [pre_encode (Response (Relay_fanout ...))] — pinned
   by a golden test. *)
let pre_encode_relay_fanout ~group ?exclude ~inner ~inner_enc () =
  incr encodes;
  let w = Codec.Writer.create_sizing () in
  W.u8 w 1 (* Response *);
  enc_relay_head w group exclude;
  (* [inner_enc] is [pre_encode (Response inner)]: its body minus the
     leading message tag byte is the bare [enc_response] *)
  {
    e_msg = Response (Relay_fanout { group; exclude; inner });
    e_len = Codec.Writer.size w + inner_enc.e_len - 1;
  }

(* --- cross-shard barrier frames ----------------------------------------- *)

(* Durable representation of a shard-barrier record: the coordinator
   journals one [Prepare] frame when it opens a barrier and one [Commit]
   frame when the vector is complete. The check harness decodes the journal
   back to verify barrier consistency (same bar -> same vector, vectors
   monotone per group), so the byte format is pinned by golden tests like
   the client frames above. *)
type barrier_phase = Prepare | Commit

type barrier_frame = {
  bf_bar : int;
  bf_group : Types.group_id;
  bf_phase : barrier_phase;
  bf_vector : int list; (* empty at [Prepare]: slots are not yet known *)
  bf_op : string;
}

let encode_barrier_frame f =
  let w = Codec.Writer.create () in
  W.int_as_i64 w f.bf_bar;
  W.string w f.bf_group;
  W.u8 w (match f.bf_phase with Prepare -> 0 | Commit -> 1);
  W.list w W.int_as_i64 f.bf_vector;
  W.string w f.bf_op;
  Codec.Writer.contents w

let decode_barrier_frame s =
  let r = R.of_string s in
  let bf_bar = R.int_as_i64 r in
  let bf_group = R.string r in
  let bf_phase =
    match R.u8 r with
    | 0 -> Prepare
    | 1 -> Commit
    | n -> raise (R.Malformed (Printf.sprintf "barrier phase tag %d" n))
  in
  let bf_vector = R.list r R.int_as_i64 in
  let bf_op = R.string r in
  { bf_bar; bf_group; bf_phase; bf_vector; bf_op }

let encoded_message e = e.e_msg

(* Rebuild the bytes of an encoding. Not counted in [encode_count]: the
   logical message was serialized (sized) once already. *)
let encoded_bytes e =
  let w = Codec.Writer.create ~initial_capacity:e.e_len () in
  encode_body w e.e_msg;
  Codec.Writer.contents w

let encoded_wire_size e = frame_header_size + e.e_len

let wire_size t = frame_header_size + Codec.encoded_size encode t

let send conn t = Net.Tcp.send conn ~size:(wire_size t) (Corona t)

let send_encoded conn e = Net.Tcp.send conn ~size:(encoded_wire_size e) (Corona e.e_msg)

let send_batch_encoded conns e =
  Net.Tcp.send_batch conns ~size:(encoded_wire_size e) (Corona e.e_msg)

let send_batch_encoded_buf b e =
  Net.Tcp.send_batch_buf b ~size:(encoded_wire_size e) (Corona e.e_msg)

(* --- fixed-offset header peeks ------------------------------------------ *)

(* The decode-side twin of the encode splices: routing layers that need
   only the message family, the group, or the stream position read them at
   pinned offsets instead of materializing the whole record. The offsets
   are fixed by the codec — byte 0 is the Request/Response discriminant,
   byte 1 the constructor tag, and every group-bearing message opens its
   body with the group string, except [Deliver] (seqno first, group at
   offset 10) and [Shard_deliver] (shard then seqno, group at offset 14).
   Agreement with full decodes is property-tested over the golden corpus
   in test_proto. *)

type peeked = Peek_request of int | Peek_response of int

let peek_kind s =
  if String.length s < 2 then raise Codec.Reader.Truncated;
  match Char.code s.[0] with
  | 0 -> Peek_request (Char.code s.[1])
  | 1 -> Peek_response (Char.code s.[1])
  | n -> raise (R.Malformed (Printf.sprintf "message tag %d" n))

(* Offset of the group string's u32 length prefix, per constructor. *)
let group_offset = function
  | Peek_request (0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 10) -> 2
  | Peek_request _ -> -1
  | Peek_response (0 | 1 | 2 | 3 | 4 | 5 | 7 | 8 | 9 | 10 | 11 | 13 | 14 | 16 | 17 | 19) -> 2
  | Peek_response 6 -> 10 (* Deliver: i64 seqno first *)
  | Peek_response 15 -> 14 (* Shard_deliver: u32 shard, i64 seqno first *)
  | Peek_response _ -> -1

let u32_at s off =
  if off + 4 > String.length s then raise Codec.Reader.Truncated;
  let hi = String.get_uint16_be s off in
  let lo = String.get_uint16_be s (off + 2) in
  (hi lsl 16) lor lo

let peek_group s =
  let off = group_offset (peek_kind s) in
  if off < 0 then None
  else begin
    let n = u32_at s off in
    if off + 4 + n > String.length s then raise Codec.Reader.Truncated;
    Some (String.sub s (off + 4) n)
  end

let i64_at s off =
  if off + 8 > String.length s then raise Codec.Reader.Truncated;
  Int64.to_int (String.get_int64_be s off)

let peek_seqno s =
  match peek_kind s with
  | Peek_response 6 -> Some (i64_at s 2)
  | Peek_response 15 -> Some (i64_at s 6)
  | _ -> None

let rec pp ppf t =
  match t with
  | Request (Create_group { group; creator; persistent; initial }) ->
      Format.fprintf ppf "create_group %s by %s persistent=%b objects=%d" group
        creator persistent (List.length initial)
  | Request (Delete_group { group; requester }) ->
      Format.fprintf ppf "delete_group %s by %s" group requester
  | Request (Join { group; member; role; _ }) ->
      Format.fprintf ppf "join %s %s as %a" group member Types.pp_role role
  | Request (Leave { group; member }) -> Format.fprintf ppf "leave %s %s" group member
  | Request (Get_membership { group }) -> Format.fprintf ppf "get_membership %s" group
  | Request (Bcast { group; sender; kind; obj; data; _ }) ->
      Format.fprintf ppf "bcast %s %a %s/%s (%d bytes)" group
        Types.pp_update_kind kind sender obj (String.length data)
  | Request (Acquire_lock { group; lock; member }) ->
      Format.fprintf ppf "acquire_lock %s/%s by %s" group lock member
  | Request (Release_lock { group; lock; member }) ->
      Format.fprintf ppf "release_lock %s/%s by %s" group lock member
  | Request (Reduce_log { group; member }) ->
      Format.fprintf ppf "reduce_log %s by %s" group member
  | Request (Ping { nonce }) -> Format.fprintf ppf "ping %d" nonce
  | Request (Resend { group; member; updates }) ->
      Format.fprintf ppf "resend %s by %s (%d updates)" group member
        (List.length updates)
  | Response (Group_created { group }) -> Format.fprintf ppf "group_created %s" group
  | Response (State_chunk { group; objects; index; more }) ->
      Format.fprintf ppf "state_chunk %s #%d objects=%d more=%b" group index
        (List.length objects) more
  | Response (Group_deleted { group }) -> Format.fprintf ppf "group_deleted %s" group
  | Response (Join_accepted { group; at_seqno; members; _ }) ->
      Format.fprintf ppf "join_accepted %s at=%d members=%d" group at_seqno
        (List.length members)
  | Response (Left { group }) -> Format.fprintf ppf "left %s" group
  | Response (Membership_info { group; members }) ->
      Format.fprintf ppf "membership %s [%a]" group
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Types.pp_member)
        members
  | Response (Membership_changed { group; change; _ }) ->
      Format.fprintf ppf "membership_changed %s %a" group
        Types.pp_membership_change change
  | Response (Deliver u) -> Format.fprintf ppf "deliver %a" Types.pp_update u
  | Response (Lock_granted { group; lock }) ->
      Format.fprintf ppf "lock_granted %s/%s" group lock
  | Response (Lock_busy { group; lock; holder }) ->
      Format.fprintf ppf "lock_busy %s/%s held_by=%s" group lock holder
  | Response (Lock_released { group; lock }) ->
      Format.fprintf ppf "lock_released %s/%s" group lock
  | Response (Log_reduced { group; upto }) ->
      Format.fprintf ppf "log_reduced %s upto=%d" group upto
  | Response (Request_failed { group; reason }) ->
      Format.fprintf ppf "request_failed %s: %s" group reason
  | Response (Resend_request { group; from_seqno }) ->
      Format.fprintf ppf "resend_request %s from=%d" group from_seqno
  | Response (Pong { nonce }) -> Format.fprintf ppf "pong %d" nonce
  | Response (Shard_deliver { shard; update }) ->
      Format.fprintf ppf "shard_deliver s%d %a" shard Types.pp_update update
  | Response (Shard_view { group; bar; vector; op }) ->
      Format.fprintf ppf "shard_view %s bar=%d [%s] %s" group bar
        (String.concat ";" (List.map string_of_int vector))
        op
  | Response (Shard_joined { group; vector }) ->
      Format.fprintf ppf "shard_joined %s [%s]" group
        (String.concat ";" (List.map string_of_int vector))
  | Request (Relay_register { relay }) ->
      Format.fprintf ppf "relay_register %s" relay
  | Request (Relay_proxy { relay }) -> Format.fprintf ppf "relay_proxy %s" relay
  | Request (Relay_heartbeat { relay; members }) ->
      Format.fprintf ppf "relay_heartbeat %s members=%d" relay members
  | Response (Relay_registered { relay; index }) ->
      Format.fprintf ppf "relay_registered %s #%d" relay index
  | Response (Relay_fanout { group; exclude; inner }) ->
      Format.fprintf ppf "relay_fanout %s%s [%a]" group
        (match exclude with None -> "" | Some m -> " -" ^ m)
        pp (Response inner)
  | Response (Relay_slice { relay; lo; hi }) ->
      Format.fprintf ppf "relay_slice %s [%d,%d)" relay lo hi
