(** Client ↔ server wire protocol.

    Every Corona service of §3.2 appears here: group membership (create /
    delete / join / leave / getMembership plus change notifications), group
    multicast ([Bcast] carrying either flavor and either delivery mode), the
    state log reduction request, and lock-based synchronization. Messages
    have a real binary encoding ({!encode} / {!decode}); {!wire_size} is the
    framed encoded size, which the simulator charges to CPUs, NICs and
    disks. *)

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
      notify : bool;  (** wants membership-change notifications *)
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
      (** sender-assisted crash recovery (§6): the client returns the
          updates, with their original sequence numbers, that the server
          lost with its un-flushed log tail *)
  | Ping of { nonce : int }
  | Relay_register of { relay : Types.member_id }
      (** opens a relay's control connection: the root sends no reply,
          and group fan-outs for members behind this relay arrive here as
          [Relay_fanout] frames *)
  | Relay_proxy of { relay : Types.member_id }
      (** first message on a proxied upstream connection: everything after
          it is one member's traffic, passed through verbatim by [relay] *)

(** State handed to a joining client, shaped by its {!Types.transfer_spec}. *)
type join_state =
  | Snapshot of {
      objects : (Types.object_id * string) list;
      log_tail : Types.update list;
          (** updates since the snapshot point, replayed after the objects *)
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
      (** QoS-adaptive transfer ([11], §5.3): a slice of a large join-state
          transfer, paced so interactive multicasts interleave with it; the
          closing [Join_accepted] carries the remainder and the metadata *)
  | Group_deleted of { group : Types.group_id }
  | Join_accepted of {
      group : Types.group_id;
      at_seqno : int;  (** group sequence number the state reflects *)
      state : join_state;
      members : Types.member list;
      multicast : bool;
          (** deliveries for this group will arrive on the group's
              IP-multicast channel (§5.3 hybrid mode) *)
    }
  | Left of { group : Types.group_id }
  | Membership_info of { group : Types.group_id; members : Types.member list }
  | Membership_changed of {
      group : Types.group_id;
      change : Types.membership_change;
    }
      (** one change, not the member list: a subscriber rebuilds the view
          from its [Join_accepted] list and every change since *)
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
      (** the server noticed a rejoining client is ahead of its recovered
          log and asks for the missing suffix (§6) *)
  | Pong of { nonce : int }
  | Shard_deliver of { shard : int; update : Types.update }
      (** delivery in a sharded group: [update.seqno] counts within shard
          [shard]'s own stream, not a single group-wide sequence *)
  | Shard_view of {
      group : Types.group_id;
      bar : int;
      vector : int list;
      op : string;
    }
      (** a cross-shard barrier fired: the op (a membership view change or a
          lock grant) is stamped with the per-shard positions it interleaves
          at, identical on every replica *)
  | Shard_joined of {
      group : Types.group_id;
      vector : int list;
    }
      (** closes a sharded join: per-shard baseline positions the join-state
          snapshot reflects — the first [Shard_deliver] on shard [s] carries
          seqno [vector.(s)] *)
  | Relay_fanout of {
      group : Types.group_id;
      exclude : Types.member_id option;
      inner : response;
    }
      (** relayed delivery: one frame per relay carrying the response every
          member of [group] behind that relay must receive; the relay
          re-fans [inner] locally, skipping [exclude] (the sender of a
          sender-exclusive broadcast) *)

type t = Request of request | Response of response

type Net.Payload.t += Corona of t
  (** Transport payload constructor used on simulated TCP connections. *)

val encode : Codec.Writer.t -> t -> unit

val decode : Codec.Reader.t -> t
(** @raise Codec.Reader.Malformed on unknown tags. *)

type encoded
(** A message serialized exactly once: its wire length plus the original
    message. The encode-once invariant: fan-out paths build one [encoded]
    per logical message and share it across every recipient; its wire size
    is derived from the stored length and never recomputed.

    The encoder runs against a sizing writer
    ({!Codec.Writer.create_sizing}): the simulator charges frames by size
    and carries the message itself, so no bytes are built, and
    {!encoded_bytes} rebuilds them on demand with the same encoder. *)

val pre_encode : t -> encoded
(** Serialize now (one sizing encode). *)

val member_size : Types.member -> int
(** Encoded length of one member-list entry, measured by the entry encoder
    {!encode} uses. *)

val members_size : Types.member list -> int
(** Encoded length of a member list: its count prefix plus {!member_size}
    of every entry. Walks the list; {!pre_encode_members} callers that
    keep a member table keep this length instead. *)

val pre_encode_members : response -> members_size:int -> encoded
(** [pre_encode (Response r)] for a [Join_accepted] or [Membership_info]
    [r], without walking its member list: the frame is sized as the
    encoding of every other field plus [members_size], which must be
    {!members_size} of the list (test-pinned for every [join_state] shape).
    O(1) in group size. Counts as one encode in {!encode_count}.
    @raise Invalid_argument for a response that carries no member list. *)

val pre_encode_relay_fanout :
  group:Types.group_id ->
  ?exclude:Types.member_id ->
  inner:response ->
  inner_enc:encoded ->
  unit ->
  encoded
(** Build a [Relay_fanout] frame around [inner_enc] (which must be
    [pre_encode (Response inner)]). Equal to
    [pre_encode (Response (Relay_fanout ...))] (golden-pinned) but performs
    no re-serialization of the inner response: its size comes from
    [inner_enc]'s length. Counts as one encode in {!encode_count}. *)

val encoded_message : encoded -> t

val encoded_bytes : encoded -> string
(** The body bytes (no frame header), rebuilt on demand by re-running the
    encoder (not counted in {!encode_count}). *)

val encoded_wire_size : encoded -> int
(** Framed size, from the stored length — no re-encode. *)

val send_encoded : Net.Tcp.conn -> encoded -> unit
(** Send a pre-encoded message, charging its cached wire size. *)

val send_batch_encoded : Net.Tcp.batch -> encoded -> unit
(** Fan a pre-encoded message out to every open connection of the batch via
    {!Net.Tcp.send_batch}: one batched fabric transmit, one delivery event
    per recipient, charging the cached wire size. The batch is empty after
    the call. *)

val wire_size : t -> int
(** Framed size in bytes: 8-byte frame header + encoded body, measured by
    a sizing encode (counted in {!encode_count}) — on repeated-send paths
    use {!pre_encode} + {!encoded_wire_size} instead. *)

val send : Net.Tcp.conn -> t -> unit
(** Send over a simulated connection, charging {!wire_size} bytes (one
    serialization). For one-shot messages only; fan-outs use
    {!send_encoded}. *)

(** {2 Header peek}

    Byte 0 of every encoded body is the Request/Response discriminant and
    byte 1 the constructor tag, both fixed by the codec, so a reader that
    needs only the message family gets it without a decode. Checked against
    full decodes in test_proto. *)

type peeked = Peek_request of int | Peek_response of int
(** Raw constructor tag, as written on the wire. *)

val peek_kind : string -> peeked
(** @raise Codec.Reader.Truncated or [Malformed] on a short/alien buffer. *)

val encode_count : unit -> int
(** Number of whole-message serializations performed since start — the
    bench's encodes-per-bcast counter. *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable rendering (for traces and tests). *)
