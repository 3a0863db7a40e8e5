(* Tests for the wire protocol: codec primitives, message roundtrips
   (hand-written and property-based over random messages), wire sizes. *)

module T = Proto.Types
module M = Proto.Message
module W = Proto.Codec.Writer
module R = Proto.Codec.Reader

(* --- codec primitives ---------------------------------------------------- *)

let test_primitive_roundtrips () =
  let w = W.create () in
  W.u8 w 200;
  W.u16 w 60_000;
  W.u32 w 4_000_000_000;
  W.i64 w (-123456789L);
  W.f64 w 3.14159;
  W.bool w true;
  W.string w "héllo\x00bytes";
  W.list w W.string [ "a"; "bb"; "" ];
  W.option w W.u8 (Some 7);
  W.option w W.u8 None;
  let r = R.of_string (W.contents w) in
  Alcotest.(check int) "u8" 200 (R.u8 r);
  Alcotest.(check int) "u16" 60_000 (R.u16 r);
  Alcotest.(check int) "u32" 4_000_000_000 (R.u32 r);
  Alcotest.(check int64) "i64" (-123456789L) (R.i64 r);
  Alcotest.(check (float 0.0)) "f64" 3.14159 (R.f64 r);
  Alcotest.(check bool) "bool" true (R.bool r);
  Alcotest.(check string) "string" "héllo\x00bytes" (R.string r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (R.list r R.string);
  Alcotest.(check (option int)) "some" (Some 7) (R.option r R.u8);
  Alcotest.(check (option int)) "none" None (R.option r R.u8);
  Alcotest.(check bool) "fully consumed" true (R.at_end r)

let test_truncated_raises () =
  let r = R.of_string "\x00\x01" in
  Alcotest.check_raises "truncated u32" R.Truncated (fun () -> ignore (R.u32 r))

let test_bad_tag_raises () =
  let r = R.of_string "\x07" in
  (match R.bool r with
  | exception R.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed")

let test_writer_bounds () =
  let w = W.create () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.Writer.u8: out of range")
    (fun () -> W.u8 w 256)

(* --- message roundtrips ---------------------------------------------------- *)

let roundtrip msg =
  let w = W.create () in
  M.encode w msg;
  let decoded = M.decode (R.of_string (W.contents w)) in
  Alcotest.(check bool)
    (Format.asprintf "roundtrip %a" M.pp msg)
    true (decoded = msg)

let sample_update =
  { T.seqno = 9; group = "g"; kind = T.Set_state; obj = "o"; data = "payload";
    sender = "alice"; timestamp = 17.25 }

let append_update =
  { T.seqno = 10; group = "g"; kind = T.Append_update; obj = "q"; data = "+d";
    sender = "bob"; timestamp = 17.5 }

let all_request_samples =
  [
    M.Create_group { group = "g"; creator = "c"; persistent = true;
                     initial = [ ("a", "1"); ("b", "") ] };
    M.Delete_group { group = "g"; requester = "r" };
    M.Join { group = "g"; member = "m"; role = T.Observer;
             transfer = T.Latest_updates 12; notify = false };
    M.Join { group = "g"; member = "m"; role = T.Principal;
             transfer = T.Objects [ "x"; "y" ]; notify = true };
    M.Join { group = "g"; member = "m"; role = T.Principal;
             transfer = T.Full_state; notify = true };
    M.Join { group = "g"; member = "m"; role = T.Principal;
             transfer = T.No_state; notify = true };
    M.Join { group = "g"; member = "m"; role = T.Principal;
             transfer = T.Updates_since 44; notify = true };
    M.Leave { group = "g"; member = "m" };
    M.Get_membership { group = "g" };
    M.Bcast { group = "g"; sender = "s"; kind = T.Append_update; obj = "o";
              data = String.make 100 'z'; mode = T.Sender_exclusive };
    M.Acquire_lock { group = "g"; lock = "l"; member = "m" };
    M.Release_lock { group = "g"; lock = "l"; member = "m" };
    M.Reduce_log { group = "g"; member = "m" };
    M.Ping { nonce = 424242 };
    M.Relay_register { relay = "r1" };
    M.Relay_proxy { relay = "r1" };
  ]

let all_response_samples =
  [
    M.Group_created { group = "g" };
    M.State_chunk { group = "g"; objects = [ ("o", "vvv") ]; index = 3; more = true };
    M.Group_deleted { group = "g" };
    M.Join_accepted
      { group = "g"; at_seqno = 5;
        state = M.Snapshot { objects = [ ("o", "v") ]; log_tail = [ sample_update ] };
        members = [ { T.member = "a"; role = T.Principal } ]; multicast = true };
    M.Join_accepted
      { group = "g"; at_seqno = 0; state = M.Update_history [ sample_update ];
        members = []; multicast = false };
    M.Left { group = "g" };
    M.Membership_info { group = "g"; members = [ { T.member = "a"; role = T.Observer } ] };
    M.Membership_changed { group = "g"; change = T.Member_crashed "b" };
    M.Membership_changed
      { group = "g"; change = T.Member_joined { T.member = "b"; role = T.Observer } };
    M.Deliver sample_update;
    M.Lock_granted { group = "g"; lock = "l" };
    M.Lock_busy { group = "g"; lock = "l"; holder = "h" };
    M.Lock_released { group = "g"; lock = "l" };
    M.Log_reduced { group = "g"; upto = 77 };
    M.Request_failed { group = "g"; reason = "nope" };
    M.Pong { nonce = 1 };
    M.Shard_deliver { shard = 3; update = sample_update };
    M.Shard_view { group = "g"; bar = 1_000_001; vector = [ 4; 0; 7 ]; op = "view joined b" };
    M.Shard_view { group = "g"; bar = 0; vector = []; op = "" };
    M.Shard_joined { group = "g"; vector = [ 2; 5 ] };
    M.Shard_joined { group = "g"; vector = [] };
    M.Relay_fanout { group = "g"; exclude = None; inner = M.Deliver sample_update };
    M.Relay_fanout
      { group = "g"; exclude = Some "s";
        inner =
          M.Membership_changed { group = "g"; change = T.Member_crashed "b" } };
  ]

let test_all_constructors_roundtrip () =
  List.iter (fun r -> roundtrip (M.Request r)) all_request_samples;
  List.iter (fun r -> roundtrip (M.Response r)) all_response_samples

(* --- golden bytes ---------------------------------------------------------
   The hex below was captured from the original Buffer-based codec and pins
   the wire format of every constructor byte-for-byte: any writer or message
   layout change that alters the frames on the wire fails here. *)

let hex_of_string s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let golden_frames : (string * M.t * string) list =
  [
    ( "create_group",
      M.Request
        (M.Create_group
           { group = "g"; creator = "c"; persistent = true;
             initial = [ ("a", "1"); ("b", "") ] }),
      "000000000001670000000163010000000200000001610000000131000000016200000000" );
    ( "delete_group",
      M.Request (M.Delete_group { group = "g"; requester = "r" }),
      "000100000001670000000172" );
    ( "join_latest",
      M.Request
        (M.Join { group = "g"; member = "m"; role = T.Observer;
                  transfer = T.Latest_updates 12; notify = false }),
      "00020000000167000000016d01010000000c00" );
    ( "join_objects",
      M.Request
        (M.Join { group = "g"; member = "m"; role = T.Principal;
                  transfer = T.Objects [ "x"; "y" ]; notify = true }),
      "00020000000167000000016d0002000000020000000178000000017901" );
    ( "join_full",
      M.Request
        (M.Join { group = "g"; member = "m"; role = T.Principal;
                  transfer = T.Full_state; notify = true }),
      "00020000000167000000016d000001" );
    ( "join_nostate",
      M.Request
        (M.Join { group = "g"; member = "m"; role = T.Principal;
                  transfer = T.No_state; notify = true }),
      "00020000000167000000016d000301" );
    ( "join_since",
      M.Request
        (M.Join { group = "g"; member = "m"; role = T.Principal;
                  transfer = T.Updates_since 44; notify = true }),
      "00020000000167000000016d0004000000000000002c01" );
    ( "leave",
      M.Request (M.Leave { group = "g"; member = "m" }),
      "00030000000167000000016d" );
    ("get_membership", M.Request (M.Get_membership { group = "g" }), "00040000000167");
    ( "bcast",
      M.Request
        (M.Bcast { group = "g"; sender = "s"; kind = T.Append_update; obj = "o";
                   data = "zzzz"; mode = T.Sender_exclusive }),
      "00050000000167000000017301000000016f000000047a7a7a7a01" );
    ( "acquire_lock",
      M.Request (M.Acquire_lock { group = "g"; lock = "l"; member = "m" }),
      "00060000000167000000016c000000016d" );
    ( "release_lock",
      M.Request (M.Release_lock { group = "g"; lock = "l"; member = "m" }),
      "00070000000167000000016c000000016d" );
    ( "reduce_log",
      M.Request (M.Reduce_log { group = "g"; member = "m" }),
      "00080000000167000000016d" );
    ( "resend",
      M.Request (M.Resend { group = "g"; member = "m"; updates = [ sample_update ] }),
      "000a0000000167000000016d000000010000000000000009000000016700000000016f0000\
       00077061796c6f616400000005616c6963654031400000000000" );
    (* §6 resend edge payloads: a reconnect with nothing pending, and a
       multi-update backlog mixing Set_state with Append_update *)
    ( "resend_empty",
      M.Request (M.Resend { group = "g"; member = "m"; updates = [] }),
      "000a0000000167000000016d00000000" );
    ( "resend_multi",
      M.Request
        (M.Resend { group = "g"; member = "m"; updates = [ sample_update; append_update ] }),
      "000a0000000167000000016d000000020000000000000009000000016700000000016f0000\
       00077061796c6f616400000005616c6963654031400000000000000000000000000a000000\
       0167010000000171000000022b6400000003626f624031800000000000" );
    ("ping", M.Request (M.Ping { nonce = 424242 }), "00090000000000067932");
    ("group_created", M.Response (M.Group_created { group = "g" }), "01000000000167");
    ( "state_chunk",
      M.Response
        (M.State_chunk { group = "g"; objects = [ ("o", "vvv") ]; index = 3; more = true }),
      "010d000000016700000001000000016f00000003767676000000000000000301" );
    ("group_deleted", M.Response (M.Group_deleted { group = "g" }), "01010000000167");
    ( "join_accepted_snap",
      M.Response
        (M.Join_accepted
           { group = "g"; at_seqno = 5;
             state = M.Snapshot { objects = [ ("o", "v") ]; log_tail = [ sample_update ] };
             members = [ { T.member = "a"; role = T.Principal } ]; multicast = true }),
      "0102000000016700000000000000050000000001000000016f000000017600000001000000\
       0000000009000000016700000000016f000000077061796c6f616400000005616c69636540\
       314000000000000000000100000001610001" );
    ( "join_accepted_hist",
      M.Response
        (M.Join_accepted
           { group = "g"; at_seqno = 0; state = M.Update_history [ sample_update ];
             members = []; multicast = false }),
      "0102000000016700000000000000000100000001000000000000000900000001670000000\
       0016f000000077061796c6f616400000005616c69636540314000000000000000000000" );
    ("left", M.Response (M.Left { group = "g" }), "01030000000167");
    ( "membership_info",
      M.Response
        (M.Membership_info { group = "g"; members = [ { T.member = "a"; role = T.Observer } ] }),
      "0104000000016700000001000000016101" );
    ( "membership_changed",
      M.Response (M.Membership_changed { group = "g"; change = T.Member_crashed "b" }),
      "01050000000167020000000162" );
    (* the other two membership-change notifications: a join carries the
       joiner's role, a leave only the id; neither carries the member list *)
    ( "membership_changed_joined",
      M.Response
        (M.Membership_changed
           { group = "g"; change = T.Member_joined { T.member = "b"; role = T.Observer } }),
      "0105000000016700000000016201" );
    ( "membership_changed_left",
      M.Response (M.Membership_changed { group = "g"; change = T.Member_left "b" }),
      "01050000000167010000000162" );
    ( "deliver",
      M.Response (M.Deliver sample_update),
      "01060000000000000009000000016700000000016f000000077061796c6f61640000000561\
       6c6963654031400000000000" );
    ( "lock_granted",
      M.Response (M.Lock_granted { group = "g"; lock = "l" }),
      "01070000000167000000016c" );
    ( "lock_busy",
      M.Response (M.Lock_busy { group = "g"; lock = "l"; holder = "h" }),
      "01080000000167000000016c0000000168" );
    ( "lock_released",
      M.Response (M.Lock_released { group = "g"; lock = "l" }),
      "01090000000167000000016c" );
    ( "log_reduced",
      M.Response (M.Log_reduced { group = "g"; upto = 77 }),
      "010a0000000167000000000000004d" );
    ( "request_failed",
      M.Response (M.Request_failed { group = "g"; reason = "nope" }),
      "010b0000000167000000046e6f7065" );
    ( "resend_request",
      M.Response (M.Resend_request { group = "g"; from_seqno = 123 }),
      "010e0000000167000000000000007b" );
    ("pong", M.Response (M.Pong { nonce = 1 }), "010c0000000000000001");
    (* sharded sequencing frames: a shard-stamped delivery (the seqno counts
       within the shard's own stream), a barrier-stamped cross-shard view and
       the per-shard join baseline *)
    ( "shard_deliver",
      M.Response (M.Shard_deliver { shard = 3; update = sample_update }),
      "010f000000030000000000000009000000016700000000016f000000077061796c6f616400\
       000005616c6963654031400000000000" );
    ( "shard_view",
      M.Response
        (M.Shard_view
           { group = "g"; bar = 1_000_001; vector = [ 4; 0; 7 ]; op = "view joined b" }),
      "0110000000016700000000000f4241000000030000000000000004000000000000000000\
       000000000000070000000d76696577206a6f696e65642062" );
    ( "shard_joined",
      M.Response (M.Shard_joined { group = "g"; vector = [ 2; 5 ] }),
      "011100000001670000000200000000000000020000000000000005" );
    (* relay-tier frames: the two control-plane requests, a fan-out carrying
       a nested Deliver (exclude absent) and a nested Membership_changed
       (sender-exclusive exclude present) *)
    ( "relay_register",
      M.Request (M.Relay_register { relay = "r1" }),
      "000b000000027231" );
    ( "relay_proxy",
      M.Request (M.Relay_proxy { relay = "r1" }),
      "000c000000027231" );
    ( "relay_fanout_deliver",
      M.Response (M.Relay_fanout { group = "g"; exclude = None; inner = M.Deliver sample_update }),
      "0113000000016700060000000000000009000000016700000000016f000000077061796c\
       6f616400000005616c6963654031400000000000" );
    ( "relay_fanout_exclude",
      M.Response
        (M.Relay_fanout
           { group = "g"; exclude = Some "s";
             inner =
               M.Membership_changed { group = "g"; change = T.Member_crashed "b" } }),
      "01130000000167010000000173050000000167020000000162" );
  ]

let test_golden_bytes () =
  List.iter
    (fun (name, msg, expect) ->
      let w = W.create () in
      M.encode w msg;
      Alcotest.(check string) name expect (hex_of_string (W.contents w));
      Alcotest.(check bool) (name ^ " decodes back") true
        (M.decode (R.of_string (W.contents w)) = msg);
      (* a sized encoding materializes the same bytes on demand *)
      let e = M.pre_encode msg in
      Alcotest.(check string) (name ^ " (materialized)") expect
        (hex_of_string (M.encoded_bytes e));
      Alcotest.(check int) (name ^ " (sized)")
        ((String.length expect / 2) + 8)
        (M.encoded_wire_size e))
    golden_frames

(* The relay tier once had a heartbeat request (tag 13), a registration ack
   (response tag 18) and a slice notice (response tag 20). Nothing reads
   them any more, so a frame carrying one of those tags is malformed. *)
let test_retired_relay_tags () =
  List.iter
    (fun (name, frame) ->
      match M.decode (R.of_string frame) with
      | exception R.Malformed _ -> ()
      | _ -> Alcotest.fail (name ^ ": expected Malformed"))
    [
      ("request tag 13", "\x00\x0d\x00\x00\x00\x02r1\x00\x00\x00\x05");
      ("response tag 18", "\x01\x12\x00\x00\x00\x02r1\x00\x00\x00\x03");
      ("response tag 20", "\x01\x14\x00\x00\x00\x02r1\x00\x00\x00\x02\x00\x00\x00\x04");
    ]

(* --- integer boundary roundtrips ------------------------------------------ *)

let test_integer_boundaries () =
  let check_rt name write read v =
    let w = W.create () in
    write w v;
    Alcotest.(check int) name v (read (R.of_string (W.contents w)))
  in
  List.iter (fun v -> check_rt (Printf.sprintf "u8 %d" v) W.u8 R.u8 v) [ 0; 1; 0xFF ];
  List.iter
    (fun v -> check_rt (Printf.sprintf "u16 %d" v) W.u16 R.u16 v)
    [ 0; 1; 0xFF; 0x100; 0xFFFF ];
  List.iter
    (fun v -> check_rt (Printf.sprintf "u32 %d" v) W.u32 R.u32 v)
    [ 0; 1; 0xFF; 0x100; 0xFFFF; 0x10000; 0xFFFFFFFF ];
  List.iter
    (fun v ->
      let w = W.create () in
      W.i64 w v;
      Alcotest.(check int64) (Printf.sprintf "i64 %Ld" v) v (R.i64 (R.of_string (W.contents w))))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int ];
  (* out-of-range writes are rejected, and never silently wrap *)
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument ("Codec.Writer." ^ name ^ ": out of range")) f)
    [
      ("u8", fun () -> W.u8 (W.create ()) 0x100);
      ("u8", fun () -> W.u8 (W.create ()) (-1));
      ("u16", fun () -> W.u16 (W.create ()) 0x10000);
      ("u16", fun () -> W.u16 (W.create ()) (-1));
      ("u32", fun () -> W.u32 (W.create ()) 0x100000000);
      ("u32", fun () -> W.u32 (W.create ()) (-1));
    ]

(* --- encode-once ---------------------------------------------------------- *)

let test_pre_encode_consistency () =
  let msg = M.Response (M.Deliver sample_update) in
  let fresh () =
    let w = W.create () in
    M.encode w msg;
    W.contents w
  in
  let e = M.pre_encode msg in
  Alcotest.(check string) "pre_encode bytes = fresh encode" (fresh ()) (M.encoded_bytes e);
  Alcotest.(check int) "memoized wire size" (M.wire_size msg) (M.encoded_wire_size e);
  Alcotest.(check bool) "carries the message" true (M.encoded_message e = msg);
  (* the whole point: re-reading size or bytes must not re-encode *)
  let base = M.encode_count () in
  for _ = 1 to 50 do
    ignore (M.encoded_wire_size e);
    ignore (M.encoded_bytes e)
  done;
  Alcotest.(check int) "no re-encode on reuse" base (M.encode_count ())

(* A join reply used to be spliced from a cached join-state encoding; it is
   now sized without bytes and materialized on demand. Either way the frame a
   joiner gets must be byte-identical to a whole-message encode, carry the
   same wire size, and decode back to the message that was sent. *)
let test_join_accepted_splice () =
  let members = [ { T.member = "a"; role = T.Principal }; { T.member = "b"; role = T.Observer } ] in
  List.iter
    (fun state ->
      let msg =
        M.Response
          (M.Join_accepted { group = "g"; at_seqno = 7; state; members; multicast = true })
      in
      let whole =
        let w = W.create () in
        M.encode w msg;
        W.contents w
      in
      let sized = M.pre_encode msg in
      Alcotest.(check string)
        "materialized frame = whole-message encode" whole (M.encoded_bytes sized);
      Alcotest.(check int)
        "sized wire size = frame + encoded length" (String.length whole + 8)
        (M.encoded_wire_size sized);
      Alcotest.(check int) "wire_size agrees" (M.wire_size msg) (M.encoded_wire_size sized);
      let decoded = M.decode (Proto.Codec.Reader.of_string (M.encoded_bytes sized)) in
      Alcotest.(check string)
        "decodes identically" (Format.asprintf "%a" M.pp msg)
        (Format.asprintf "%a" M.pp decoded))
    [
      M.Snapshot { objects = [ ("o1", "v1"); ("o2", String.make 300 'x') ];
                   log_tail = [ sample_update ] };
      M.Snapshot { objects = []; log_tail = [] };
      M.Update_history [ sample_update; sample_update ];
    ]

(* Sizing a frame costs O(objects), not O(bytes): a join reply carrying a
   100 kB snapshot to a 40-member group is measured without building a
   single payload byte, so it allocates nothing on the major heap and only
   a few small records on the minor heap. *)
let test_pre_encode_join_allocation () =
  let objects = List.init 20 (fun i -> (Printf.sprintf "obj-%02d" i, String.make 5000 'x')) in
  let members =
    List.init 40 (fun i -> { T.member = Printf.sprintf "m%d" i; role = T.Principal })
  in
  let msg =
    M.Response
      (M.Join_accepted
         { group = "g"; at_seqno = 7; state = M.Snapshot { objects; log_tail = [] };
           members; multicast = false })
  in
  ignore (M.pre_encode msg);
  (* an empty minor heap: no collection promotes anything mid-measurement *)
  Gc.minor ();
  (* [Gc.counters] counts direct major allocations as they happen *)
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let major0 = major_words () in
  let minor0 = Gc.minor_words () in
  let e = M.pre_encode msg in
  let minor = Gc.minor_words () -. minor0 in
  let major = major_words () -. major0 in
  Alcotest.(check int) "sized, not copied" (M.wire_size msg) (M.encoded_wire_size e);
  Alcotest.(check (float 0.0)) "no major words" 0.0 major;
  if minor > 64.0 then Alcotest.failf "%.0f minor words (at most 64)" minor

(* Same guarantee for the relay tier: the root splices the cached inner
   response bytes into a Relay_fanout wrapper instead of re-encoding the
   inner message per relay, and members behind a relay must see the exact
   bytes a direct member would. *)
let test_relay_fanout_splice () =
  let inners =
    [
      M.Deliver sample_update;
      M.Membership_changed
        { group = "g"; change = T.Member_joined { T.member = "b"; role = T.Observer } };
      M.Group_deleted { group = "g" };
    ]
  in
  List.iter
    (fun exclude ->
      List.iter
        (fun inner ->
          let msg = M.Response (M.Relay_fanout { group = "g"; exclude; inner }) in
          let whole = M.pre_encode msg in
          let inner_enc = M.pre_encode (M.Response inner) in
          let before = M.encode_count () in
          let spliced =
            M.pre_encode_relay_fanout ~group:"g" ?exclude ~inner ~inner_enc ()
          in
          Alcotest.(check int) "splice costs exactly one encode" (before + 1)
            (M.encode_count ());
          Alcotest.(check string)
            "spliced frame = whole-message encode" (M.encoded_bytes whole)
            (M.encoded_bytes spliced);
          (* the splice is sized from [inner_enc]'s length alone: pin that
             arithmetic against the whole-message sizing encode *)
          Alcotest.(check int)
            "spliced wire size = whole-message wire size"
            (M.encoded_wire_size whole) (M.encoded_wire_size spliced);
          let decoded =
            M.decode (Proto.Codec.Reader.of_string (M.encoded_bytes spliced))
          in
          Alcotest.(check bool) "decodes identically" true (decoded = msg))
        inners)
    [ None; Some "alice" ]

(* --- shared fan-out encodings ---------------------------------------------
   The fan-out path builds one [encoded] per logical message and hands it to
   every recipient. Encodings are immutable sized values with nothing to
   lease or release, so any holder may read them again at any time and must
   always see the golden bytes. *)

let test_pooled_frames_byte_identical () =
  List.iter
    (fun (name, msg, expect) ->
      let e = M.pre_encode msg in
      let before = M.encode_count () in
      (* two recipients reading the same shared encoding *)
      let first = hex_of_string (M.encoded_bytes e) in
      let second = hex_of_string (M.encoded_bytes e) in
      Alcotest.(check string) (name ^ " (first read)") expect first;
      Alcotest.(check string) (name ^ " (second read)") expect second;
      Alcotest.(check int)
        (name ^ " reads do not count as encodes")
        before (M.encode_count ());
      Alcotest.(check bool)
        (name ^ " keeps the original message")
        true
        (M.encoded_message e = msg);
      Alcotest.(check int)
        (name ^ " wire size = framed golden length")
        ((String.length expect / 2) + 8)
        (M.encoded_wire_size e))
    golden_frames

let test_pooled_splices_byte_identical () =
  let inner = M.Deliver sample_update in
  let whole_fan =
    M.pre_encode (M.Response (M.Relay_fanout { group = "g"; exclude = Some "alice"; inner }))
  in
  let inner_enc = M.pre_encode (M.Response inner) in
  let inner_bytes = M.encoded_bytes inner_enc in
  let fan =
    M.pre_encode_relay_fanout ~group:"g" ~exclude:"alice" ~inner ~inner_enc ()
  in
  Alcotest.(check string)
    "relay-fanout splice = copied encode" (M.encoded_bytes whole_fan)
    (M.encoded_bytes fan);
  Alcotest.(check int)
    "splice wire size = copied wire size"
    (M.encoded_wire_size whole_fan) (M.encoded_wire_size fan);
  (* the splice borrows nothing from the inner encoding: both stay readable
     and unchanged in either order *)
  Alcotest.(check string)
    "inner encoding unchanged by the splice" inner_bytes
    (M.encoded_bytes inner_enc);
  Alcotest.(check string)
    "splice still readable afterwards" (M.encoded_bytes whole_fan)
    (M.encoded_bytes fan)

(* The header peek reads the message family straight off the encoded bytes;
   it must agree with the full decode for every constructor. *)
let test_peek_consistency () =
  let check_one msg =
    let body = M.encoded_bytes (M.pre_encode msg) in
    let decoded = M.decode (R.of_string body) in
    let name = Format.asprintf "%a" M.pp msg in
    match (M.peek_kind body, decoded) with
    | M.Peek_request k, M.Request _ | M.Peek_response k, M.Response _ ->
        Alcotest.(check int) ("peek_kind tag: " ^ name) (Char.code body.[1]) k
    | _ -> Alcotest.failf "peek_kind wrong family for %s" name
  in
  List.iter (fun r -> check_one (M.Request r)) all_request_samples;
  List.iter (fun r -> check_one (M.Response r)) all_response_samples

(* --- property-based roundtrips over random messages ---------------------- *)

let gen_string = QCheck.Gen.(string_size ~gen:printable (int_range 0 30))

let gen_role = QCheck.Gen.oneofl [ T.Principal; T.Observer ]

let gen_kind = QCheck.Gen.oneofl [ T.Set_state; T.Append_update ]

let gen_mode = QCheck.Gen.oneofl [ T.Sender_inclusive; T.Sender_exclusive ]

let gen_update =
  let open QCheck.Gen in
  map
    (fun (seqno, group, kind, obj, data, sender) ->
      { T.seqno; group; kind; obj; data; sender; timestamp = 1.5 })
    (tup6 (int_range 0 1_000_000) gen_string gen_kind gen_string gen_string gen_string)

let gen_transfer =
  let open QCheck.Gen in
  oneof
    [
      return T.Full_state;
      map (fun n -> T.Latest_updates n) (int_range 0 1000);
      map (fun n -> T.Updates_since n) (int_range 0 1000);
      map (fun l -> T.Objects l) (list_size (int_range 0 5) gen_string);
      return T.No_state;
    ]

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun (group, creator, persistent, initial) ->
          M.Create_group { group; creator; persistent; initial })
        (tup4 gen_string gen_string bool
           (list_size (int_range 0 4) (pair gen_string gen_string)));
      map
        (fun (group, member, role, transfer, notify) ->
          M.Join { group; member; role; transfer; notify })
        (tup5 gen_string gen_string gen_role gen_transfer bool);
      map
        (fun (group, sender, kind, obj, data, mode) ->
          M.Bcast { group; sender; kind; obj; data; mode })
        (tup6 gen_string gen_string gen_kind gen_string gen_string gen_mode);
      map (fun (group, member) -> M.Leave { group; member }) (pair gen_string gen_string);
      map (fun nonce -> M.Ping { nonce }) (int_range 0 1_000_000);
    ]

let gen_response =
  let open QCheck.Gen in
  oneof
    [
      map (fun u -> M.Deliver u) gen_update;
      map
        (fun (group, at_seqno, objects, log_tail, members) ->
          M.Join_accepted
            { group; at_seqno; state = M.Snapshot { objects; log_tail };
              members = List.map (fun m -> { T.member = m; role = T.Principal }) members;
              multicast = at_seqno mod 2 = 0 })
        (tup5 gen_string (int_range 0 1000)
           (list_size (int_range 0 4) (pair gen_string gen_string))
           (list_size (int_range 0 3) gen_update)
           (list_size (int_range 0 4) gen_string));
      map
        (fun (group, reason) -> M.Request_failed { group; reason })
        (pair gen_string gen_string);
      map
        (fun (group, objects, index, more) -> M.State_chunk { group; objects; index; more })
        (tup4 gen_string
           (list_size (int_range 0 4) (pair gen_string gen_string))
           (int_range 0 100) bool);
      map
        (fun (shard, u) -> M.Shard_deliver { shard; update = u })
        (pair (int_range 0 64) gen_update);
      map
        (fun (group, bar, vector, op) -> M.Shard_view { group; bar; vector; op })
        (tup4 gen_string (int_range 0 10_000_000)
           (list_size (int_range 0 8) (int_range 0 100_000))
           gen_string);
      map
        (fun (group, vector) -> M.Shard_joined { group; vector })
        (pair gen_string (list_size (int_range 0 8) (int_range 0 100_000)));
    ]

let gen_message =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun r -> M.Request r) gen_request;
      QCheck.Gen.map (fun r -> M.Response r) gen_response;
    ]

let arb_message = QCheck.make gen_message

let prop_roundtrip =
  QCheck.Test.make ~name:"Message.decode inverts encode" ~count:500 arb_message
    (fun msg ->
      let w = W.create () in
      M.encode w msg;
      M.decode (R.of_string (W.contents w)) = msg)

let prop_wire_size_consistent =
  QCheck.Test.make ~name:"wire_size = frame + encoded length" ~count:300 arb_message
    (fun msg ->
      let w = W.create () in
      M.encode w msg;
      M.wire_size msg = 8 + W.size w)

(* [gen_message] plus payloads the sizing writer never stores: strings of
   several kB (past its scratch buffer) and 20 x 5 kB snapshots. *)
let gen_sized_message =
  let open QCheck.Gen in
  let big = string_size ~gen:printable (int_range 2_000 9_000) in
  oneof
    [
      gen_message;
      map
        (fun (group, sender, data) ->
          M.Request
            (M.Bcast
               { group; sender; kind = T.Set_state; obj = "o"; data;
                 mode = T.Sender_inclusive }))
        (triple gen_string gen_string big);
      map
        (fun (u, data) -> M.Response (M.Deliver { u with T.data }))
        (pair gen_update big);
      map
        (fun (group, at_seqno, blobs, members) ->
          M.Response
            (M.Join_accepted
               { group; at_seqno;
                 state =
                   M.Snapshot
                     { objects = List.mapi (fun i d -> (Printf.sprintf "o%d" i, d)) blobs;
                       log_tail = [] };
                 members = List.map (fun m -> { T.member = m; role = T.Observer }) members;
                 multicast = false }))
        (quad gen_string (int_range 0 1000)
           (list_repeat 20 (string_size ~gen:printable (return 5_000)))
           (list_size (int_range 0 40) gen_string));
    ]

let prop_sized_matches_bytes =
  QCheck.Test.make ~name:"sized encoding = materialized bytes" ~count:200
    (QCheck.make gen_sized_message)
    (fun msg ->
      let e = M.pre_encode msg in
      let bytes = M.encoded_bytes e in
      M.wire_size msg = String.length bytes + 8
      && M.encoded_wire_size e = String.length bytes + 8
      && M.decode (R.of_string bytes) = msg)

let prop_decode_consumes_everything =
  QCheck.Test.make ~name:"decode consumes the full encoding" ~count:300 arb_message
    (fun msg ->
      let w = W.create () in
      M.encode w msg;
      let r = R.of_string (W.contents w) in
      ignore (M.decode r);
      R.at_end r)

let prop_decode_garbage_never_crashes =
  (* Robustness: feeding arbitrary bytes to the decoder must end in a
     controlled exception (or a value), never a crash or out-of-bounds. *)
  QCheck.Test.make ~name:"decode of garbage raises only Truncated/Malformed"
    ~count:1000
    QCheck.(string_gen_of_size (Gen.int_range 0 64) Gen.char)
    (fun bytes ->
      match M.decode (R.of_string bytes) with
      | _ -> true
      | exception R.Truncated -> true
      | exception R.Malformed _ -> true)

let prop_truncated_encodings_never_crash =
  (* Every strict prefix of a valid encoding is rejected in a controlled
     way. *)
  QCheck.Test.make ~name:"truncated valid encodings fail cleanly" ~count:300
    arb_message
    (fun msg ->
      let w = W.create () in
      M.encode w msg;
      let full = W.contents w in
      let ok = ref true in
      for cut = 0 to min 40 (String.length full - 1) do
        match M.decode (R.of_string (String.sub full 0 cut)) with
        | _ -> () (* a shorter valid message is acceptable in principle *)
        | exception R.Truncated -> ()
        | exception R.Malformed _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let test_wire_size_scales_with_payload () =
  let mk n =
    M.wire_size
      (M.Request
         (M.Bcast
            { group = "g"; sender = "s"; kind = T.Set_state; obj = "o";
              data = String.make n 'x'; mode = T.Sender_inclusive }))
  in
  Alcotest.(check int) "1000 more payload bytes" (mk 1000 - mk 0) 1000

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "proto"
    [
      ( "codec",
        [
          tc "primitive roundtrips" `Quick test_primitive_roundtrips;
          tc "truncated raises" `Quick test_truncated_raises;
          tc "bad tag raises" `Quick test_bad_tag_raises;
          tc "writer bounds" `Quick test_writer_bounds;
          tc "integer boundaries" `Quick test_integer_boundaries;
        ] );
      ( "message",
        [
          tc "all constructors roundtrip" `Quick test_all_constructors_roundtrip;
          tc "golden bytes (wire format pinned)" `Quick test_golden_bytes;
          tc "retired relay tags are rejected" `Quick test_retired_relay_tags;
          tc "pre-encode consistency" `Quick test_pre_encode_consistency;
          tc "join-accepted splice is byte-identical" `Quick test_join_accepted_splice;
          tc "sizing a join reply allocates no payload" `Quick test_pre_encode_join_allocation;
          tc "relay-fanout splice is byte-identical" `Quick test_relay_fanout_splice;
          tc "header peeks agree with full decode" `Quick test_peek_consistency;
          tc "wire size scales with payload" `Quick test_wire_size_scales_with_payload;
          q prop_roundtrip;
          q prop_wire_size_consistent;
          q prop_sized_matches_bytes;
          q prop_decode_consumes_everything;
          q prop_decode_garbage_never_crashes;
          q prop_truncated_encodings_never_crash;
        ] );
      ( "pool",
        [
          tc "pooled frames match the golden bytes" `Quick test_pooled_frames_byte_identical;
          tc "pooled splices match copied encodes" `Quick test_pooled_splices_byte_identical;
        ] );
    ]
