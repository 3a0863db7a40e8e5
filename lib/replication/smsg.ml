type server_id = string

type origin_tag = { og_server : server_id; og_seq : int }

type dir_report = {
  dr_group : Proto.Types.group_id;
  dr_persistent : bool;
  dr_next_seqno : int;
  dr_members : (Proto.Types.member * bool) list;
  dr_origins : (int * server_id * int) list;
  dr_shards : (int * int) list;
      (* (shard, next) positions of a sharded copy; [] for a classic one, so
         its report keeps its size *)
}

(* Cross-shard operation carried by a [Barrier_commit]: applied by every
   replica exactly when its per-shard streams reach the stamped vector. *)
type shard_op =
  | Op_view of {
      change : Proto.Types.membership_change;
      members : Proto.Types.member list;
      origin : server_id; (* replica serving the joining/leaving client *)
    }
  | Op_lock of { lock : Proto.Types.lock_id; member : Proto.Types.member_id }

let shard_op_label = function
  | Op_view { change; _ } ->
      Format.asprintf "view %a" Proto.Types.pp_membership_change change
  | Op_lock { lock; member } -> Printf.sprintf "lock %s -> %s" lock member

type t =
  | Heartbeat of { from : server_id }
  | Heartbeat_ack of { from : server_id }
  | Fwd_create of {
      origin : server_id;
      group : Proto.Types.group_id;
      creator : Proto.Types.member_id;
      persistent : bool;
      initial : (Proto.Types.object_id * string) list;
    }
  | Create_result of { group : Proto.Types.group_id; error : string option }
  | Fwd_delete of {
      origin : server_id;
      group : Proto.Types.group_id;
      requester : Proto.Types.member_id;
    }
  | Delete_group of { group : Proto.Types.group_id }
  | Delete_refused of { group : Proto.Types.group_id; reason : string }
  | Fwd_join of {
      origin : server_id;
      group : Proto.Types.group_id;
      member : Proto.Types.member_id;
      role : Proto.Types.role;
      notify : bool;
    }
  | Join_result of {
      group : Proto.Types.group_id;
      member : Proto.Types.member_id;
      error : string option;
      next_seqno : int;
      members : Proto.Types.member list;
      holder : server_id option;
    }
  | Fwd_leave of {
      origin : server_id;
      group : Proto.Types.group_id;
      member : Proto.Types.member_id;
      crashed : bool;
    }
  | Membership_update of {
      group : Proto.Types.group_id;
      change : Proto.Types.membership_change;
      members : Proto.Types.member list;
    }
  | Fwd_bcast of {
      origin : origin_tag;
      epoch : int;
      shard : int;
      group : Proto.Types.group_id;
      sender : Proto.Types.member_id;
      kind : Proto.Types.update_kind;
      obj : Proto.Types.object_id;
      data : string;
      mode : Proto.Types.delivery_mode;
    }
  | Sequenced of {
      epoch : int;
      shard : int;
      origin : origin_tag;
      update : Proto.Types.update;
      mode : Proto.Types.delivery_mode;
    }
  | Bcast_reject of { origin : origin_tag; reason : string }
  | Fetch_state of { from : server_id; group : Proto.Types.group_id }
  | State_blob of {
      group : Proto.Types.group_id;
      at_seqno : int;
      objects : (Proto.Types.object_id * string) list;
      error : string option;
      shards : (int * int) list;
          (* per-shard (shard, next) positions of the snapshot; [] for the
             classic single-stream groups, so their frames keep their size *)
    }
  | Add_replica of { group : Proto.Types.group_id; holder : server_id option }
  | Fetch_updates of {
      from : server_id;
      group : Proto.Types.group_id;
      shard : int;
      from_seqno : int;
    }
  | Updates_blob of {
      group : Proto.Types.group_id;
      shard : int;
      updates : Proto.Types.update list;
    }
  | Fwd_lock of {
      origin : server_id;
      group : Proto.Types.group_id;
      lock : Proto.Types.lock_id;
      member : Proto.Types.member_id;
      acquire : bool;
    }
  | Lock_result of {
      group : Proto.Types.group_id;
      lock : Proto.Types.lock_id;
      member : Proto.Types.member_id;
      result :
        [ `Granted | `Busy of Proto.Types.member_id | `Released | `Error of string ];
    }
  | Elect_me of { from : server_id }
  | Elect_ack of { from : server_id; candidate : server_id; ok : bool }
  | Coordinator_is of { coord : server_id }
  | Dir_query of { from : server_id }
  | Dir_reply of { from : server_id; reports : dir_report list }
  (* cross-shard barrier: coordinator freezes each shard owner, collects a
     vector of per-shard positions, then fans the stamped op to everyone *)
  | Barrier_prepare of { bar : int; epoch : int; group : Proto.Types.group_id }
  | Barrier_pos of {
      from : server_id;
      bar : int;
      group : Proto.Types.group_id;
      positions : (int * int) list; (* (shard, next) for shards [from] owns *)
    }
  | Barrier_commit of {
      bar : int;
      epoch : int;
      group : Proto.Types.group_id;
      vector : int array;
      op : shard_op;
    }
  (* shard ownership recovery: after the directory-recovery round the
     coordinator fans the new owner table *)
  | Shard_assign of {
      epoch : int;
      owners : server_id array; (* owners.(s) sequences shard s *)
      positions : (Proto.Types.group_id * int * int) list;
          (* (group, shard, next) — seeds new allocators *)
      origins : (Proto.Types.group_id * int * server_id * int) list;
          (* (group, shard, origin, og_seq) — seeds new owners' dedup *)
    }

type Net.Payload.t += Srv of t

let header = 8

let str s = 4 + String.length s

let pairs_size ps =
  List.fold_left (fun acc (k, v) -> acc + str k + str v) 4 ps

let members_size ms =
  List.fold_left (fun acc (m : Proto.Types.member) -> acc + str m.member + 1) 4 ms

let update_size (u : Proto.Types.update) =
  8 + str u.group + 1 + str u.obj + str u.data + str u.sender + 8

let tag_size tag = str tag.og_server + 8

(* (shard, next) pair lists: 4-byte count + two 4-byte ints per entry. *)
let pos_pairs_size ps = List.fold_left (fun acc _ -> acc + 8) 4 ps

let report_size r =
  str r.dr_group + 1 + 8
  + List.fold_left (fun acc (m, _) -> acc + str m.Proto.Types.member + 2) 4 r.dr_members
  + List.fold_left (fun acc (_, o, _) -> acc + 4 + str o + 8) 4 r.dr_origins
  + (match r.dr_shards with [] -> 0 | l -> pos_pairs_size l)

let shard_op_size = function
  | Op_view { change; members; origin } ->
      (* a joiner's role is sized once, with [members] *)
      1 + str (Proto.Types.changed_member change) + members_size members + str origin
  | Op_lock { lock; member } -> str lock + str member

(* The shard stamp: [shard] costs 4 bytes, and [epoch] 8 more on the
   forward and sequenced messages. Only a sharded deployment sends it; a
   classic one is the one-shard layout, whose frames carry neither. *)
let wire_size ~sharded t =
  let shard_b = if sharded then 4 else 0 in
  let stamp_b = if sharded then 8 + 4 else 0 in
  header
  +
  match t with
  | Heartbeat { from } | Heartbeat_ack { from } -> str from
  | Fwd_create { origin; group; creator; initial; _ } ->
      str origin + str group + str creator + 1 + pairs_size initial
  | Create_result { group; error } ->
      str group + (match error with Some e -> str e | None -> 1)
  | Fwd_delete { origin; group; requester } -> str origin + str group + str requester
  | Delete_group { group } -> str group
  | Delete_refused { group; reason } -> str group + str reason
  | Fwd_join { origin; group; member; _ } -> str origin + str group + str member + 2
  | Join_result { group; member; error; members; holder; _ } ->
      str group + str member + 8 + members_size members
      + (match error with Some e -> str e | None -> 1)
      + (match holder with Some h -> str h | None -> 1)
  | Fwd_leave { origin; group; member; _ } -> str origin + str group + str member + 1
  | Membership_update { group; members; _ } -> str group + 8 + members_size members
  | Fwd_bcast { origin; group; sender; obj; data; _ } ->
      stamp_b + tag_size origin + str group + str sender + 1 + str obj + str data + 1
  | Sequenced { origin; update; _ } -> stamp_b + tag_size origin + update_size update + 1
  | Bcast_reject { origin; reason } -> tag_size origin + str reason
  | Fetch_state { from; group } -> str from + str group
  | State_blob { group; objects; error; shards; _ } ->
      str group + 8 + pairs_size objects
      + (match error with Some e -> str e | None -> 1)
      + (match shards with [] -> 0 | l -> pos_pairs_size l)
  | Add_replica { group; holder } ->
      str group + (match holder with Some h -> str h | None -> 1)
  | Fetch_updates { from; group; _ } -> shard_b + str from + str group + 8
  | Updates_blob { group; updates; _ } ->
      shard_b + str group + List.fold_left (fun acc u -> acc + update_size u) 4 updates
  | Fwd_lock { origin; group; lock; member; _ } ->
      str origin + str group + str lock + str member + 1
  | Lock_result { group; lock; member; result } ->
      str group + str lock + str member
      + (match result with
        | `Busy h -> str h
        | `Error e -> str e
        | `Granted | `Released -> 1)
  | Elect_me { from } -> str from
  | Elect_ack { from; candidate; _ } -> str from + str candidate + 1
  | Coordinator_is { coord } -> str coord
  | Dir_query { from } -> str from
  | Dir_reply { from; reports } ->
      str from + List.fold_left (fun acc r -> acc + report_size r) 4 reports
  | Barrier_prepare { group; _ } -> 8 + 8 + str group
  | Barrier_pos { from; group; positions; _ } ->
      str from + 8 + str group + pos_pairs_size positions
  | Barrier_commit { group; vector; op; _ } ->
      8 + 8 + str group + 4 + (8 * Array.length vector) + shard_op_size op
  | Shard_assign { owners; positions; origins; _ } ->
      8
      + Array.fold_left (fun acc o -> acc + str o) 4 owners
      + List.fold_left (fun acc (g, _, _) -> acc + str g + 4 + 8) 4 positions
      + List.fold_left (fun acc (g, _, o, _) -> acc + str g + 4 + str o + 8) 4 origins

let send ~sharded conn t = Net.Tcp.send conn ~size:(wire_size ~sharded t) (Srv t)

(* Size the message once and share that size across every recipient of the
   batch (the sequencers' multicast of [Sequenced] updates in particular). *)
let send_batch ~sharded batch t =
  Net.Tcp.send_batch batch ~size:(wire_size ~sharded t) (Srv t)
