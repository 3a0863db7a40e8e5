module T = Proto.Types
module M = Proto.Message

(* --- byte accounting --------------------------------------------------- *)

let update_list_bytes ups =
  List.fold_left (fun acc (u : T.update) -> acc + String.length u.data) 0 ups

let objects_bytes objs =
  List.fold_left (fun acc (_, d) -> acc + String.length d) 0 objs

let bytes = function
  | M.Snapshot { objects; log_tail } ->
      objects_bytes objects + update_list_bytes log_tail
  | M.Update_history updates -> update_list_bytes updates

(* --- QoS chunking ------------------------------------------------------- *)

(* A pre-encoded [State_chunk] frame plus its payload bytes (the pacing
   input). Frames carry no per-joiner data, so one list is shared by every
   concurrent joiner of the same state version. *)
type chunk_frame = { cf_frame : M.encoded; cf_bytes : int }

(* Slice a snapshot's objects into fragments of at most [chunk] bytes; a
   fragment is (id, byte slice), and a large object spans several fragments
   (the client reassembles by appending). *)
let slice_objects objects ~chunk =
  let fragments = ref [] in
  List.iter
    (fun (id, data) ->
      let len = String.length data in
      if len = 0 then fragments := (id, data) :: !fragments
      else begin
        let pos = ref 0 in
        while !pos < len do
          let n = min chunk (len - !pos) in
          fragments := (id, String.sub data !pos n) :: !fragments;
          pos := !pos + n
        done
      end)
    objects;
  (* Pack fragments into chunks of ~[chunk] bytes. *)
  let chunks = ref [] and current = ref [] and current_bytes = ref 0 in
  List.iter
    (fun (id, data) ->
      if !current_bytes > 0 && !current_bytes + String.length data > chunk then begin
        chunks := List.rev !current :: !chunks;
        current := [];
        current_bytes := 0
      end;
      current := (id, data) :: !current;
      current_bytes := !current_bytes + String.length data)
    (List.rev !fragments);
  if !current <> [] then chunks := List.rev !current :: !chunks;
  List.rev !chunks

let chunk_frames_of ~group ~objects ~chunk =
  List.mapi
    (fun index slice ->
      {
        cf_frame =
          M.pre_encode
            (M.Response (M.State_chunk { group; objects = slice; index; more = true }));
        cf_bytes = objects_bytes slice;
      })
    (slice_objects objects ~chunk)

(* --- the join-state cache ---------------------------------------------- *)

(* One materialize of the full snapshot, shared by every concurrent joiner
   at the same state version. Identity is (physical state instance,
   version): the version pins the value, the physical check makes entries
   from a dead incarnation (recovery and re-seeding build fresh
   [Shared_state] instances) unhittable without explicit invalidation. *)
type cached = {
  c_state : Shared_state.t;
  c_version : int;
  c_at : int; (* next_seqno when built; fixed for a fixed version *)
  c_objects : (T.object_id * string) list;
  c_payload : M.join_state; (* Snapshot { objects = c_objects; log_tail = [] } *)
  c_bytes : int;
  mutable c_chunks : (int * chunk_frame list) option; (* keyed by chunk size *)
}

type cache = {
  snapshots : (T.group_id, cached) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create_cache () = { snapshots = Hashtbl.create 16; hits = 0; misses = 0 }

let cache_stats c = (c.hits, c.misses)

let invalidate c group = Hashtbl.remove c.snapshots group

let find_valid cache log =
  let state = State_log.state log in
  match Hashtbl.find_opt cache.snapshots (State_log.group log) with
  | Some c when c.c_state == state && c.c_version = Shared_state.version state ->
      Some c
  | _ -> None

let install cache log =
  let state = State_log.state log in
  let objects = Shared_state.objects state in
  let payload = M.Snapshot { objects; log_tail = [] } in
  let c =
    {
      c_state = state;
      c_version = Shared_state.version state;
      c_at = State_log.next_seqno log;
      c_objects = objects;
      c_payload = payload;
      c_bytes = objects_bytes objects;
      c_chunks = None;
    }
  in
  Hashtbl.replace cache.snapshots (State_log.group log) c;
  c

let lookup_full cache log =
  match find_valid cache log with
  | Some c ->
      cache.hits <- cache.hits + 1;
      (c, true)
  | None ->
      cache.misses <- cache.misses + 1;
      (install cache log, false)

let cached_chunk_frames cache log ~chunk =
  let c =
    match find_valid cache log with Some c -> c | None -> install cache log
  in
  match c.c_chunks with
  | Some (k, frames) when k = chunk -> frames
  | _ ->
      let frames =
        chunk_frames_of ~group:(State_log.group log) ~objects:c.c_objects ~chunk
      in
      c.c_chunks <- Some (chunk, frames);
      frames

let snapshot_objects ?cache log =
  match cache with
  | None -> Shared_state.objects (State_log.state log)
  | Some cache ->
      let c, _ = lookup_full cache log in
      c.c_objects

(* --- preparing a transfer ---------------------------------------------- *)

type prepared = {
  p_state : M.join_state;
  p_at : int;
  p_bytes : int;
  p_cache_hit : bool;
  p_full_snapshot : bool; (* the payload is the group's whole state *)
}

let no_state ~at =
  {
    p_state = M.Update_history [];
    p_at = at;
    p_bytes = 0;
    p_cache_hit = false;
    p_full_snapshot = false;
  }

let prepare ?cache log (transfer : T.transfer_spec) =
  let at = State_log.next_seqno log in
  let full () =
    match cache with
    | Some cache ->
        let c, hit = lookup_full cache log in
        {
          p_state = c.c_payload;
          p_at = c.c_at;
          p_bytes = c.c_bytes;
          p_cache_hit = hit;
          p_full_snapshot = true;
        }
    | None ->
        let objects = Shared_state.objects (State_log.state log) in
        {
          p_state = M.Snapshot { objects; log_tail = [] };
          p_at = at;
          p_bytes = objects_bytes objects;
        p_cache_hit = false;
          p_full_snapshot = true;
        }
  in
  let history ups bytes_hint =
    let bytes =
      match bytes_hint with Some b -> b | None -> update_list_bytes ups
    in
    {
      p_state = M.Update_history ups;
      p_at = at;
      p_bytes = bytes;
      p_cache_hit = false;
      p_full_snapshot = false;
    }
  in
  match transfer with
  | T.Full_state -> full ()
  | T.Latest_updates n ->
      history (State_log.latest_updates log n) (State_log.latest_updates_bytes log n)
  | T.Updates_since n ->
      if n < State_log.snapshot_seqno log then
        (* The log was reduced past the client's position: the increments it
           needs are folded into the checkpoint, so transfer everything —
           the same payload class as Full_state, sharing its cache entry. *)
        full ()
      else history (State_log.updates_from log n) (State_log.update_bytes_from log n)
  | T.Objects ids ->
      let objects = Shared_state.restrict (State_log.state log) ids in
      {
        p_state = M.Snapshot { objects; log_tail = [] };
        p_at = at;
        p_bytes = objects_bytes objects;
        p_cache_hit = false;
        p_full_snapshot = false;
      }
  | T.No_state -> no_state ~at

let join_state log (transfer : T.transfer_spec) : M.join_state * int =
  let p = prepare log transfer in
  (p.p_state, p.p_at)
