(* Unit and property tests for the Corona core data structures: the shared
   state model, the state log with reduction, locks, membership, access
   control and the transfer computation. Complements test_corona.ml's
   end-to-end server tests. *)

module T = Proto.Types
module SS = Corona.Shared_state

(* --- shared state ------------------------------------------------------- *)

let upd ?(seqno = 0) ?(kind = T.Append_update) obj data =
  { T.seqno; group = "g"; kind; obj; data; sender = "s"; timestamp = 0.0 }

let test_set_and_append () =
  let s = SS.create () in
  SS.set_object s "a" "base";
  SS.append_object s "a" "+1";
  SS.append_object s "a" "+2";
  Alcotest.(check (option string)) "materialized" (Some "base+1+2") (SS.get s "a");
  SS.set_object s "a" "reset";
  Alcotest.(check (option string)) "set overrides" (Some "reset") (SS.get s "a");
  SS.append_object s "new" "x";
  Alcotest.(check (option string)) "append creates" (Some "x") (SS.get s "new")

let test_objects_sorted_and_sizes () =
  let s = SS.of_objects [ ("b", "22"); ("a", "1") ] in
  Alcotest.(check (list (pair string string))) "sorted" [ ("a", "1"); ("b", "22") ]
    (SS.objects s);
  Alcotest.(check int) "count" 2 (SS.object_count s);
  Alcotest.(check int) "bytes" 3 (SS.total_bytes s);
  Alcotest.(check (list (pair string string))) "restrict" [ ("b", "22") ]
    (SS.restrict s [ "b"; "missing" ])

let test_copy_is_independent () =
  let s = SS.of_objects [ ("a", "1") ] in
  let c = SS.copy s in
  SS.append_object s "a" "2";
  Alcotest.(check (option string)) "copy unchanged" (Some "1") (SS.get c "a");
  Alcotest.(check bool) "equal detects difference" false (SS.equal s c)

(* Applying a random update sequence gives the same state as applying it to
   a simple reference model (an assoc list of strings). *)
let gen_op =
  QCheck.Gen.(
    map3
      (fun obj set data -> (Printf.sprintf "o%d" obj, set, data))
      (int_range 0 3) bool (string_size ~gen:printable (int_range 0 8)))

let prop_matches_reference_model =
  QCheck.Test.make ~name:"shared state = reference model" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 40) gen_op))
    (fun ops ->
      let s = SS.create () in
      let model = Hashtbl.create 4 in
      List.iter
        (fun (obj, set, data) ->
          let kind = if set then T.Set_state else T.Append_update in
          SS.apply s (upd ~kind obj data);
          let prev = Option.value (Hashtbl.find_opt model obj) ~default:"" in
          Hashtbl.replace model obj (if set then data else prev ^ data))
        ops;
      List.for_all
        (fun (obj, v) -> Hashtbl.find_opt model obj = Some v)
        (SS.objects s)
      && SS.object_count s = Hashtbl.length model)

(* --- state log ------------------------------------------------------------ *)

let make_log ?(policy = Corona.State_log.No_reduction) ?(initial = []) () =
  let engine = Sim.Engine.create ~seed:3L () in
  let fabric = Net.Fabric.create engine in
  let host = Net.Fabric.add_host fabric ~name:"h" () in
  let disk = Storage.Disk.create host () in
  let wal = Storage.Wal.create disk ~name:"g" in
  let checkpoints = Storage.Snapshot.create disk ~name:"cks" in
  let log =
    Corona.State_log.create ~group:"g" ~persistent:true ~wal ~checkpoints ~policy
      ~initial ()
  in
  (engine, wal, checkpoints, log)

let append log data =
  Corona.State_log.append log ~kind:T.Append_update ~obj:"o" ~data ~sender:"s"
    ~timestamp:0.0 ~on_durable:(fun _ -> ())

let test_log_sequences () =
  let _, _, _, log = make_log () in
  let u0 = append log "a" in
  let u1 = append log "b" in
  Alcotest.(check (pair int int)) "seqnos" (0, 1) (u0.T.seqno, u1.T.seqno);
  Alcotest.(check int) "next" 2 (Corona.State_log.next_seqno log);
  Alcotest.(check (option string)) "state applied" (Some "ab")
    (SS.get (Corona.State_log.state log) "o")

let test_log_updates_from_and_latest () =
  let _, _, _, log = make_log () in
  for i = 0 to 9 do
    ignore (append log (string_of_int i))
  done;
  let tail = Corona.State_log.updates_from log 7 in
  Alcotest.(check (list int)) "from 7" [ 7; 8; 9 ]
    (List.map (fun u -> u.T.seqno) tail);
  let last = Corona.State_log.latest_updates log 4 in
  Alcotest.(check (list int)) "latest 4" [ 6; 7; 8; 9 ]
    (List.map (fun u -> u.T.seqno) last)

let test_log_reduction_preserves_state () =
  let engine, wal, _, log = make_log () in
  for i = 0 to 9 do
    ignore (append log (string_of_int i))
  done;
  let reduced_to = ref (-1) in
  Corona.State_log.reduce log ~on_done:(fun ~upto -> reduced_to := upto);
  Sim.Engine.run engine;
  Alcotest.(check int) "reduced up to 10" 10 !reduced_to;
  Alcotest.(check int) "log emptied" 0 (Storage.Wal.length wal);
  Alcotest.(check (option string)) "state intact" (Some "0123456789")
    (SS.get (Corona.State_log.state log) "o");
  let base, at = Corona.State_log.base log in
  Alcotest.(check int) "base position" 10 at;
  Alcotest.(check (list (pair string string))) "base objects"
    [ ("o", "0123456789") ] base;
  (* Sequencing continues past the reduction point. *)
  let u = append log "x" in
  Alcotest.(check int) "next seqno continues" 10 u.T.seqno

let test_log_auto_reduction_policy () =
  let engine, wal, _, log = make_log ~policy:(Corona.State_log.Every_n_updates 5) () in
  for i = 0 to 11 do
    ignore (append log (string_of_int i));
    (* Let the checkpoint writes land between batches. *)
    Sim.Engine.run engine
  done;
  Alcotest.(check bool)
    (Printf.sprintf "log stays below threshold (%d)" (Storage.Wal.length wal))
    true
    (Storage.Wal.length wal < 5);
  Alcotest.(check (option string)) "state intact" (Some "01234567891011")
    (SS.get (Corona.State_log.state log) "o")

let test_log_recover_equals_base_plus_history () =
  let engine, wal, checkpoints, log = make_log ~initial:[ ("o", "I") ] () in
  for i = 0 to 4 do
    ignore (append log (string_of_int i))
  done;
  Sim.Engine.run engine;
  (* Everything durable; recover from the checkpoint and replay. *)
  let ck = Option.get (Storage.Snapshot.load checkpoints ~key:"g") in
  let log2 =
    Corona.State_log.recover ck ~wal ~checkpoints
      ~policy:Corona.State_log.No_reduction
  in
  Alcotest.(check (option string)) "state rebuilt" (Some "I01234")
    (SS.get (Corona.State_log.state log2) "o");
  Alcotest.(check int) "position rebuilt" 5 (Corona.State_log.next_seqno log2)

let prop_state_equals_base_plus_retained_log =
  (* The invariant reduction and reconciliation rely on (§3.2): the
     materialized state always equals the base objects plus the retained
     updates, whatever interleaving of appends and reductions happened. *)
  QCheck.Test.make ~name:"state = base + retained log" ~count:100
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 30) (pair (int_range 0 2) bool)))
    (fun ops ->
      let engine, _, _, log = make_log () in
      List.iter
        (fun (obj, reduce) ->
          ignore (append log (Printf.sprintf "<%d>" obj));
          if reduce then begin
            Corona.State_log.reduce log ~on_done:(fun ~upto -> ignore upto);
            Sim.Engine.run engine
          end)
        ops;
      Sim.Engine.run engine;
      let base, at = Corona.State_log.base log in
      let rebuilt = SS.of_objects base in
      List.iter (SS.apply rebuilt) (Corona.State_log.updates_from log at);
      SS.equal rebuilt (Corona.State_log.state log))

(* --- locks ------------------------------------------------------------------ *)

let test_lock_grant_queue_release () =
  let l = Corona.Locks.create () in
  Alcotest.(check bool) "grant" true (Corona.Locks.acquire l ~lock:"x" ~member:"a" = `Granted);
  Alcotest.(check bool) "re-grant to holder" true
    (Corona.Locks.acquire l ~lock:"x" ~member:"a" = `Granted);
  Alcotest.(check bool) "busy" true
    (Corona.Locks.acquire l ~lock:"x" ~member:"b" = `Busy "a");
  Alcotest.(check bool) "duplicate queue entry ignored" true
    (Corona.Locks.acquire l ~lock:"x" ~member:"b" = `Busy "a");
  Alcotest.(check (list string)) "waiters" [ "b" ] (Corona.Locks.waiters l "x");
  (match Corona.Locks.release l ~lock:"x" ~member:"a" with
  | `Released (Some "b") -> ()
  | _ -> Alcotest.fail "expected handoff to b");
  Alcotest.(check (option string)) "b holds" (Some "b") (Corona.Locks.holder l "x");
  (match Corona.Locks.release l ~lock:"x" ~member:"b" with
  | `Released None -> ()
  | _ -> Alcotest.fail "expected free release");
  Alcotest.(check (option string)) "free" None (Corona.Locks.holder l "x")

let test_lock_release_not_holder () =
  let l = Corona.Locks.create () in
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"a");
  Alcotest.(check bool) "not holder" true
    (Corona.Locks.release l ~lock:"x" ~member:"b" = `Not_holder)

let test_lock_release_all () =
  let l = Corona.Locks.create () in
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"a");
  ignore (Corona.Locks.acquire l ~lock:"y" ~member:"a");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"b");
  ignore (Corona.Locks.acquire l ~lock:"y" ~member:"c");
  ignore (Corona.Locks.acquire l ~lock:"z" ~member:"c");
  let released = Corona.Locks.release_all l ~member:"a" in
  Alcotest.(check (list (pair string (option string))))
    "x to b, y to c" [ ("x", Some "b"); ("y", Some "c") ] released;
  (* b was also dropped from queues it sat in. *)
  ignore (Corona.Locks.release_all l ~member:"b");
  Alcotest.(check (option string)) "x free after b gone" None (Corona.Locks.holder l "x")

let test_lock_waiter_crash_mid_queue () =
  (* a holds; b, c, d wait. b crashes while queued: the grant chain must
     skip it and the journal must record the drop as Unqueued, never
     Granted. *)
  let l = Corona.Locks.create ~record_journal:true () in
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"a");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"b");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"c");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"d");
  Alcotest.(check (list (pair string (option string))))
    "crashed waiter held nothing" [] (Corona.Locks.release_all l ~member:"b");
  Alcotest.(check (list string)) "queue skips b" [ "c"; "d" ]
    (Corona.Locks.waiters l "x");
  (match Corona.Locks.release l ~lock:"x" ~member:"a" with
  | `Released (Some "c") -> ()
  | _ -> Alcotest.fail "expected handoff to c, not the crashed b");
  (match Corona.Locks.release l ~lock:"x" ~member:"c" with
  | `Released (Some "d") -> ()
  | _ -> Alcotest.fail "expected handoff to d");
  Alcotest.(check bool) "b never granted" false
    (List.mem (Corona.Locks.Granted ("x", "b")) (Corona.Locks.journal l));
  Alcotest.(check bool) "drop journaled" true
    (List.mem (Corona.Locks.Unqueued ("x", "b")) (Corona.Locks.journal l))

let test_lock_grant_order_interleaved () =
  (* Enqueues interleaved with releases: grants must follow enqueue order
     (b, c, d, e) no matter when each release happens. *)
  let l = Corona.Locks.create () in
  let next_holder m =
    match Corona.Locks.release l ~lock:"x" ~member:m with
    | `Released next -> next
    | `Not_holder -> Alcotest.failf "%s should hold the lock" m
  in
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"a");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"b");
  Alcotest.(check (option string)) "a -> b" (Some "b") (next_holder "a");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"c");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"d");
  Alcotest.(check (option string)) "b -> c" (Some "c") (next_holder "b");
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"e");
  Alcotest.(check (option string)) "c -> d" (Some "d") (next_holder "c");
  Alcotest.(check (list string)) "e still waiting" [ "e" ]
    (Corona.Locks.waiters l "x");
  Alcotest.(check (option string)) "d -> e" (Some "e") (next_holder "d");
  Alcotest.(check (option string)) "e -> free" None (next_holder "e")

let test_lock_double_release () =
  let l = Corona.Locks.create () in
  ignore (Corona.Locks.acquire l ~lock:"x" ~member:"a");
  Alcotest.(check bool) "first release" true
    (Corona.Locks.release l ~lock:"x" ~member:"a" = `Released None);
  Alcotest.(check bool) "second release rejected" true
    (Corona.Locks.release l ~lock:"x" ~member:"a" = `Not_holder);
  (* same after a handoff: the old holder cannot release the new holder's
     lock with a stale second release *)
  ignore (Corona.Locks.acquire l ~lock:"y" ~member:"a");
  ignore (Corona.Locks.acquire l ~lock:"y" ~member:"b");
  (match Corona.Locks.release l ~lock:"y" ~member:"a" with
  | `Released (Some "b") -> ()
  | _ -> Alcotest.fail "expected handoff to b");
  Alcotest.(check bool) "stale release rejected" true
    (Corona.Locks.release l ~lock:"y" ~member:"a" = `Not_holder);
  Alcotest.(check (option string)) "b still holds" (Some "b")
    (Corona.Locks.holder l "y")

let prop_lock_single_holder =
  (* Random acquire/release traffic never yields two holders and never
     grants to someone who did not ask. *)
  QCheck.Test.make ~name:"locks: single holder, FIFO handoff" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 60) (pair (int_range 0 3) bool)))
    (fun ops ->
      let l = Corona.Locks.create () in
      let member i = Printf.sprintf "m%d" i in
      let ok = ref true in
      List.iter
        (fun (i, acquire) ->
          if acquire then (
            match Corona.Locks.acquire l ~lock:"k" ~member:(member i) with
            | `Granted ->
                ok := !ok && Corona.Locks.holder l "k" = Some (member i)
            | `Busy h -> ok := !ok && Some h = Corona.Locks.holder l "k")
          else
            match Corona.Locks.release l ~lock:"k" ~member:(member i) with
            | `Released (Some next) ->
                ok := !ok && Corona.Locks.holder l "k" = Some next
            | `Released None -> ok := !ok && Corona.Locks.holder l "k" = None
            | `Not_holder -> ())
        ops;
      !ok)

(* --- membership ------------------------------------------------------------ *)

let test_membership_join_order_and_rejoin () =
  let m = Corona.Membership.create () in
  Corona.Membership.add m ~member:"a" ~role:T.Principal ~notify:true ~joined_at:0.0;
  Corona.Membership.add m ~member:"b" ~role:T.Observer ~notify:false ~joined_at:1.0;
  Corona.Membership.add m ~member:"c" ~role:T.Principal ~notify:true ~joined_at:2.0;
  Alcotest.(check (list string)) "join order" [ "a"; "b"; "c" ]
    (List.map (fun (x : T.member) -> x.member) (Corona.Membership.members m));
  (* Rejoin updates in place, keeping position. *)
  Corona.Membership.add m ~member:"b" ~role:T.Principal ~notify:true ~joined_at:3.0;
  Alcotest.(check (list string)) "rejoin keeps order" [ "a"; "b"; "c" ]
    (List.map (fun (x : T.member) -> x.member) (Corona.Membership.members m));
  Alcotest.(check (option bool)) "role updated" (Some true)
    (Option.map (fun r -> r = T.Principal) (Corona.Membership.role_of m "b"));
  Alcotest.(check (list string)) "notify targets" [ "a"; "b"; "c" ]
    (Corona.Membership.notify_targets m);
  Alcotest.(check bool) "remove" true (Corona.Membership.remove m "b");
  Alcotest.(check bool) "remove absent" false (Corona.Membership.remove m "b");
  Alcotest.(check int) "count" 2 (Corona.Membership.count m)

(* Membership against a list model kept in join order. Members come from a
   small pool so rejoins and remove-then-rejoin cycles are common; a churn
   op joins a batch of extra members and removes all but one of them again,
   leaving enough tombstones that compaction runs mid-sequence. *)
type membership_op =
  | M_add of int * bool * bool (* pool index, principal?, notify? *)
  | M_remove of int
  | M_churn of int

let prop_membership_matches_model =
  let module M = Corona.Membership in
  let name i = Printf.sprintf "m%d" i in
  let gen =
    let open QCheck.Gen in
    let op =
      frequency
        [
          (4, map3 (fun i p n -> M_add (i, p, n)) (int_range 0 9) bool bool);
          (3, map (fun i -> M_remove i) (int_range 0 9));
          (1, map (fun k -> M_churn k) (int_range 1 30));
        ]
    in
    list_size (int_range 0 60) op
  in
  let print = function
    | M_add (i, p, n) -> Printf.sprintf "add %s%s%s" (name i) (if p then "" else " obs")
                           (if n then " notify" else "")
    | M_remove i -> "remove " ^ name i
    | M_churn k -> Printf.sprintf "churn %d" k
  in
  QCheck.Test.make ~count:300 ~name:"membership matches a join-order list model"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print ops)) gen)
    (fun ops ->
      let m = M.create () in
      let model = ref [] in
      let add ~member ~role ~notify ~joined_at =
        M.add m ~member ~role ~notify ~joined_at;
        let e = { M.member; role; notify; joined_at } in
        if List.exists (fun (x : M.entry) -> x.member = member) !model then
          model := List.map (fun (x : M.entry) -> if x.member = member then e else x) !model
        else model := !model @ [ e ]
      in
      let remove member =
        let present = List.exists (fun (x : M.entry) -> x.member = member) !model in
        model := List.filter (fun (x : M.entry) -> x.member <> member) !model;
        M.remove m member = present
      in
      let agrees () =
        M.entries m = !model
        && M.members m
           = List.map (fun (x : M.entry) -> { T.member = x.member; role = x.role }) !model
        && M.notify_targets m
           = List.filter_map (fun (x : M.entry) -> if x.notify then Some x.member else None) !model
        && M.count m = List.length !model
        && M.is_empty m = (!model = [])
        && List.for_all
             (fun i ->
               M.find m (name i)
               = List.find_opt (fun (x : M.entry) -> x.member = name i) !model)
             (List.init 10 Fun.id)
      in
      let step = ref 0 in
      List.for_all
        (fun op ->
          incr step;
          let joined_at = float_of_int !step in
          let ok =
            match op with
            | M_add (i, p, notify) ->
                add ~member:(name i) ~role:(if p then T.Principal else T.Observer) ~notify
                  ~joined_at;
                true
            | M_remove i -> remove (name i)
            | M_churn k ->
                let extra j = Printf.sprintf "x%d.%d" !step j in
                for j = 0 to k - 1 do
                  add ~member:(extra j) ~role:T.Principal ~notify:(j mod 2 = 0) ~joined_at
                done;
                List.for_all (fun j -> remove (extra j)) (List.init (k - 1) Fun.id)
          in
          ok && agrees ())
        ops)

(* The relay tier's slice partition is pure arithmetic computed independently
   by root, relays, harness and bench; if it ever disagreed with itself two
   relays could both (or neither) claim a member. Property: for any relay
   count and membership size, slice_owner and slice_bounds are exact inverses,
   the slices are contiguous, disjoint, and cover [0, members). *)
let prop_slice_partition =
  QCheck.Test.make ~count:300 ~name:"relay slices partition the membership"
    QCheck.(pair (int_range 1 40) (int_range 0 2_000))
    (fun (relays, members) ->
      let owner = Corona.Membership.slice_owner ~relays ~members in
      let bounds = Corona.Membership.slice_bounds ~relays ~members in
      (* every member index is owned by exactly the relay whose bounds
         contain it *)
      let owned_once = ref true in
      for idx = 0 to members - 1 do
        let o = owner idx in
        owned_once :=
          !owned_once && o >= 0 && o < relays
          && (let lo, hi = bounds o in
              lo <= idx && idx < hi)
          (* and no other relay's slice contains it *)
          && List.for_all
               (fun i ->
                 i = o
                 ||
                 let lo, hi = bounds i in
                 idx < lo || idx >= hi)
               (List.init relays (fun i -> i))
      done;
      (* slices concatenate to [0, members) with no gaps *)
      let contiguous = ref true in
      let next = ref 0 in
      for i = 0 to relays - 1 do
        let lo, hi = bounds i in
        contiguous := !contiguous && lo = !next && hi >= lo;
        next := hi
      done;
      !owned_once && !contiguous && !next = members)

let test_slice_assignment_pinned () =
  (* determinism pin: the exact assignment for (relays=3, members=8) — any
     change to the slice arithmetic shifts members between relays and must
     show up here before it shows up as a failover bug *)
  let owners =
    List.init 8 (fun i -> Corona.Membership.slice_owner ~relays:3 ~members:8 i)
  in
  Alcotest.(check (list int)) "owners" [ 0; 0; 0; 1; 1; 1; 2; 2 ] owners;
  let bounds =
    List.init 3 (fun i -> Corona.Membership.slice_bounds ~relays:3 ~members:8 i)
  in
  Alcotest.(check (list (pair int int))) "bounds" [ (0, 3); (3, 6); (6, 8) ] bounds;
  (* more relays than members: trailing relays front empty slices *)
  Alcotest.(check (pair int int)) "empty slice" (2, 2)
    (Corona.Membership.slice_bounds ~relays:5 ~members:2 4)

(* --- access control ----------------------------------------------------------- *)

let test_access_allowlist () =
  let policy =
    Corona.Access_control.with_join_allowlist Corona.Access_control.allow_all
      [ ("vip", [ "alice" ]) ]
  in
  (match policy.can_join "alice" "vip" T.Principal with
  | Corona.Access_control.Allow -> ()
  | Deny _ -> Alcotest.fail "alice should join");
  (match policy.can_join "bob" "vip" T.Principal with
  | Corona.Access_control.Deny _ -> ()
  | Allow -> Alcotest.fail "bob should be denied");
  match policy.can_join "bob" "public" T.Principal with
  | Corona.Access_control.Allow -> ()
  | Deny _ -> Alcotest.fail "unlisted group falls through"

(* --- transfer ------------------------------------------------------------------ *)

let test_transfer_policies () =
  let _, _, _, log = make_log ~initial:[ ("a", "A"); ("b", "B") ] () in
  for i = 0 to 4 do
    ignore (append log (string_of_int i))
  done;
  let check_bytes spec expected =
    let state, at = Corona.Transfer.join_state log spec in
    Alcotest.(check int) "at current position" 5 at;
    Alcotest.(check int)
      (Format.asprintf "bytes for policy")
      expected
      (Corona.Transfer.bytes state)
  in
  check_bytes T.Full_state 7 (* A + B + "01234" *);
  check_bytes (T.Latest_updates 2) 2;
  check_bytes (T.Objects [ "a" ]) 1;
  check_bytes T.No_state 0

(* The version counter is what keys the snapshot cache: every mutation
   bumps it, reads never do. *)
let test_state_version_semantics () =
  let s = SS.create () in
  let v0 = SS.version s in
  SS.set_object s "a" "x";
  SS.append_object s "a" "y";
  SS.apply s (upd ~kind:T.Set_state "b" "z");
  let v3 = SS.version s in
  Alcotest.(check bool) "mutations bump the version" true (v3 > v0);
  ignore (SS.objects s);
  ignore (SS.get s "a");
  ignore (SS.digest s);
  ignore (SS.restrict s [ "a" ]);
  Alcotest.(check int) "reads leave it alone" v3 (SS.version s);
  SS.clear s;
  Alcotest.(check bool) "clear bumps" true (SS.version s > v3)

(* Two joiners at the same state version share one materialized snapshot
   and get equal payloads; a write in between invalidates. *)
let test_transfer_cache_reuse_and_invalidation () =
  let _, _, _, log = make_log ~initial:[ ("a", "A"); ("b", "B") ] () in
  for i = 0 to 4 do
    ignore (append log (string_of_int i))
  done;
  let open Corona.Transfer in
  let cache = create_cache () in
  let p1 = prepare ~cache log T.Full_state in
  let p2 = prepare ~cache log T.Full_state in
  Alcotest.(check bool) "first prepare misses" false p1.p_cache_hit;
  Alcotest.(check bool) "second prepare hits" true p2.p_cache_hit;
  Alcotest.(check bool) "both are full snapshots" true
    (p1.p_full_snapshot && p2.p_full_snapshot);
  Alcotest.(check (pair int int)) "stats count one of each" (1, 1)
    (cache_stats cache);
  (* the cached payload equals the uncached reference payload *)
  let reference, at = join_state log T.Full_state in
  Alcotest.(check int) "same position" at p1.p_at;
  Alcotest.(check bool) "cached payload = reference payload" true
    (p2.p_state = reference);
  Alcotest.(check bool) "hit shares the miss's payload" true
    (p1.p_state == p2.p_state);
  Alcotest.(check int) "p_bytes matches the reference fold"
    (bytes reference) p2.p_bytes;
  ignore (append log "5");
  let p3 = prepare ~cache log T.Full_state in
  Alcotest.(check bool) "write in between invalidates" false p3.p_cache_hit;
  Alcotest.(check (pair int int)) "second miss recorded" (1, 2)
    (cache_stats cache);
  Alcotest.(check int) "fresh payload reflects the write" 6 p3.p_at

(* An [Updates_since n] request folded past by log reduction degrades to a
   full snapshot — and shares the cached one instead of re-materializing. *)
let test_transfer_cache_reduction_fold () =
  let engine, _, _, log = make_log () in
  for i = 0 to 9 do
    ignore (append log (string_of_int i))
  done;
  Corona.State_log.reduce log ~on_done:(fun ~upto:_ -> ());
  Sim.Engine.run engine;
  let open Corona.Transfer in
  let cache = create_cache () in
  let p1 = prepare ~cache log T.Full_state in
  let p2 = prepare ~cache log (T.Updates_since 3) in
  Alcotest.(check bool) "reduced-past resync is a full snapshot" true
    p2.p_full_snapshot;
  Alcotest.(check bool) "and shares the cached entry" true p2.p_cache_hit;
  Alcotest.(check bool) "same payload" true (p1.p_state == p2.p_state);
  Alcotest.(check (pair int int)) "one materialize for both" (1, 1)
    (cache_stats cache)

(* A joiner served from the cache and one served without it must see the
   same frame: the same wire size and the same decoded message, for a
   plain full snapshot and for a resync folded past by log reduction. *)
let test_cached_and_uncached_joiners_agree () =
  let engine, _, _, log =
    make_log ~initial:(List.init 20 (fun i -> (Printf.sprintf "o%02d" i, String.make 5000 'x'))) ()
  in
  for i = 0 to 9 do
    ignore (append log (string_of_int i))
  done;
  Corona.State_log.reduce log ~on_done:(fun ~upto:_ -> ());
  Sim.Engine.run engine;
  let members =
    List.init 40 (fun i -> { T.member = Printf.sprintf "m%d" i; role = T.Principal })
  in
  let frame (p : Corona.Transfer.prepared) =
    Proto.Message.pre_encode
      (Proto.Message.Response
         (Proto.Message.Join_accepted
            { group = "g"; at_seqno = p.p_at; state = p.p_state; members; multicast = false }))
  in
  let cache = Corona.Transfer.create_cache () in
  ignore (Corona.Transfer.prepare ~cache log T.Full_state);
  List.iter
    (fun spec ->
      let cached = Corona.Transfer.prepare ~cache log spec in
      let uncached = Corona.Transfer.prepare log spec in
      Alcotest.(check bool) "served from the cache" true cached.p_cache_hit;
      let ec = frame cached and eu = frame uncached in
      Alcotest.(check int) "same wire size" (Proto.Message.encoded_wire_size eu)
        (Proto.Message.encoded_wire_size ec);
      let decode e =
        Proto.Message.decode (Proto.Codec.Reader.of_string (Proto.Message.encoded_bytes e))
      in
      Alcotest.(check bool) "same decoded message" true (decode ec = decode eu);
      Alcotest.(check bool) "decodes to what was sent" true
        (decode ec = Proto.Message.encoded_message ec))
    [ T.Full_state; T.Updates_since 3 ]

(* The O(1) prefix-sum byte accounting agrees with folding over the
   retained updates, for every suffix and before/after reduction. *)
let test_log_byte_accounting () =
  let fold_bytes updates =
    List.fold_left (fun acc u -> acc + String.length u.T.data) 0 updates
  in
  let engine, _, _, log = make_log () in
  for i = 0 to 9 do
    ignore (append log (String.make (i + 1) 'x'))
  done;
  for from = 0 to 11 do
    match Corona.State_log.update_bytes_from log from with
    | None -> Alcotest.fail "contiguous history must give an exact count"
    | Some b ->
        Alcotest.(check int)
          (Printf.sprintf "bytes from %d" from)
          (fold_bytes (Corona.State_log.updates_from log from))
          b
  done;
  for n = 0 to 12 do
    match Corona.State_log.latest_updates_bytes log n with
    | None -> Alcotest.fail "latest-n must give an exact count"
    | Some b ->
        Alcotest.(check int)
          (Printf.sprintf "latest %d bytes" n)
          (fold_bytes (Corona.State_log.latest_updates log n))
          b
  done;
  Corona.State_log.reduce log ~on_done:(fun ~upto:_ -> ());
  Sim.Engine.run engine;
  ignore (append log "post");
  Alcotest.(check (option int)) "exact after reduction" (Some 4)
    (Corona.State_log.update_bytes_from log 10);
  Alcotest.(check (option int)) "latest-n clamps to the retained suffix"
    (Some (fold_bytes (Corona.State_log.latest_updates log 5)))
    (Corona.State_log.latest_updates_bytes log 5)

(* --- sharded WAL streams -------------------------------------------------- *)

(* Each shard of a group logs to its own WAL stream ([g#0], [g#1], ... — the
   replication layer's shard_log_name convention) on the shared disk. Group
   commit batches per stream; a crash that eats one stream's in-flight batch
   must leave every other stream's durable prefix untouched. *)

let make_shard_wals () =
  let engine = Sim.Engine.create ~seed:5L () in
  let fabric = Net.Fabric.create engine in
  let host = Net.Fabric.add_host fabric ~name:"h" () in
  (* Slow disk (10 kB/s, 1 ms seek) so batch writes are wide enough to crash
     into deterministically. *)
  let disk = Storage.Disk.create host ~transfer_rate:1e4 ~seek_time:0.001 () in
  let batching = { Storage.Wal.max_batch_bytes = 64 * 1024; max_delay = 0.0 } in
  let wal s = Storage.Wal.create ~batching disk ~name:(Printf.sprintf "g#%d" s) in
  (engine, host, wal 0, wal 1)

let test_shard_wal_crash_confined_to_one_stream () =
  let engine, host, wal0, wal1 = make_shard_wals () in
  let trace = ref [] in
  let record shard i = trace := (shard, i) :: !trace in
  (* Shard 0's records are durable by ~25 ms ... *)
  Storage.Wal.append_sync wal0 ~size:100 "s0r0" ~on_durable:(record 0);
  Storage.Wal.append_sync wal0 ~size:100 "s0r1" ~on_durable:(record 0);
  (* ... shard 1 writes at 100 ms: its first record is durable at ~112.6 ms
     and the follow-up batch is still in flight when the crash lands. *)
  ignore
    (Sim.Engine.schedule engine ~delay:0.1 (fun () ->
         Storage.Wal.append_sync wal1 ~size:100 "s1r0" ~on_durable:(record 1);
         Storage.Wal.append_sync wal1 ~size:100 "s1r1" ~on_durable:(fun _ ->
             Alcotest.fail "shard 1's second batch must die with the crash")));
  ignore (Sim.Engine.schedule engine ~delay:0.115 (fun () -> Net.Host.crash host));
  Sim.Engine.run engine;
  Net.Host.restart host;
  Storage.Wal.crash_recover wal0;
  Storage.Wal.crash_recover wal1;
  (* Durability advanced as a prefix of each stream, never interleaving one
     shard's loss into another's order. *)
  Alcotest.(check (list (pair int int)))
    "per-stream prefix order" [ (0, 0); (0, 1); (1, 0) ]
    (List.rev !trace);
  Alcotest.(check int) "shard 0 intact" 2 (Storage.Wal.durable_upto wal0);
  Alcotest.(check int) "shard 0 keeps both records" 2 (Storage.Wal.length wal0);
  Alcotest.(check int) "shard 1 rolls back to its durable prefix" 1
    (Storage.Wal.durable_upto wal1);
  Alcotest.(check (option string)) "shard 1 prefix survives" (Some "s1r0")
    (Storage.Wal.get wal1 0);
  (* Sequencing resumes per stream exactly where durability left off. *)
  let redone = ref None in
  Storage.Wal.append_sync wal1 ~size:100 "s1r1'" ~on_durable:(fun i ->
      redone := Some i);
  Sim.Engine.run engine;
  Alcotest.(check (option int)) "shard 1 re-appends at index 1" (Some 1) !redone;
  Alcotest.(check int) "shard 0 still untouched" 2 (Storage.Wal.durable_upto wal0)

let test_shard_wal_batches_amortize_per_stream () =
  let engine, _, wal0, wal1 = make_shard_wals () in
  for i = 0 to 3 do
    Storage.Wal.append_sync wal0 ~size:100 (Printf.sprintf "a%d" i)
      ~on_durable:(fun _ -> ());
    Storage.Wal.append_sync wal1 ~size:100 (Printf.sprintf "b%d" i)
      ~on_durable:(fun _ -> ())
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "shard 0 all durable" 4 (Storage.Wal.durable_upto wal0);
  Alcotest.(check int) "shard 1 all durable" 4 (Storage.Wal.durable_upto wal1);
  let c0 = Storage.Wal.commit_stats wal0 in
  let c1 = Storage.Wal.commit_stats wal1 in
  (* Shard 0 hits the idle disk first: one immediate write, the burst
     coalesces behind it. Shard 1 finds the disk busy and commits its whole
     burst in a single physical write. Either way each stream pays its own
     seeks — batches never mix records of different shards. *)
  Alcotest.(check int) "shard 0: immediate write + one batch" 2
    c0.Storage.Wal.physical_writes;
  Alcotest.(check int) "shard 0: batch of three" 3 c0.Storage.Wal.max_batch_records;
  Alcotest.(check int) "shard 1: single batched write" 1
    c1.Storage.Wal.physical_writes;
  Alcotest.(check int) "shard 1: batch of four" 4 c1.Storage.Wal.max_batch_records;
  Alcotest.(check (pair int int)) "every record committed on its own stream"
    (4, 4)
    (c0.Storage.Wal.records_committed, c1.Storage.Wal.records_committed)

(* --- locks under sharding ------------------------------------------------- *)

(* Under sharded sequencing a grant inherited from the wait queue travels as
   a barrier op and reaches members stamped with the full per-shard position
   vector. The journal-replay lock-safety oracle is unchanged by the stamps;
   the cross-shard oracle vets the stamps themselves. Both are driven
   directly here on hand-built evidence. *)

let oracle_input ?(shards = 2) ?(journals = []) ?(barriers = []) () =
  {
    Check.Oracles.i_copies = [];
    i_journals = journals;
    i_clients = [];
    i_client_states = [];
    i_members = [];
    i_expected_members = [];
    i_eras = [];
    i_barriers = barriers;
    i_shards = shards;
    i_relay = false;
  }

let violation_lines vs = List.map Check.Oracles.violation_line vs

let barrier_frame phase bar vector op =
  { Proto.Message.bf_bar = bar; bf_group = "g"; bf_phase = phase; bf_vector = vector; bf_op = op }

let test_sharded_lock_spanning_two_shards () =
  (* One member holds two locks whose grants advance different shards; its
     leave hands both to the queued waiter via two barrier commits, each
     stamped with the full two-shard vector. *)
  let l = Corona.Locks.create ~record_journal:true () in
  ignore (Corona.Locks.acquire l ~lock:"lx" ~member:"alice");
  ignore (Corona.Locks.acquire l ~lock:"ly" ~member:"alice");
  ignore (Corona.Locks.acquire l ~lock:"lx" ~member:"bob");
  ignore (Corona.Locks.acquire l ~lock:"ly" ~member:"bob");
  Alcotest.(check (list (pair string (option string))))
    "both locks inherited by bob"
    [ ("lx", Some "bob"); ("ly", Some "bob") ]
    (Corona.Locks.release_all l ~member:"alice");
  let journals = [ ("n0", "g", Corona.Locks.journal l) ] in
  let frames =
    [
      barrier_frame Proto.Message.Prepare 1_000_000 [] "lock lx -> bob";
      barrier_frame Proto.Message.Commit 1_000_000 [ 3; 1 ] "lock lx -> bob";
      barrier_frame Proto.Message.Prepare 1_000_001 [] "lock ly -> bob";
      barrier_frame Proto.Message.Commit 1_000_001 [ 3; 2 ] "lock ly -> bob";
    ]
  in
  Alcotest.(check (list string)) "journal replay accepts the handoff" []
    (violation_lines (Check.Oracles.locks (oracle_input ~journals ())));
  Alcotest.(check (list string)) "stamped commits accepted" []
    (violation_lines
       (Check.Oracles.cross_shard (oracle_input ~barriers:[ ("n0", frames) ] ())));
  (* A grant stamped on a single shard is exactly the bug partition ordering
     must not have: a cross-shard op serialized against only one stream. *)
  let short =
    [
      barrier_frame Proto.Message.Prepare 1_000_002 [] "lock lx -> bob";
      barrier_frame Proto.Message.Commit 1_000_002 [ 4 ] "lock lx -> bob";
    ]
  in
  Alcotest.(check (list string)) "short vector flagged"
    [ "[cross-shard] n0: commit b1000002 stamps 1 positions for 2 shards" ]
    (violation_lines
       (Check.Oracles.cross_shard (oracle_input ~barriers:[ ("n0", short) ] ())));
  let orphan = [ barrier_frame Proto.Message.Commit 1_000_003 [ 5; 5 ] "lock ly -> bob" ] in
  Alcotest.(check (list string)) "commit without prepare flagged"
    [ "[cross-shard] n0: journaled commit b1000003 without a prepare" ]
    (violation_lines
       (Check.Oracles.cross_shard (oracle_input ~barriers:[ ("n0", orphan) ] ())))

let test_sharded_lock_waiter_crash_mid_barrier () =
  (* bob's inherited grant is inside an in-flight barrier when bob crashes;
     the force-release hands the lock on to carol. Replay must accept that
     chain — and reject the stale grant a buggy replica could still apply
     from the dead waiter's barrier afterwards. *)
  let l = Corona.Locks.create ~record_journal:true () in
  ignore (Corona.Locks.acquire l ~lock:"lk" ~member:"alice");
  ignore (Corona.Locks.acquire l ~lock:"lk" ~member:"bob");
  ignore (Corona.Locks.acquire l ~lock:"lk" ~member:"carol");
  (match Corona.Locks.release l ~lock:"lk" ~member:"alice" with
  | `Released (Some "bob") -> ()
  | _ -> Alcotest.fail "expected handoff to bob");
  Alcotest.(check (list (pair string (option string))))
    "carol inherits from the crashed waiter"
    [ ("lk", Some "carol") ]
    (Corona.Locks.release_all l ~member:"bob");
  let journal = Corona.Locks.journal l in
  Alcotest.(check (list string)) "crash handoff replay is clean" []
    (violation_lines
       (Check.Oracles.locks (oracle_input ~journals:[ ("n0", "g", journal) ] ())));
  let stale = journal @ [ Corona.Locks.Granted ("lk", "bob") ] in
  let vs =
    violation_lines
      (Check.Oracles.locks (oracle_input ~journals:[ ("n0", "g", stale) ] ()))
  in
  let mentions_bob v =
    let sub = "granted to bob" in
    let n = String.length sub in
    let rec go i = i + n <= String.length v && (String.sub v i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "stale grant to the dead waiter flagged" true
    (vs <> [] && List.exists mentions_bob vs)

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "corona-units"
    [
      ( "shared-state",
        [
          tc "set and append" `Quick test_set_and_append;
          tc "objects sorted, sizes" `Quick test_objects_sorted_and_sizes;
          tc "copy independent" `Quick test_copy_is_independent;
          q prop_matches_reference_model;
        ] );
      ( "state-log",
        [
          tc "sequences" `Quick test_log_sequences;
          tc "updates_from and latest" `Quick test_log_updates_from_and_latest;
          tc "reduction preserves state" `Quick test_log_reduction_preserves_state;
          tc "auto reduction policy" `Quick test_log_auto_reduction_policy;
          tc "recover = base + history" `Quick test_log_recover_equals_base_plus_history;
          q prop_state_equals_base_plus_retained_log;
        ] );
      ( "locks",
        [
          tc "grant, queue, release" `Quick test_lock_grant_queue_release;
          tc "release by non-holder" `Quick test_lock_release_not_holder;
          tc "release all on leave" `Quick test_lock_release_all;
          tc "waiter crash mid-queue" `Quick test_lock_waiter_crash_mid_queue;
          tc "grant order, interleaved enqueue" `Quick test_lock_grant_order_interleaved;
          tc "double release rejected" `Quick test_lock_double_release;
          q prop_lock_single_holder;
        ] );
      ( "membership",
        [
          tc "join order and rejoin" `Quick test_membership_join_order_and_rejoin;
          q prop_membership_matches_model;
          tc "slice assignment pinned" `Quick test_slice_assignment_pinned;
          q prop_slice_partition;
        ] );
      ("access-control", [ tc "join allowlist" `Quick test_access_allowlist ]);
      ( "transfer",
        [
          tc "policies" `Quick test_transfer_policies;
          tc "state version semantics" `Quick test_state_version_semantics;
          tc "cache reuse and invalidation" `Quick
            test_transfer_cache_reuse_and_invalidation;
          tc "reduction-folded resync shares cache" `Quick
            test_transfer_cache_reduction_fold;
          tc "cached and uncached joiners get the same frame" `Quick
            test_cached_and_uncached_joiners_agree;
          tc "O(1) byte accounting = reference fold" `Quick
            test_log_byte_accounting;
        ] );
      ( "sharded-wal",
        [
          tc "crash confined to one stream" `Quick
            test_shard_wal_crash_confined_to_one_stream;
          tc "group commit amortizes per stream" `Quick
            test_shard_wal_batches_amortize_per_stream;
        ] );
      ( "sharded-locks",
        [
          tc "grants spanning two shards" `Quick test_sharded_lock_spanning_two_shards;
          tc "waiter crash mid-barrier" `Quick test_sharded_lock_waiter_crash_mid_barrier;
        ] );
    ]
