(* Unit tests for the replication building blocks: the coordinator
   directory, the three election algorithms over a simulated transport, the
   reconciliation calculus, and server-message sizes. *)

module T = Proto.Types
module D = Replication.Directory
module E = Replication.Election
module R = Replication.Reconcile

(* --- directory ---------------------------------------------------------- *)

let test_directory_lifecycle () =
  let d = D.create ~lock_table:(fun _ -> ignore) in
  let e =
    match D.add_group d ~group:"g" ~persistent:true ~first_holder:"s1" with
    | `Ok e -> e
    | `Exists -> Alcotest.fail "fresh group"
  in
  Alcotest.(check bool) "duplicate rejected" true
    (D.add_group d ~group:"g" ~persistent:false ~first_holder:"s2" = `Exists);
  Alcotest.(check (list string)) "holders" [ "s1" ] (D.holders e);
  (match D.join d ~group:"g" ~member:"a" ~role:T.Principal ~notify:true ~server:"s2" with
  | `Ok (_, Some "s1") -> () (* s2 must fetch from s1 *)
  | _ -> Alcotest.fail "expected fetch source s1");
  (match D.join d ~group:"g" ~member:"b" ~role:T.Observer ~notify:false ~server:"s2" with
  | `Ok (_, None) -> () (* s2 already a holder *)
  | _ -> Alcotest.fail "expected no fetch");
  Alcotest.(check (list string)) "replicas" [ "s1"; "s2" ] (D.replicas_of e);
  Alcotest.(check int) "seq 0" 0 (D.sequence e);
  Alcotest.(check int) "seq 1" 1 (D.sequence e);
  D.bump_seqno e 10;
  Alcotest.(check int) "bumped" 10 (D.next_seqno e);
  D.bump_seqno e 3;
  Alcotest.(check int) "bump never lowers" 10 (D.next_seqno e);
  (match D.leave d ~group:"g" ~member:"a" with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "leave");
  Alcotest.(check bool) "not member" true (D.leave d ~group:"g" ~member:"a" = `Not_member)

let test_directory_remove_server () =
  let d = D.create ~lock_table:(fun _ -> ignore) in
  let e =
    match D.add_group d ~group:"g" ~persistent:false ~first_holder:"s1" with
    | `Ok e -> e
    | `Exists -> assert false
  in
  ignore (D.join d ~group:"g" ~member:"a" ~role:T.Principal ~notify:false ~server:"s1");
  ignore (D.join d ~group:"g" ~member:"b" ~role:T.Principal ~notify:false ~server:"s2");
  let lost, need_copy = D.remove_server d "s2" in
  Alcotest.(check (list (pair string (list string)))) "lost members"
    [ ("g", [ "b" ]) ] lost;
  (* s1 survives alone: a new copy is needed, sourced from s1. *)
  Alcotest.(check (list (pair string (option string)))) "needs backup"
    [ ("g", Some "s1") ] need_copy;
  Alcotest.(check (list string)) "holder left" [ "s1" ] (D.holders e);
  (* Killing the last holder reports a lost state. *)
  let _, need2 = D.remove_server d "s1" in
  Alcotest.(check (list (pair string (option string)))) "state lost"
    [ ("g", None) ] need2

let test_directory_rebuild_union () =
  let d = D.create ~lock_table:(fun _ -> ignore) in
  let report server group next members =
    ( server,
      {
        Replication.Smsg.dr_group = group;
        dr_persistent = false;
        dr_next_seqno = next;
        dr_members =
          List.map (fun m -> ({ T.member = m; role = T.Principal }, true)) members;
        dr_origins = [];
        dr_shards = [];
      } )
  in
  D.rebuild d [ report "s1" "g" 5 [ "a" ]; report "s2" "g" 9 [ "b" ] ];
  let e = Option.get (D.find d "g") in
  Alcotest.(check int) "max seqno wins" 9 (D.next_seqno e);
  Alcotest.(check (list string)) "holders unioned" [ "s1"; "s2" ] (D.holders e);
  Alcotest.(check (list string)) "members unioned" [ "a"; "b" ]
    (List.map (fun (m : T.member) -> m.member) (D.members e))

(* The directory before its slot table: members in a hashtable plus a
   join-order list, the replica set re-sorted on every change. Kept here as
   the reference the differential test below holds [Directory] to. *)
module Ref_directory = struct
  type info = { role : T.role; notify : bool; server : string }

  type entry = {
    persistent : bool;
    mutable next_seqno : int;
    members : (string, info) Hashtbl.t;
    mutable order : string list;
    mutable holders : string list;
    mutable replicas : string list;
  }

  let create () : (string, entry) Hashtbl.t = Hashtbl.create 16

  let recompute e =
    let servers =
      Hashtbl.fold
        (fun _ i acc -> if List.mem i.server acc then acc else i.server :: acc)
        e.members []
    in
    e.replicas <- List.sort_uniq String.compare (e.holders @ servers)

  let add_group t ~group ~persistent ~first_holder =
    if not (Hashtbl.mem t group) then
      Hashtbl.replace t group
        {
          persistent;
          next_seqno = 0;
          members = Hashtbl.create 8;
          order = [];
          holders = [ first_holder ];
          replicas = [ first_holder ];
        }

  let put e ~member ~role ~notify ~server =
    if not (Hashtbl.mem e.members member) then e.order <- e.order @ [ member ];
    Hashtbl.replace e.members member { role; notify; server }

  let join t ~group ~member ~role ~notify ~server =
    match Hashtbl.find_opt t group with
    | None -> `No_group
    | Some e ->
        put e ~member ~role ~notify ~server;
        let source =
          if List.mem server e.holders then None
          else begin
            let source = match e.holders with h :: _ -> Some h | [] -> None in
            e.holders <- e.holders @ [ server ];
            source
          end
        in
        recompute e;
        `Ok source

  let leave t ~group ~member =
    match Hashtbl.find_opt t group with
    | None -> `No_group
    | Some e when not (Hashtbl.mem e.members member) -> `Not_member
    | Some e ->
        Hashtbl.remove e.members member;
        e.order <- List.filter (fun m -> m <> member) e.order;
        recompute e;
        `Ok

  let add_holder e server =
    if not (List.mem server e.holders) then begin
      e.holders <- e.holders @ [ server ];
      recompute e
    end

  let remove_server t server =
    let lost = ref [] and need_copy = ref [] in
    Hashtbl.iter
      (fun group e ->
        let here =
          Hashtbl.fold (fun m i acc -> if i.server = server then m :: acc else acc) e.members []
        in
        List.iter (Hashtbl.remove e.members) here;
        e.order <- List.filter (fun m -> not (List.mem m here)) e.order;
        if here <> [] then lost := (group, List.rev here) :: !lost;
        if List.mem server e.holders then begin
          e.holders <- List.filter (fun s -> s <> server) e.holders;
          if List.length e.holders < 2 then
            need_copy := (group, match e.holders with h :: _ -> Some h | [] -> None) :: !need_copy
        end;
        recompute e)
      t;
    (List.rev !lost, List.rev !need_copy)

  let rebuild t reports =
    List.iter
      (fun (server, (r : Replication.Smsg.dir_report)) ->
        add_group t ~group:r.dr_group ~persistent:r.dr_persistent ~first_holder:server;
        let e = Hashtbl.find t r.dr_group in
        if r.dr_next_seqno > e.next_seqno then e.next_seqno <- r.dr_next_seqno;
        add_holder e server;
        List.iter
          (fun ((m : T.member), notify) -> put e ~member:m.member ~role:m.role ~notify ~server)
          r.dr_members;
        recompute e)
      reports
end

(* Groups, servers and members come from small pools, so rejoins (also
   from another server), leaves of absent members and crashes of servers
   with and without members are all common. A churn op joins a batch of
   fresh members and has all but one leave again, so the join-ordered table
   compacts mid-sequence. *)
type dir_op =
  | D_add_group of int * bool * int (* group, persistent, first holder *)
  | D_join of int * int * bool * bool * int (* group, member, principal, notify, server *)
  | D_leave of int * int
  | D_churn of int * int * int (* group, server, batch size *)
  | D_add_holder of int * int
  | D_remove_server of int
  | D_rebuild of (int * int * int * (int * bool) list) list
      (* (server, group, next seqno, (member, notify)) reports *)

let prop_directory_matches_reference =
  let group i = Printf.sprintf "g%d" i and server i = Printf.sprintf "s%d" i in
  let member i = Printf.sprintf "m%d" i in
  let pool = 16 in
  let gen =
    let open QCheck.Gen in
    let g = int_range 0 2 and s = int_range 0 3 and m = int_range 0 (pool - 1) in
    let report = map4 (fun s g n ms -> (s, g, n, ms)) s g (int_range 0 20)
        (list_size (int_range 0 4) (pair m bool)) in
    let op =
      frequency
        [
          (2, map3 (fun g p s -> D_add_group (g, p, s)) g bool s);
          (12, map3 (fun (g, mb) (p, n) s -> D_join (g, mb, p, n, s)) (pair g m) (pair bool bool) s);
          (7, map2 (fun g mb -> D_leave (g, mb)) g m);
          (2, map3 (fun g s k -> D_churn (g, s, k)) g s (int_range 1 40));
          (1, map2 (fun g s -> D_add_holder (g, s)) g s);
          (1, map (fun s -> D_remove_server s) s);
          (1, map (fun rs -> D_rebuild rs) (list_size (int_range 1 3) report));
        ]
    in
    list_size (int_range 50 250) op
  in
  let print = function
    | D_add_group (g, p, s) -> Printf.sprintf "add_group %s%s %s" (group g) (if p then " persistent" else "") (server s)
    | D_join (g, mb, p, n, s) ->
        Printf.sprintf "join %s %s%s%s @%s" (group g) (member mb) (if p then "" else " obs")
          (if n then " notify" else "") (server s)
    | D_leave (g, mb) -> Printf.sprintf "leave %s %s" (group g) (member mb)
    | D_churn (g, s, k) -> Printf.sprintf "churn %s @%s x%d" (group g) (server s) k
    | D_add_holder (g, s) -> Printf.sprintf "add_holder %s %s" (group g) (server s)
    | D_remove_server s -> "remove_server " ^ server s
    | D_rebuild rs ->
        "rebuild "
        ^ String.concat ","
            (List.map (fun (s, g, n, ms) ->
                 Printf.sprintf "%s:%s:%d:[%s]" (server s) (group g) n
                   (String.concat " " (List.map (fun (mb, _) -> member mb) ms)))
               rs)
  in
  QCheck.Test.make ~count:200 ~name:"directory matches the list-and-hashtable reference"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print ops)) gen)
    (fun ops ->
      let d = D.create ~lock_table:(fun _ -> ignore) in
      let r = Ref_directory.create () in
      let fresh = ref 0 in
      let role p = if p then T.Principal else T.Observer in
      let join ~g ~member:mb ~role ~notify ~s =
        let got =
          match D.join d ~group:g ~member:mb ~role ~notify ~server:s with
          | `Ok (_, src) -> `Ok src
          | `No_group -> `No_group
        in
        if got <> Ref_directory.join r ~group:g ~member:mb ~role ~notify ~server:s then
          QCheck.Test.fail_reportf "join %s %s: fetch sources differ" g mb
      in
      let leave ~g ~member:mb =
        let got =
          match D.leave d ~group:g ~member:mb with
          | `Ok _ -> `Ok
          | (`No_group | `Not_member) as x -> x
        in
        if got <> Ref_directory.leave r ~group:g ~member:mb then
          QCheck.Test.fail_reportf "leave %s %s: results differ" g mb
      in
      let step = function
        | D_add_group (g, persistent, s) ->
            ignore (D.add_group d ~group:(group g) ~persistent ~first_holder:(server s));
            Ref_directory.add_group r ~group:(group g) ~persistent ~first_holder:(server s)
        | D_join (g, mb, p, notify, s) ->
            join ~g:(group g) ~member:(member mb) ~role:(role p) ~notify ~s:(server s)
        | D_leave (g, mb) -> leave ~g:(group g) ~member:(member mb)
        | D_churn (g, s, k) ->
            let batch = List.init k (fun _ -> incr fresh; Printf.sprintf "c%d" !fresh) in
            List.iter
              (fun mb -> join ~g:(group g) ~member:mb ~role:T.Principal ~notify:false ~s:(server s))
              batch;
            List.iter (fun mb -> leave ~g:(group g) ~member:mb) (List.tl batch)
        | D_add_holder (g, s) -> (
            match (D.find d (group g), Hashtbl.find_opt r (group g)) with
            | Some e, Some re ->
                D.add_holder e (server s);
                Ref_directory.add_holder re (server s)
            | _ -> ())
        | D_remove_server s ->
            let lost, need = D.remove_server d (server s) in
            let rlost, rneed = Ref_directory.remove_server r (server s) in
            if lost <> rlost || need <> rneed then
              QCheck.Test.fail_reportf "remove_server %s: results differ" (server s)
        | D_rebuild rs ->
            let reports =
              List.map
                (fun (s, g, n, ms) ->
                  ( server s,
                    {
                      Replication.Smsg.dr_group = group g;
                      dr_persistent = false;
                      dr_next_seqno = n;
                      dr_members =
                        List.map (fun (mb, p) -> ({ T.member = member mb; role = role p }, p)) ms;
                      dr_origins = [];
                      dr_shards = [];
                    } ))
                rs
            in
            D.rebuild d reports;
            Ref_directory.rebuild r reports
      in
      let compare_group g =
        match (D.find d g, Hashtbl.find_opt r g) with
        | None, None -> ()
        | Some e, Some re ->
            let rmembers =
              List.map
                (fun m -> { T.member = m; role = (Hashtbl.find re.members m).role })
                re.order
            in
            if D.members e <> rmembers then QCheck.Test.fail_reportf "%s: members differ" g;
            if D.holders e <> re.holders then QCheck.Test.fail_reportf "%s: holders differ" g;
            if D.replicas_of e <> re.replicas then
              QCheck.Test.fail_reportf "%s: replicas differ" g;
            if D.next_seqno e <> re.next_seqno then
              QCheck.Test.fail_reportf "%s: next seqnos differ" g;
            if D.persistent e <> re.persistent then
              QCheck.Test.fail_reportf "%s: persistence differs" g;
            let info m =
              Option.map
                (fun (i : D.member_info) -> (i.mi_role, i.mi_notify, i.mi_server))
                (D.member_info e m)
            in
            let rinfo m =
              Option.map
                (fun (i : Ref_directory.info) -> (i.role, i.notify, i.server))
                (Hashtbl.find_opt re.members m)
            in
            List.iter
              (fun m ->
                if info m <> rinfo m then QCheck.Test.fail_reportf "%s: member_info %s differs" g m)
              (List.init pool member @ re.order
              @ List.map (fun (m : T.member) -> m.member) (D.members e))
        | _ -> QCheck.Test.fail_reportf "%s: exists on one side only" g
      in
      List.iter
        (fun op ->
          step op;
          List.iter (fun g -> compare_group (group g)) [ 0; 1; 2 ])
        ops;
      true)

(* --- election algorithms -------------------------------------------------- *)

(* Simulated transport: 1 ms links, messages to dead peers vanish. *)
let run_algorithm (module A : E.ALGORITHM) ~n ~dead () =
  let engine = Sim.Engine.create ~seed:13L () in
  let all = List.init n (Printf.sprintf "s%02d") in
  let is_alive s = not (List.mem s dead) in
  let outcomes : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let instances : (string, A.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun self ->
      if is_alive self then
        let env =
          {
            E.self;
            all;
            is_alive;
            send =
              (fun ~dst msg ->
                if is_alive dst then
                  ignore
                    (Sim.Engine.schedule engine ~delay:0.001 (fun () ->
                         match Hashtbl.find_opt instances dst with
                         | Some i -> A.handle i ~from:self msg
                         | None -> ())));
            schedule = (fun ~delay f -> ignore (Sim.Engine.schedule engine ~delay f));
            on_elected =
              (fun w ->
                if not (Hashtbl.mem outcomes self) then Hashtbl.replace outcomes self w);
          }
        in
        Hashtbl.replace instances self (A.create env))
    all;
  Hashtbl.iter (fun _ i -> A.start i) instances;
  Sim.Engine.run ~until:30.0 engine;
  Hashtbl.fold (fun s w acc -> (s, w) :: acc) outcomes [] |> List.sort compare

let check_unanimous name results ~expected_winner ~voters =
  Alcotest.(check int) (name ^ ": everyone decided") voters (List.length results);
  List.iter
    (fun (_, w) -> Alcotest.(check string) (name ^ ": winner") expected_winner w)
    results

let test_elections_coordinator_dead () =
  List.iter
    (fun (algo : (module E.ALGORITHM)) ->
      let (module A) = algo in
      let r = run_algorithm algo ~n:5 ~dead:[ "s00" ] () in
      check_unanimous A.name r ~expected_winner:"s01" ~voters:4)
    [ (module E.List_order); (module E.Bully); (module E.Ring) ]

let test_elections_two_simultaneous_deaths () =
  (* The paper's k-crash tolerance: coordinator and the first server die
     together; the second in line must win. *)
  List.iter
    (fun (algo : (module E.ALGORITHM)) ->
      let (module A) = algo in
      let r = run_algorithm algo ~n:6 ~dead:[ "s00"; "s01" ] () in
      check_unanimous A.name r ~expected_winner:"s02" ~voters:4)
    [ (module E.List_order); (module E.Bully); (module E.Ring) ]

let test_election_lone_survivor () =
  let r = run_algorithm (module E.List_order) ~n:3 ~dead:[ "s00"; "s01" ] () in
  check_unanimous "list-order lone" r ~expected_winner:"s02" ~voters:1

(* The list-order vote rule: a voter that acked an earlier-listed candidate
   nacks a later-listed one, and still acks an earlier one after that. *)
let test_list_order_voter_keeps_earliest () =
  let sent = ref [] in
  let env =
    {
      E.self = "s03";
      all = [ "s00"; "s01"; "s02"; "s03" ];
      is_alive = (fun s -> s <> "s00");
      send = (fun ~dst msg -> sent := (dst, msg) :: !sent);
      schedule = (fun ~delay:_ _ -> ());
      on_elected = (fun _ -> ());
    }
  in
  let v = E.List_order.create env in
  E.List_order.start v;
  let vote candidate =
    E.List_order.handle v ~from:candidate (E.Claim { from = candidate });
    match !sent with
    | (dst, E.Claim_ack { candidate = c; ok; _ }) :: _ when dst = c && c = candidate -> ok
    | _ -> Alcotest.failf "no ack sent to %s" candidate
  in
  Alcotest.(check bool) "acks s02" true (vote "s02");
  Alcotest.(check bool) "acks earlier s01" true (vote "s01");
  Alcotest.(check bool) "nacks later s02" false (vote "s02")

(* --- reconcile --------------------------------------------------------------- *)

let upd seqno data =
  { T.seqno; group = "g"; kind = T.Append_update; obj = "o"; data; sender = "s";
    timestamp = 0.0 }

let test_divergence_detection () =
  let common = [ upd 0 "x" ] in
  let a = common @ [ upd 1 "a1"; upd 2 "a2" ] in
  let b = common @ [ upd 1 "b1" ] in
  let d = R.find_divergence ~group:"g" ~a ~b in
  Alcotest.(check int) "common point" 1 d.R.d_common_seqno;
  Alcotest.(check int) "a suffix" 2 (List.length d.R.d_a_suffix);
  Alcotest.(check int) "b suffix" 1 (List.length d.R.d_b_suffix);
  Alcotest.(check bool) "not consistent" false (R.is_consistent d)

let test_prefix_is_consistent_divergence () =
  let a = [ upd 0 "x" ] in
  let b = [ upd 0 "x"; upd 1 "y" ] in
  let d = R.find_divergence ~group:"g" ~a ~b in
  (* One side simply lags: the divergence point is the shorter log's end and
     only the longer side has a suffix. *)
  Alcotest.(check int) "common" 1 d.R.d_common_seqno;
  Alcotest.(check int) "a suffix empty" 0 (List.length d.R.d_a_suffix);
  Alcotest.(check int) "b suffix" 1 (List.length d.R.d_b_suffix)

let side updates = { R.s_base_objects = [ ("o", "base:") ]; s_base_seqno = 0; s_updates = updates }

let test_resolutions () =
  let a = [ upd 0 "pre;"; upd 1 "A1;" ] and b = [ upd 0 "pre;"; upd 1 "B1;"; upd 2 "B2;" ] in
  let d = R.find_divergence ~group:"g" ~a ~b in
  let get1 o = match o.R.o_groups with [ g ] -> g | _ -> Alcotest.fail "one group" in
  let _, objs, at = get1 (R.resolve ~side_a:(side a) ~side_b:(side b) d R.Rollback) in
  Alcotest.(check (list (pair string string))) "rollback state"
    [ ("o", "base:pre;") ] objs;
  Alcotest.(check int) "rollback position" 1 at;
  let _, objs, at = get1 (R.resolve ~side_a:(side a) ~side_b:(side b) d R.Adopt_a) in
  Alcotest.(check (list (pair string string))) "adopt a" [ ("o", "base:pre;A1;") ] objs;
  Alcotest.(check int) "adopt a position" 2 at;
  let _, objs, _ = get1 (R.resolve ~side_a:(side a) ~side_b:(side b) d R.Adopt_b) in
  Alcotest.(check (list (pair string string))) "adopt b" [ ("o", "base:pre;B1;B2;") ] objs;
  match
    (R.resolve ~side_a:(side a) ~side_b:(side b) d
       (R.Fork { suffix_a = "@a"; suffix_b = "@b" }))
      .R.o_groups
  with
  | [ ("g@a", _, _); ("g@b", _, _) ] -> ()
  | _ -> Alcotest.fail "fork names"

let prop_rollback_prefix_of_both =
  QCheck.Test.make ~name:"rollback state is a prefix state of both sides" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 0 6) printable_string)
              (pair (list_of_size Gen.(int_range 0 4) printable_string)
                 (list_of_size Gen.(int_range 0 4) printable_string)))
    (fun (common, (sa, sb)) ->
      let number l ~from = List.mapi (fun i d -> upd (from + i) d) l in
      let c = number common ~from:0 in
      let a = c @ number sa ~from:(List.length common) in
      let b = c @ number sb ~from:(List.length common) in
      let d = R.find_divergence ~group:"g" ~a ~b in
      let o = R.resolve ~side_a:(side a) ~side_b:(side b) d R.Rollback in
      match o.R.o_groups with
      | [ (_, objs, at) ] ->
          let expected = "base:" ^ String.concat "" common in
          (* When one suffix is empty and the other merely extends it, the
             "rollback" point is the shorter end, which still includes all
             common updates. *)
          at >= List.length common
          && (List.assoc_opt "o" objs = Some expected
             || String.length (Option.value (List.assoc_opt "o" objs) ~default:"")
                >= String.length expected)
      | _ -> false)

(* --- smsg sizes ------------------------------------------------------------- *)

let smsg_origin = { Replication.Smsg.og_server = "s"; og_seq = 1 }

let smsg_fwd data =
  Replication.Smsg.Fwd_bcast
    {
      origin = smsg_origin;
      epoch = 3;
      shard = 1;
      group = "g";
      sender = "m";
      kind = T.Set_state;
      obj = "o";
      data;
      mode = T.Sender_inclusive;
    }

let smsg_update data =
  { T.seqno = 0; group = "g"; kind = T.Set_state; obj = "o"; data; sender = "m"; timestamp = 0.0 }

(* A classic deployment is the one-shard layout of the sequencing messages:
   each frame costs what the classic message did, and on a sharded
   deployment what the shard-stamped one did. The stamp is 12 bytes on the
   forward and sequenced messages (epoch + shard) and 4 on gap repair. *)
let test_smsg_sizes_scale () =
  let module S = Replication.Smsg in
  List.iter
    (fun sharded ->
      let mk data = S.wire_size ~sharded (smsg_fwd data) in
      Alcotest.(check int)
        (Printf.sprintf "payload bytes dominate (sharded=%b)" sharded)
        5000
        (mk (String.make 5000 'x') - mk ""))
    [ false; true ];
  let update = smsg_update "x" in
  List.iter
    (fun (name, msg, classic, sharded, stamp) ->
      Alcotest.(check int) (name ^ ", classic") classic (S.wire_size ~sharded:false msg);
      Alcotest.(check int) (name ^ ", sharded") sharded (S.wire_size ~sharded:true msg);
      Alcotest.(check int) (name ^ ", stamp") stamp
        (S.wire_size ~sharded:true msg - S.wire_size ~sharded:false msg))
    [
      ("forward", smsg_fwd "x", 43, 55, 12);
      ( "sequenced",
        S.Sequenced
          { epoch = 3; shard = 1; origin = smsg_origin; update; mode = T.Sender_inclusive },
        59,
        71,
        12 );
      ( "fetch",
        S.Fetch_updates { from = "s"; group = "g"; shard = 1; from_seqno = 4 },
        26,
        30,
        4 );
      ("repair", S.Updates_blob { group = "g"; shard = 1; updates = [ update ] }, 54, 58, 4);
    ]

(* The peer mesh's fan-out: a sequenced update to 6 open peer connections
   through one recycled batch. At steady state the transport recycles every
   per-send record, so only a per-send constant is left (the payload box and
   the boxed issue time), spread over the recipients: 1.50 words per
   recipient measured. *)
let test_smsg_send_batch_allocation () =
  let module S = Replication.Smsg in
  let engine = Sim.Engine.create ~seed:7L () in
  let fabric = Net.Fabric.create engine in
  let src = Net.Fabric.add_host fabric ~name:"s0" () in
  let n = 6 in
  let conns = Array.make n None in
  for i = 0 to n - 1 do
    let peer = Net.Fabric.add_host fabric ~name:(Printf.sprintf "s%d" (i + 1)) () in
    ignore
      (Net.Tcp.listen fabric peer ~port:7100 ~on_accept:(fun c ->
           Net.Tcp.set_receiver c (fun ~size:_ _ -> ())));
    Net.Tcp.connect fabric ~src ~dst:peer ~port:7100
      ~on_connected:(fun c -> conns.(i) <- Some c)
      ~on_failed:(fun () -> Alcotest.fail "peer connect failed")
      ()
  done;
  Sim.Engine.run engine;
  let conns = Array.map Option.get conns in
  let batch = Net.Tcp.batch_create () in
  let msg =
    S.Sequenced
      { epoch = 3; shard = 0; origin = smsg_origin; update = smsg_update "x"; mode = T.Sender_inclusive }
  in
  let send () =
    for i = 0 to n - 1 do
      Net.Tcp.batch_add batch conns.(i)
    done;
    S.send_batch ~sharded:false batch msg
  in
  for _ = 1 to 20 do
    send ();
    Sim.Engine.run engine
  done;
  let rounds = 100 in
  let words = ref 0.0 in
  for _ = 1 to rounds do
    let w0 = Gc.minor_words () in
    send ();
    words := !words +. (Gc.minor_words () -. w0);
    Sim.Engine.run engine
  done;
  let per_recipient = !words /. float_of_int (rounds * n) in
  Alcotest.(check int) "batch empty after the send" 0 (Net.Tcp.batch_length batch);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per recipient <= 2.0" per_recipient)
    true (per_recipient <= 2.0)

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "replication-units"
    [
      ( "directory",
        [
          tc "lifecycle" `Quick test_directory_lifecycle;
          tc "remove server" `Quick test_directory_remove_server;
          tc "rebuild unions reports" `Quick test_directory_rebuild_union;
          q prop_directory_matches_reference;
        ] );
      ( "election",
        [
          tc "coordinator dead: all three algorithms" `Quick
            test_elections_coordinator_dead;
          tc "two simultaneous deaths" `Quick test_elections_two_simultaneous_deaths;
          tc "lone survivor" `Quick test_election_lone_survivor;
          tc "list-order voter keeps the earliest candidate" `Quick
            test_list_order_voter_keeps_earliest;
        ] );
      ( "reconcile",
        [
          tc "divergence detection" `Quick test_divergence_detection;
          tc "prefix counts as lag, not conflict" `Quick
            test_prefix_is_consistent_divergence;
          tc "all four resolutions" `Quick test_resolutions;
          q prop_rollback_prefix_of_both;
        ] );
      ( "smsg",
        [
          tc "wire sizes scale with payload" `Quick test_smsg_sizes_scale;
          tc "peer-mesh batch send allocation" `Quick test_smsg_send_batch_allocation;
        ] );
    ]
