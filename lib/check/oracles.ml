(* The invariant oracles. Each takes the post-quiescence evidence — client
   observation logs, server state copies, lock journals — and returns
   violations; an empty list means the run upheld the protocol contract. *)

type violation = { v_oracle : string; v_detail : string }

let violation_line v = Printf.sprintf "[%s] %s" v.v_oracle v.v_detail

type input = {
  i_copies : (string * Deploy.copy list) list; (* per group, live copies *)
  i_journals : (string * string * Corona.Locks.event list) list;
      (* (owner, group, events) — one journal per lock table *)
  i_clients : Observe.t list;
  i_client_states : (string * string * string) list;
      (* (agent, group, digest) for agents joined & connected at the end *)
  i_client_views : (string * string * string list) list;
      (* (agent, group, Client.members) for agents joined & connected at the
         end *)
  i_members : (string * string list) list; (* per group, the servers' view *)
  i_expected_members : (string * string list) list;
      (* per group, agents that believe they are joined at the end *)
  i_eras : float list; (* single-server restart times, oldest first *)
  i_barriers : (string * Replication.Node.barrier_step list) list;
      (* per coordinating node, its cross-shard barrier journal (oldest
         first); [] unsharded *)
  i_shards : int; (* deployment shard count; 1 = classic sequencing *)
  i_relay : bool; (* relay-fronted deployment: delivery completeness applies *)
}

(* Sequence numbers restart below their high-water mark when a single
   server recovers from a crash that lost un-flushed log tail (§6 accepts
   this), so cross-client agreement is scoped to the server era a delivery
   happened in. *)
let era_of eras at = List.length (List.filter (fun t -> t <= at) eras)

(* Oracle 1 — total order: within each (re)join segment a client observes a
   contiguous, strictly increasing run of sequence numbers, and any two
   clients that observe the same (era, seqno) of a group observe the same
   update. *)
let total_order input =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "total-order"; v_detail = d } :: !violations) fmt in
  let seen : (string * int * int, string * string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun obs ->
      let agent = Observe.agent obs in
      List.iter
        (fun group ->
          let expected = ref None in
          List.iter
            (fun item ->
              match item with
              | Observe.S_start { next; _ } -> expected := Some next
              | Observe.S_update { at; seqno; sender; kind; obj; data } -> (
                  (match !expected with
                  | None ->
                      add "%s: %s delivered #%d before any join" agent group seqno
                  | Some e when seqno <> e ->
                      add "%s: %s expected #%d, delivered #%d" agent group e seqno
                  | Some _ -> ());
                  expected := Some (seqno + 1);
                  let key = (group, era_of input.i_eras at, seqno) in
                  let content = Printf.sprintf "%s|%s|%s|%s" sender kind obj data in
                  match Hashtbl.find_opt seen key with
                  | None -> Hashtbl.replace seen key (content, agent)
                  | Some (content', agent') when content' <> content ->
                      add "%s #%d differs between %s (%s) and %s (%s)" group seqno
                        agent' content' agent content
                  | Some _ -> ()))
            (Observe.stream obs ~group))
        (Observe.groups_seen obs))
    input.i_clients;
  List.rev !violations

(* Oracle 2 — state convergence: every live copy of a group (server-side
   and the replicas kept by clients still in the group) reports the same
   digest, and the server copies agree on the next sequence number. *)
let convergence input =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "convergence"; v_detail = d } :: !violations) fmt in
  List.iter
    (fun (group, copies) ->
      match copies with
      | [] -> ()
      | ({ Deploy.c_owner; c_digest; c_next; _ } as _ref_copy) :: rest ->
          List.iter
            (fun (c : Deploy.copy) ->
              if c.c_digest <> c_digest then
                add "%s: %s digest %s <> %s digest %s" group c_owner c_digest c.c_owner
                  c.c_digest;
              if c.c_next <> c_next then
                add "%s: %s next=%d <> %s next=%d" group c_owner c_next c.c_owner
                  c.c_next)
            rest;
          List.iter
            (fun (agent, g, digest) ->
              if g = group && digest <> c_digest then
                add "%s: client %s digest %s <> %s digest %s" group agent digest c_owner
                  c_digest)
            input.i_client_states)
    input.i_copies;
  List.rev !violations

(* Oracle 3 — membership sanity: no member appears twice in a view, a join
   view contains the joiner, a leave/crash view does not contain the
   departed, and at quiescence the servers' member list of each group is
   exactly the set of agents that believe they are joined, and every
   connected subscriber's view — its join-time list with each notified
   change applied — holds that same set. *)
let membership input =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "membership"; v_detail = d } :: !violations) fmt in
  List.iter
    (fun obs ->
      let agent = Observe.agent obs in
      List.iter
        (fun (_, entry) ->
          match entry with
          | Observe.View { group; change; members } -> (
              let sorted = List.sort String.compare members in
              let rec dup = function
                | a :: (b :: _ as tl) -> if a = b then Some a else dup tl
                | _ -> None
              in
              (match dup sorted with
              | Some m -> add "%s: %s saw %s twice in a view (%s)" group agent m change
              | None -> ());
              match String.index_opt change ' ' with
              | Some i -> (
                  let verb = String.sub change 0 i in
                  let who = String.sub change (i + 1) (String.length change - i - 1) in
                  match verb with
                  | "joined" when not (List.mem who members) ->
                      add "%s: %s got '%s' but view omits them" group agent change
                  | "left" | "crashed" ->
                      if List.mem who members then
                        add "%s: %s got '%s' but view still lists them" group agent
                          change
                  | _ -> ())
              | None -> ())
          | _ -> ())
        (Observe.entries obs))
    input.i_clients;
  List.iter
    (fun (group, actual) ->
      let expected =
        match List.assoc_opt group input.i_expected_members with
        | Some l -> List.sort String.compare l
        | None -> []
      in
      let actual = List.sort String.compare actual in
      if actual <> expected then
        add "%s: servers list [%s] but joined agents are [%s]" group
          (String.concat "," actual) (String.concat "," expected))
    input.i_members;
  List.iter
    (fun (agent, group, view) ->
      let servers =
        match List.assoc_opt group input.i_members with
        | Some l -> List.sort String.compare l
        | None -> []
      in
      let view = List.sort String.compare view in
      if view <> servers then
        add "%s: %s's view is [%s] but servers list [%s]" group agent
          (String.concat "," view) (String.concat "," servers))
    input.i_client_views;
  List.rev !violations

(* Oracle 4 — lock safety: replay each journal against the model "one
   holder at a time, grants strictly in queue order, releases only by the
   holder". *)
let locks input =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "locks"; v_detail = d } :: !violations) fmt in
  List.iter
    (fun (owner, group, events) ->
      let tables : (string, string option ref * string list ref) Hashtbl.t =
        Hashtbl.create 4
      in
      let table lock =
        match Hashtbl.find_opt tables lock with
        | Some t -> t
        | None ->
            let t = (ref None, ref []) in
            Hashtbl.replace tables lock t;
            t
      in
      List.iter
        (fun (ev : Corona.Locks.event) ->
          match ev with
          | Granted (lock, m) -> (
              let holder, queue = table lock in
              (match !holder with
              | Some h ->
                  add "%s/%s@%s: granted to %s while %s holds it" group lock owner m h
              | None -> ());
              holder := Some m;
              match !queue with
              | head :: tl ->
                  if head = m then queue := tl
                  else
                    add "%s/%s@%s: granted to %s but %s is first in queue" group lock
                      owner m head
              | [] -> ())
          | Queued (lock, m) ->
              let _, queue = table lock in
              queue := !queue @ [ m ]
          | Unqueued (lock, m) ->
              let _, queue = table lock in
              let rec drop = function
                | [] ->
                    add "%s/%s@%s: unqueued %s who was not queued" group lock owner m;
                    []
                | x :: tl -> if x = m then tl else x :: drop tl
              in
              queue := drop !queue
          | Released (lock, m) -> (
              let holder, _ = table lock in
              match !holder with
              | Some h when h = m -> holder := None
              | Some h ->
                  add "%s/%s@%s: %s released a lock held by %s" group lock owner m h
              | None -> add "%s/%s@%s: %s released a free lock" group lock owner m))
        events)
    input.i_journals;
  List.rev !violations

(* Oracle 5 — log-reduction fidelity: for every copy, base state + retained
   updates must replay to exactly the live materialized state, and the
   retained log must be contiguous from the base. *)
let fidelity input =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "fidelity"; v_detail = d } :: !violations) fmt in
  List.iter
    (fun (group, copies) ->
      List.iter
        (fun (c : Deploy.copy) ->
          match c.Deploy.c_base with
          | None -> ()
          | Some (objects, base_seqno) ->
              let state = Corona.Shared_state.of_objects objects in
              List.iteri
                (fun i (u : Proto.Types.update) ->
                  if u.seqno <> base_seqno + i then
                    add "%s@%s: retained log has #%d where #%d belongs" group
                      c.Deploy.c_owner u.seqno (base_seqno + i);
                  Corona.Shared_state.apply state u)
                c.Deploy.c_updates;
              let replayed = Corona.Shared_state.digest state in
              if replayed <> c.Deploy.c_digest then
                add "%s@%s: base+log replays to %s but live state is %s" group
                  c.Deploy.c_owner replayed c.Deploy.c_digest;
              let end_seqno = base_seqno + List.length c.Deploy.c_updates in
              if end_seqno <> c.Deploy.c_next then
                add "%s@%s: base+log ends at #%d but next seqno is %d" group
                  c.Deploy.c_owner end_seqno c.Deploy.c_next)
        copies)
    input.i_copies;
  List.rev !violations

(* Oracle 6 — cross-shard total order. Sharded deployments only. Barriers
   are the one place the N independent shard streams must agree on a common
   point, so the oracle checks that the stamps behaved like a total order:

   - agreement: every observer of barrier [bar] saw the same group, the
     same per-shard position vector and the same op;
   - monotonicity: the vectors one agent observes for a group never move
     backwards in any component (barriers are totally ordered per group);
   - journal shape: a Commit is journaled only after a Prepare of the same
     barrier, and its stamped vector covers every shard;
   - no unstamped views: every membership view a client sees in a sharded
     group is matched by a barrier stamp (catches the skip-barrier
     injection, which fans views directly);
   - copy agreement: live server copies of a group report identical
     per-shard position vectors at quiescence. *)
let cross_shard input =
  if input.i_shards <= 1 then []
  else begin
    let violations = ref [] in
    let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "cross-shard"; v_detail = d } :: !violations) fmt in
    let vec_s v = String.concat "," (List.map string_of_int v) in
    let seen : (int, string * int list * string * string) Hashtbl.t =
      Hashtbl.create 32
    in
    List.iter
      (fun obs ->
        let agent = Observe.agent obs in
        let last : (string, int list) Hashtbl.t = Hashtbl.create 4 in
        let views : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 4 in
        let counts group =
          match Hashtbl.find_opt views group with
          | Some c -> c
          | None ->
              let c = (ref 0, ref 0) in
              Hashtbl.replace views group c;
              c
        in
        List.iter
          (fun (_, e) ->
            match e with
            | Observe.View { group; _ } ->
                let plain, _ = counts group in
                incr plain
            | Observe.Shard_view { group; bar; vector; op } -> (
                (match Hashtbl.find_opt seen bar with
                | None -> Hashtbl.replace seen bar (group, vector, op, agent)
                | Some (g', v', o', a') ->
                    if g' <> group || v' <> vector || o' <> op then
                      add "bar %d: %s saw %s/[%s]/%s but %s saw %s/[%s]/%s" bar a' g'
                        (vec_s v') o' agent group (vec_s vector) op);
                if List.length vector <> input.i_shards then
                  add "%s: %s bar %d stamped %d positions for %d shards" agent group
                    bar (List.length vector) input.i_shards;
                (match Hashtbl.find_opt last group with
                | Some prev
                  when List.length prev = List.length vector
                       && List.exists2 (fun p v -> v < p) prev vector ->
                    add "%s: %s bar %d vector [%s] moved backwards from [%s]" agent
                      group bar (vec_s vector) (vec_s prev)
                | _ -> ());
                Hashtbl.replace last group vector;
                if String.length op >= 4 && String.sub op 0 4 = "view" then begin
                  let _, stamped = counts group in
                  incr stamped
                end)
            | _ -> ())
          (Observe.entries obs);
        Hashtbl.iter
          (fun group (plain, stamped) ->
            if !plain > !stamped then
              add "%s: %s saw %d membership views but only %d barrier stamps" agent
                group !plain !stamped)
          views)
      input.i_clients;
    List.iter
      (fun (owner, steps) ->
        let prepared : (int, unit) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun ({ bar; phase; vector; _ } : Replication.Node.barrier_step) ->
            match phase with
            | Prepare -> Hashtbl.replace prepared bar ()
            | Commit ->
                if not (Hashtbl.mem prepared bar) then
                  add "%s: journaled commit b%d without a prepare" owner bar;
                if List.length vector <> input.i_shards then
                  add "%s: commit b%d stamps %d positions for %d shards" owner bar
                    (List.length vector) input.i_shards)
          steps)
      input.i_barriers;
    List.iter
      (fun (group, copies) ->
        match
          List.filter (fun (c : Deploy.copy) -> c.Deploy.c_vector <> []) copies
        with
        | [] -> ()
        | c0 :: rest ->
            List.iter
              (fun (c : Deploy.copy) ->
                if c.Deploy.c_vector <> c0.Deploy.c_vector then
                  add "%s: %s vector [%s] <> %s vector [%s]" group c0.Deploy.c_owner
                    (vec_s c0.Deploy.c_vector) c.Deploy.c_owner
                    (vec_s c.Deploy.c_vector))
              rest)
      input.i_copies;
    List.rev !violations
  end

(* Oracle 7 — delivery completeness. Relay deployments only: the relay hop
   and its crash-failover path add places where a tail of a group's stream
   can silently go missing (a relay dies with fan-outs in flight, a member
   "fails over" to a sibling but never resyncs). Every agent still expected
   in a group at quiescence must have advanced its observed stream to the
   root's next sequence number: the position folds Joined baselines and
   Delivered seqnos, so a member that crashed its relay and correctly
   rejoined with Updates_since ends at [c_next] even though it never saw
   the in-flight losses as deliveries. Catches the skip-failover
   injection, whose stalled members stop short. *)
let completeness input =
  if not input.i_relay then []
  else begin
    let violations = ref [] in
    let add fmt = Printf.ksprintf (fun d -> violations := { v_oracle = "completeness"; v_detail = d } :: !violations) fmt in
    let position obs ~group =
      List.fold_left
        (fun pos item ->
          match item with
          | Observe.S_start { next; _ } -> max pos next
          | Observe.S_update { seqno; _ } -> max pos (seqno + 1))
        (-1)
        (Observe.stream obs ~group)
    in
    List.iter
      (fun (group, expected) ->
        match List.assoc_opt group input.i_copies with
        | None | Some [] -> ()
        | Some (copy :: _) ->
            let next = copy.Deploy.c_next in
            List.iter
              (fun member ->
                match
                  List.find_opt
                    (fun o -> Observe.agent o = member)
                    input.i_clients
                with
                | None -> add "%s: expected member %s has no observation log" group member
                | Some obs ->
                    let pos = position obs ~group in
                    if pos < 0 then
                      add "%s: %s is expected in the group but never observed its stream"
                        group member
                    else if pos < next then
                      add "%s: %s stalled at position %d but the root's stream reached %d"
                        group member pos next)
              expected)
      input.i_expected_members;
    List.rev !violations
  end

let check input =
  total_order input @ convergence input @ membership input @ locks input
  @ fidelity input @ cross_shard input @ completeness input
