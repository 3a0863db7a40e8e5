(* Deployment builder: turns a [Schedule.kind] into a running service and
   gives the runner one vocabulary of operations (crash / restart /
   partition / heal / reconcile) plus the state extraction the oracles need
   (per-group copies with digests and retained logs, restart-era
   boundaries). The servers keep no checker state: the hooks installed here
   journal every lock table and every barrier step into this module. *)

module Sched = Schedule

type copy = {
  c_owner : string; (* which server/incarnation holds this copy *)
  c_digest : string;
  c_next : int; (* next sequence number the copy expects; sharded copies
                   report the sum of their per-shard positions *)
  c_base : ((Proto.Types.object_id * string) list * int) option;
  c_updates : Proto.Types.update list; (* retained log from the base *)
  c_vector : int list; (* per-shard stream positions; [] unsharded *)
}

type single = {
  s_host : Net.Host.t;
  s_storage : Corona.Server_storage.t;
  s_config : Corona.Server.config;
  mutable s_server : Corona.Server.t;
  mutable s_incarnation : int;
  mutable s_restarts : float list; (* era boundaries, oldest first *)
}

type backend = B_single of single | B_repl of Replication.Cluster.t

(* A relay of the hierarchical dissemination tier (Relay kind only): the
   root stays a B_single backend, so all state extraction is untouched —
   the relays only change where clients connect and what the fan-out path
   looks like. *)
type relay_dep = {
  rd_host : Net.Host.t;
  mutable rd_alive : bool;
}

(* One per lock table, labelled with the server (incarnation) that made it. *)
type lock_journal = {
  lj_owner : string;
  lj_group : Proto.Types.group_id;
  mutable lj_events : Corona.Locks.event list; (* newest first *)
}

type journals = {
  mutable locks : lock_journal list; (* newest table first *)
  barriers : (string, Replication.Node.barrier_step list ref) Hashtbl.t;
      (* node id -> steps, newest first *)
}

type t = {
  fabric : Net.Fabric.t;
  journals : journals;
  backend : backend;
  shards : int;
  relays : relay_dep array; (* [||] unless the kind is Relay *)
  slice_clients : int; (* client count the relay slice partition is over *)
}

let fabric t = t.fabric

let single_config ~sync_log =
  {
    Corona.Server.default_config with
    logging = (if sync_log then Corona.Server.Sync_logging else Corona.Server.Async_logging);
    (* Exercise WAL group commit under randomized fault schedules: a crash
       mid-batch must still satisfy the durability and replay oracles. *)
    wal_batching = Some Storage.Wal.default_batch;
  }

(* The sink of a new lock table: a fresh journal, never its predecessor's. *)
let lock_table journals owner group =
  let j = { lj_owner = owner; lj_group = group; lj_events = [] } in
  journals.locks <- j :: journals.locks;
  fun ev -> j.lj_events <- ev :: j.lj_events

let single_label incarnation = Printf.sprintf "srv-0#%d" incarnation

let start_single fabric journals ~incarnation host ~config ~storage =
  Corona.Server.create fabric host ~config
    ~lock_table:(lock_table journals (single_label incarnation))
    ~storage ()

let node_hooks journals ~skip_barrier id =
  let steps = ref [] in
  Hashtbl.replace journals.barriers id steps;
  {
    Replication.Node.lock_table = lock_table journals id;
    barrier_step = Some (fun step -> steps := step :: !steps);
    skip_barrier;
  }

(* [clients] sizes the relay slice partition (Relay kind only): agent [i]
   connects through relay [Membership.slice_owner ~relays ~members:clients i]. *)
let create fabric ?(bug = Inject.none) ?(clients = 0) (kind : Sched.kind) =
  let journals = { locks = []; barriers = Hashtbl.create 8 } in
  let mk_single ~sync_log =
    let host = Net.Fabric.add_host fabric ~name:"srv-0" () in
    let storage = Corona.Server_storage.create host () in
    let config = single_config ~sync_log in
    {
      s_host = host;
      s_storage = storage;
      s_config = config;
      s_server = start_single fabric journals ~incarnation:0 host ~config ~storage;
      s_incarnation = 0;
      s_restarts = [];
    }
  in
  let mk_cluster config ~replicas =
    Replication.Cluster.create fabric ~config
      ~hooks:(node_hooks journals ~skip_barrier:bug.Inject.skip_barrier)
      ~replicas ()
  in
  match kind with
  | Sched.Single { sync_log } ->
      {
        fabric;
        journals;
        backend = B_single (mk_single ~sync_log);
        shards = 1;
        relays = [||];
        slice_clients = clients;
      }
  | Sched.Relay { relays } ->
      let s = mk_single ~sync_log:false in
      let rds =
        Array.init relays (fun i ->
            let name = Printf.sprintf "relay-%d" i in
            let rd = { rd_host = Net.Fabric.add_host fabric ~name (); rd_alive = true } in
            ignore
              (Corona.Relay.create fabric rd.rd_host ~relay:name ~root:s.s_host
                 ~on_ready:(fun _ -> ())
                 ~on_failed:(fun () -> ())
                 ());
            rd)
      in
      {
        fabric;
        journals;
        backend = B_single s;
        shards = 1;
        relays = rds;
        slice_clients = clients;
      }
  | Sched.Replicated { replicas } ->
      {
        fabric;
        journals;
        backend = B_repl (mk_cluster Replication.Node.default_config ~replicas);
        shards = 1;
        relays = [||];
        slice_clients = clients;
      }
  | Sched.Sharded { replicas; shards } ->
      let config = { Replication.Node.default_config with shards } in
      {
        fabric;
        journals;
        backend = B_repl (mk_cluster config ~replicas);
        shards;
        relays = [||];
        slice_clients = clients;
      }

let shards t = t.shards

let node_at cluster idx = List.nth (Replication.Cluster.nodes cluster) idx

let server_host t idx =
  match t.backend with
  | B_single s -> s.s_host
  | B_repl c -> Replication.Node.host (node_at c idx)

let relay_alive t i =
  i >= 0 && i < Array.length t.relays
  && t.relays.(i).rd_alive
  && Net.Host.is_alive t.relays.(i).rd_host

(* The relay agent [i] should connect through right now: its slice's
   canonical owner, or — after that relay died — the next alive sibling in
   index order, wrapping. [None] when every relay is down (connect straight
   to the root, degraded but correct). *)
let owning_relay t i =
  match Array.length t.relays with
  | 0 -> None
  | n ->
      let members = max t.slice_clients (i + 1) in
      let owner = Corona.Membership.slice_owner ~relays:n ~members i in
      let rec probe k =
        if k = n then None
        else if relay_alive t ((owner + k) mod n) then
          Some t.relays.((owner + k) mod n)
        else probe (k + 1)
      in
      probe 0

(* Where agent [i] should (re)connect right now. Replicated assignments
   follow [Cluster.replica_for], so after a serving replica dies its agents
   land on a live one; relay deployments route through the slice's owning
   (or adopting) relay. *)
let client_target t i =
  match t.backend with
  | B_single s -> (
      match owning_relay t i with
      | Some rd -> rd.rd_host
      | None -> s.s_host)
  | B_repl c -> Replication.Node.host (Replication.Cluster.replica_for c i)

(* Relay deployments: kill a relay's host permanently. Its control and
   proxied connections die with it; members fail over client-side. *)
let crash_relay t idx =
  match Array.length t.relays with
  | 0 -> ()
  | n ->
      let rd = t.relays.(idx mod n) in
      if rd.rd_alive then begin
        rd.rd_alive <- false;
        Net.Host.crash rd.rd_host
      end

let crash_server t idx =
  match t.backend with
  | B_single s -> Net.Host.crash s.s_host
  | B_repl c -> Net.Host.crash (Replication.Node.host (node_at c idx))

(* Single deployment only: bring the host back and start a fresh server
   incarnation over the same stable storage (§6 recovery). *)
let restart_server t =
  match t.backend with
  | B_repl _ -> ()
  | B_single s ->
      Net.Host.restart s.s_host;
      s.s_incarnation <- s.s_incarnation + 1;
      s.s_restarts <- s.s_restarts @ [ Sim.Engine.now (Net.Fabric.engine t.fabric) ];
      s.s_server <-
        start_single t.fabric t.journals ~incarnation:s.s_incarnation s.s_host
          ~config:s.s_config ~storage:s.s_storage

let restart_times t =
  match t.backend with B_single s -> s.s_restarts | B_repl _ -> []

let partition t ~isolated =
  let isolated_names =
    List.map (fun idx -> Net.Host.name (server_host t idx)) isolated
  in
  let kept =
    List.filter_map
      (fun h ->
        let n = Net.Host.name h in
        if List.mem n isolated_names then None else Some n)
      (Net.Fabric.hosts t.fabric)
  in
  Net.Fabric.partition t.fabric [ kept; isolated_names ]

let heal t = Net.Fabric.heal t.fabric

let live_nodes t =
  match t.backend with B_single _ -> [] | B_repl c -> Replication.Cluster.live_nodes c

let group_ids t =
  match t.backend with
  | B_single s ->
      if Net.Host.is_alive s.s_host then Corona.Server.group_ids s.s_server else []
  | B_repl c ->
      List.concat_map Replication.Node.groups_held (Replication.Cluster.live_nodes c)
      |> List.sort_uniq String.compare

let copies t group =
  match t.backend with
  | B_single s ->
      if not (Net.Host.is_alive s.s_host) then []
      else begin
        match
          ( Corona.Server.group_state s.s_server group,
            Corona.Server.group_next_seqno s.s_server group )
        with
        | Some state, Some next ->
            [
              {
                c_owner = single_label s.s_incarnation;
                c_digest = Corona.Shared_state.digest state;
                c_next = next;
                c_base = Corona.Server.group_base s.s_server group;
                c_updates =
                  (match Corona.Server.group_base s.s_server group with
                  | Some (_, base_seqno) ->
                      Corona.Server.group_updates_from s.s_server group base_seqno
                  | None -> []);
                c_vector = [];
              };
            ]
        | _ -> []
      end
  | B_repl c when t.shards > 1 ->
      (* sharded copies: digest the merged object view, expose the per-shard
         position vector for the cross-shard oracle *)
      List.filter_map
        (fun node ->
          match
            ( Replication.Node.group_shard_objects node group,
              Replication.Node.group_shard_vector node group )
          with
          | Some objects, Some vec ->
              Some
                {
                  c_owner = Replication.Node.id node;
                  c_digest =
                    Corona.Shared_state.digest (Corona.Shared_state.of_objects objects);
                  c_next = Array.fold_left ( + ) 0 vec;
                  c_base = None;
                  c_updates = [];
                  c_vector = Array.to_list vec;
                }
          | _ -> None)
        (Replication.Cluster.live_nodes c)
  | B_repl c ->
      List.filter_map
        (fun node ->
          match
            ( Replication.Node.group_state node group,
              Replication.Node.group_next_seqno node group )
          with
          | Some state, Some next ->
              Some
                {
                  c_owner = Replication.Node.id node;
                  c_digest = Corona.Shared_state.digest state;
                  c_next = next;
                  c_base = Replication.Node.group_base node group;
                  c_updates =
                    (match Replication.Node.group_base node group with
                    | Some (_, base_seqno) ->
                        Replication.Node.group_updates_from node group base_seqno
                    | None -> []);
                  c_vector = [];
                }
          | _ -> None)
        (Replication.Cluster.live_nodes c)

(* The servers' view of a group's membership (replicated: union of the
   members each live node serves). *)
let members t group =
  match t.backend with
  | B_single s ->
      if not (Net.Host.is_alive s.s_host) then []
      else
        List.map
          (fun (m : Proto.Types.member) -> m.member)
          (Corona.Server.group_members s.s_server group)
  | B_repl c ->
      List.concat_map
        (fun node ->
          List.map
            (fun (m : Proto.Types.member) -> m.member)
            (Replication.Node.group_local_members node group))
        (Replication.Cluster.live_nodes c)
      |> List.sort_uniq String.compare

let lock_journals t =
  List.rev_map (fun j -> (j.lj_owner, j.lj_group, List.rev j.lj_events)) t.journals.locks

(* Cross-shard barrier journals of every live node that ever coordinated
   barriers (owner label, steps oldest first). *)
let barrier_journals t =
  List.filter_map
    (fun node ->
      match !(Hashtbl.find t.journals.barriers (Replication.Node.id node)) with
      | [] -> None
      | steps -> Some (Replication.Node.id node, List.rev steps))
    (live_nodes t)

(* After a heal: compare every group's live copies; when two disagree, run
   the §4.2 reconciliation adopting the freshest side, otherwise just
   re-unify the cluster under the earliest live server. *)
let reconcile_after_heal t =
  match t.backend with
  | B_single _ -> ()
  | B_repl c when t.shards > 1 ->
      (* sharded copies have no retained per-group log to merge: adopt the
         freshest merged view (largest position sum) on every stale node,
         then re-unify under one coordinator so shard recovery re-runs *)
      let live = Replication.Cluster.live_nodes c in
      List.iter
        (fun group ->
          let holders =
            List.filter_map
              (fun n ->
                match
                  ( Replication.Node.group_shard_objects n group,
                    Replication.Node.group_shard_vector n group )
                with
                | Some objects, Some vec -> Some (n, objects, vec)
                | _ -> None)
              live
          in
          match holders with
          | [] | [ _ ] -> ()
          | holders ->
              let sum = Array.fold_left ( + ) 0 in
              let _, best_objects, best_vec =
                List.fold_left
                  (fun (bn, bo, bv) (n, o, v) ->
                    if sum v > sum bv then (n, o, v) else (bn, bo, bv))
                  (List.hd holders) (List.tl holders)
              in
              let positions =
                Array.to_list (Array.mapi (fun s p -> (s, p)) best_vec)
              in
              List.iter
                (fun (n, objects, vec) ->
                  if vec <> best_vec || objects <> best_objects then
                    Replication.Node.adopt_group_state n group
                      ~objects:best_objects ~positions)
                holders)
        (group_ids t);
      (match live with
      | [] -> ()
      | first :: _ ->
          let coord = Replication.Node.id first in
          List.iter (fun n -> Replication.Node.admin_heal n ~coordinator:coord) live)
  | B_repl c ->
      let live = Replication.Cluster.live_nodes c in
      let reconciled = ref false in
      List.iter
        (fun group ->
          let holders =
            List.filter_map
              (fun n ->
                match
                  ( Replication.Node.group_next_seqno n group,
                    Replication.Node.group_state n group )
                with
                | Some next, Some state ->
                    Some (n, next, Corona.Shared_state.digest state)
                | _ -> None)
              live
          in
          match holders with
          | [] | [ _ ] -> ()
          | holders -> (
              let (best, best_next, best_digest) =
                List.fold_left
                  (fun (bn, bx, bd) (n, next, d) ->
                    if next > bx then (n, next, d) else (bn, bx, bd))
                  (List.hd holders) (List.tl holders)
              in
              match
                List.find_opt
                  (fun (n, next, d) ->
                    Replication.Node.id n <> Replication.Node.id best
                    && (next <> best_next || d <> best_digest))
                  holders
              with
              | None -> ()
              | Some (other, _, _) ->
                  reconciled := true;
                  ignore
                    (Replication.Cluster.reconcile c ~group ~side_a:best ~side_b:other
                       ~resolution:Replication.Reconcile.Adopt_a)))
        (group_ids t);
      if not !reconciled then begin
        match live with
        | [] -> ()
        | first :: _ ->
            let coord = Replication.Node.id first in
            List.iter (fun n -> Replication.Node.admin_heal n ~coordinator:coord) live
      end
