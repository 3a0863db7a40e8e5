type t = {
  fabric : Net.Fabric.t;
  all : Node.t list; (* startup order, coordinator first *)
}

let fabric t = t.fabric

let nodes t = t.all

let create fabric ?(config = Node.default_config) ?(hooks = fun _ -> Node.no_hooks)
    ?(server_cpu = Net.Host.ultrasparc) ~replicas () =
  let names = List.init (replicas + 1) (Printf.sprintf "srv-%d") in
  let hosts =
    List.map (fun name -> Net.Fabric.add_host fabric ~name ~cpu:server_cpu ()) names
  in
  let coordinator = List.hd names in
  let all =
    List.map
      (fun host ->
        let storage = Corona.Server_storage.create host () in
        Node.create fabric host ~config ~hooks:(hooks (Net.Host.name host)) ~storage
          ~server_list:names ~coordinator ())
      hosts
  in
  List.iter (fun n -> Node.connect_peers n all) all;
  { fabric; all }

let node t id_ = List.find (fun n -> Node.id n = id_) t.all

let live_nodes t = List.filter (fun n -> Net.Host.is_alive (Node.host n)) t.all

let coordinator t =
  List.find
    (fun n -> Net.Host.is_alive (Node.host n) && Node.role n = Node.Coordinator)
    t.all

let replica_for t i =
  match live_nodes t with
  | [] -> invalid_arg "Cluster.replica_for: no live nodes"
  | _ :: [] as only -> List.nth only 0
  | _ :: rest -> List.nth rest (i mod List.length rest)

let side_of node group =
  let base_objects, base_seqno =
    match Node.group_base node group with Some b -> b | None -> ([], 0)
  in
  {
    Reconcile.s_base_objects = base_objects;
    s_base_seqno = base_seqno;
    s_updates = Node.group_updates_from node group base_seqno;
  }

let reconcile t ~group ~side_a ~side_b ~resolution =
  let a = side_of side_a group and b = side_of side_b group in
  let d = Reconcile.find_divergence ~group ~a:a.Reconcile.s_updates ~b:b.Reconcile.s_updates in
  let outcome = Reconcile.resolve ~side_a:a ~side_b:b d resolution in
  let live = live_nodes t in
  List.iter
    (fun (g, objects, at_seqno) ->
      List.iter
        (fun n -> Node.adopt_group_state n g ~objects ~positions:[ (0, at_seqno) ])
        live)
    outcome.Reconcile.o_groups;
  (* Re-unify under the earliest live server in the startup list. *)
  (match live with
  | [] -> ()
  | first :: _ ->
      let coord = Node.id first in
      List.iter (fun n -> Node.admin_heal n ~coordinator:coord) live);
  d
