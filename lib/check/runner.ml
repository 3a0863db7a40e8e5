(* Schedule executor. Builds the deployment, drives client agents through
   the schedule's traffic and fault events, runs the simulation to
   quiescence and hands the evidence to the oracles.

   Everything here is deterministic: agent behaviour depends only on the
   schedule and on simulation callbacks, so the same (seed, schedule) pair
   replays the same trace byte-for-byte. *)

module T = Proto.Types

(* Re-export of the injection registry's record so callers keep writing
   [{ Runner.skip_reconcile = ...; ... }] literals while [bin/corona_check]
   parses and documents the flags from the single {!Inject.specs} source. *)
type bug = Inject.t = {
  skip_reconcile : bool;
  skip_rejoin : bool;
  skip_barrier : bool;
  relay_crash : bool;
  skip_failover : bool;
}

let no_bug = Inject.none

type result = {
  r_violations : Oracles.violation list;
  r_trace : string list;
  r_deliveries : int;
}

let ms x = float_of_int x /. 1000.

let group_name i = Printf.sprintf "g%d" i

type agent = {
  a_idx : int;
  a_name : string;
  a_host : Net.Host.t;
  a_obs : Observe.t;
  a_groups : string list;
  mutable a_client : Corona.Client.t option; (* live connection *)
  mutable a_old : Corona.Client.t option; (* kept for single-mode reconnect *)
  mutable a_want : bool; (* should currently be connected *)
  a_joined_once : (string, unit) Hashtbl.t;
  a_pending_locks : (string * string, int) Hashtbl.t; (* queued acquire → hold ms *)
  mutable a_payload : int;
}

let execute ?(bug = no_bug) ~seed (sched : Schedule.t) =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Net.Fabric.create engine in
  let deploy =
    Deploy.create fabric ~bug ~clients:sched.Schedule.clients sched.Schedule.kind
  in
  (* Relay deployments keep a single root, so they share the single-mode
     reconnect path (surviving replicas + Updates_since resync) — just
     against whichever relay now owns the member's slice. *)
  let single =
    match sched.Schedule.kind with
    | Schedule.Single _ | Schedule.Relay _ -> true
    | Schedule.Replicated _ | Schedule.Sharded _ -> false
  in
  let relay =
    match sched.Schedule.kind with
    | Schedule.Relay _ -> true
    | Schedule.Single _ | Schedule.Replicated _ | Schedule.Sharded _ -> false
  in
  let groups = List.init sched.Schedule.groups group_name in
  let agents =
    Array.init sched.Schedule.clients (fun i ->
        let name = Printf.sprintf "c%d" i in
        {
          a_idx = i;
          a_name = name;
          a_host =
            Net.Fabric.add_host fabric ~name:(Printf.sprintf "cl-%d" i)
              ~cpu:Net.Host.sparc20 ();
          a_obs = Observe.create name;
          a_groups =
            List.sort_uniq String.compare
              [
                group_name (i mod sched.Schedule.groups);
                group_name ((i + 1) mod sched.Schedule.groups);
              ];
          a_client = None;
          a_old = None;
          a_want = true;
          a_joined_once = Hashtbl.create 4;
          a_pending_locks = Hashtbl.create 4;
          a_payload = 0;
        })
  in
  let now () = Sim.Engine.now engine in
  let record a e = Observe.record a.a_obs ~now:(now ()) e in
  let after delay k = ignore (Sim.Engine.schedule engine ~delay k) in
  let at_ms t_ms k = ignore (Sim.Engine.schedule_at engine (ms t_ms) k) in
  let live_client a =
    match a.a_client with
    | Some c when Corona.Client.is_connected c -> Some c
    | Some _ | None -> None
  in
  let release_lock a group lock =
    match live_client a with
    | None -> ()
    | Some c ->
        Corona.Client.release_lock c ~group ~lock ~k:(fun reply ->
            match reply with
            | Corona.Client.R_lock `Released -> record a (Observe.Lock_released { group; lock })
            | Corona.Client.R_failed why ->
                record a (Observe.Note (Printf.sprintf "release %s/%s failed: %s" group lock why))
            | _ -> ())
  in
  let rec join_group a g ~attempts =
    match live_client a with
    | None -> ()
    | Some c ->
        Corona.Client.rejoin c ~group:g ~notify:true ~k:(fun reply ->
            match reply with
            | Corona.Client.R_join { at_seqno; _ } ->
                Hashtbl.replace a.a_joined_once g ();
                record a (Observe.Joined { group = g; next = at_seqno })
            | Corona.Client.R_failed why ->
                record a (Observe.Join_failed { group = g; why });
                if attempts > 0 then
                  after 0.4 (fun () -> join_group a g ~attempts:(attempts - 1))
            | _ -> ())
          ()
  in
  let join_groups a =
    List.iter
      (fun g ->
        if bug.skip_rejoin && Hashtbl.mem a.a_joined_once g then
          record a (Observe.Note (Printf.sprintf "skipping rejoin of %s (injected bug)" g))
        else join_group a g ~attempts:30)
      a.a_groups
  in
  let rec agent_event a c ev =
    match ev with
    | Corona.Client.Delivered (u : T.update) ->
        record a
          (Observe.Delivered
             {
               group = u.group;
               seqno = u.seqno;
               sender = u.sender;
               kind = (match u.kind with T.Set_state -> "set" | T.Append_update -> "append");
               obj = u.obj;
               data = u.data;
             })
    | Corona.Client.Membership_changed { group; change } ->
        let change_s =
          match change with
          | T.Member_joined m -> Printf.sprintf "joined %s" m.member
          | T.Member_left m -> Printf.sprintf "left %s" m
          | T.Member_crashed m -> Printf.sprintf "crashed %s" m
        in
        record a
          (Observe.View
             {
               group;
               change = change_s;
               members =
                 List.map
                   (fun (m : T.member) -> m.member)
                   (Corona.Client.members c ~group);
             })
    | Corona.Client.Lock_granted_later { group; lock } -> (
        record a (Observe.Lock_granted { group; lock });
        match Hashtbl.find_opt a.a_pending_locks (group, lock) with
        | Some hold_ms ->
            Hashtbl.remove a.a_pending_locks (group, lock);
            after (ms hold_ms) (fun () -> release_lock a group lock)
        | None ->
            (* a coordinator change can replay a queued acquire we no longer
               want (release re-forwarded as acquire); give it straight back *)
            after 0.05 (fun () -> release_lock a group lock))
    | Corona.Client.Shard_delivered { shard; update = u } ->
        (* synthesized per-stream group name: the unchanged total-order
           oracle then checks each shard's stream independently *)
        record a
          (Observe.Delivered
             {
               group = Printf.sprintf "%s#%d" u.T.group shard;
               seqno = u.T.seqno;
               sender = u.T.sender;
               kind = (match u.T.kind with T.Set_state -> "set" | T.Append_update -> "append");
               obj = u.T.obj;
               data = u.T.data;
             })
    | Corona.Client.Shard_view { group; bar; vector; op } ->
        record a (Observe.Shard_view { group; bar; vector; op })
    | Corona.Client.Shard_joined { group; vector } ->
        (* one stream (re)start marker per shard, at the snapshot baseline *)
        List.iteri
          (fun s next ->
            record a
              (Observe.Joined { group = Printf.sprintf "%s#%d" group s; next }))
          vector
    | Corona.Client.Group_was_deleted group ->
        record a (Observe.Note (Printf.sprintf "group %s deleted" group))
    | Corona.Client.Disconnected reason ->
        record a
          (Observe.Conn_lost
             { reason = Format.asprintf "%a" Net.Tcp.pp_close_reason reason });
        a.a_old <- a.a_client;
        a.a_client <- None;
        if a.a_want then begin
          if relay && bug.skip_failover then
            record a (Observe.Note "skipping relay failover (injected bug)")
          else after 0.5 (fun () -> reconnect_agent a)
        end
  and reconnect_agent a =
    if a.a_want && Net.Host.is_alive a.a_host && live_client a = None then begin
      let target = Deploy.client_target deploy a.a_idx in
      if not (Net.Host.is_alive target) then after 0.7 (fun () -> reconnect_agent a)
      else begin
        let on_connected c =
          a.a_client <- Some c;
          a.a_old <- None;
          record a (Observe.Connected { incarnation = Net.Host.epoch a.a_host });
          join_groups a
        in
        let on_failed () = after 0.7 (fun () -> reconnect_agent a) in
        match a.a_old with
        | Some old when single ->
            (* same root, surviving local replicas: the §6 reconnection
               path (Updates_since + sender-assisted resend); in relay
               mode [target] is whichever relay now owns the slice, so a
               member of a crashed relay fails over to the sibling and
               resyncs from its holdback baseline *)
            Corona.Client.reconnect old ~server:target ~on_connected
              ~on_failed ()
        | Some _ | None ->
            Corona.Client.connect fabric ~host:a.a_host ~server:target
              ~member:a.a_name
              ~on_event:(fun c ev -> agent_event a c ev)
              ~on_connected ~on_failed ()
      end
    end
  in
  (* --- bring the world up ---------------------------------------------- *)
  let creator_joined = ref false in
  Array.iter
    (fun a ->
      at_ms (200 + (150 * a.a_idx)) (fun () ->
          let on_connected c =
            a.a_client <- Some c;
            record a (Observe.Connected { incarnation = Net.Host.epoch a.a_host });
            if a.a_idx = 0 && not !creator_joined then begin
              creator_joined := true;
              List.iter
                (fun g ->
                  Corona.Client.create_group c ~group:g ~persistent:single
                    ~initial:[ ("o0", "seed:" ^ g) ]
                    ~k:(fun reply ->
                      match reply with
                      | Corona.Client.R_ok | Corona.Client.R_join _ -> ()
                      | Corona.Client.R_failed why ->
                          record a
                            (Observe.Note
                               (Printf.sprintf "create %s failed: %s" g why))
                      | _ -> ())
                    ())
                groups;
              after 0.2 (fun () -> join_groups a)
            end
            else join_groups a
          in
          Corona.Client.connect fabric ~host:a.a_host ~server:(Deploy.client_target deploy a.a_idx)
            ~member:a.a_name
            ~on_event:(fun c ev -> agent_event a c ev)
            ~on_connected
            ~on_failed:(fun () -> after 0.7 (fun () -> reconnect_agent a))
            ()))
    agents;
  (* --- wire the schedule ------------------------------------------------ *)
  let payload a size =
    a.a_payload <- a.a_payload + 1;
    let tag = Printf.sprintf "%s-%d:" a.a_name a.a_payload in
    let pad = max 1 (size - String.length tag) in
    tag ^ String.make pad 'x'
  in
  List.iter
    (fun ev ->
      match ev with
      | Schedule.Crash_server { server; at_ms = at; down_ms } ->
          at_ms at (fun () -> Deploy.crash_server deploy server);
          if single then at_ms (at + down_ms) (fun () -> Deploy.restart_server deploy)
      | Schedule.Client_churn { client; at_ms = at; down_ms; crash } ->
          let a = agents.(client mod Array.length agents) in
          at_ms at (fun () ->
              a.a_want <- false;
              if crash then begin
                record a Observe.Crashed;
                Net.Host.crash a.a_host
              end
              else begin
                match a.a_client with
                | Some c ->
                    Corona.Client.disconnect c;
                    a.a_old <- Some c;
                    a.a_client <- None;
                    record a (Observe.Conn_lost { reason = "graceful" })
                | None -> ()
              end);
          at_ms (at + down_ms) (fun () ->
              a.a_want <- true;
              if crash && not (Net.Host.is_alive a.a_host) then begin
                Net.Host.restart a.a_host;
                record a Observe.Restarted;
                (* the crashed process lost its in-memory replicas *)
                a.a_old <- None
              end;
              reconnect_agent a)
      | Schedule.Partition_servers { servers; at_ms = at; dur_ms } ->
          at_ms at (fun () -> Deploy.partition deploy ~isolated:servers);
          at_ms (at + dur_ms) (fun () -> Deploy.heal deploy);
          at_ms
            (at + dur_ms + 1_000)
            (fun () -> if not bug.skip_reconcile then Deploy.reconcile_after_heal deploy)
      | Schedule.Burst { client; group; at_ms = at; count; size } ->
          let a = agents.(client mod Array.length agents) in
          let g = group_name (group mod sched.Schedule.groups) in
          at_ms at (fun () ->
              match live_client a with
              | Some c when List.mem g (Corona.Client.joined_groups c) ->
                  for _ = 1 to count do
                    let n = a.a_payload in
                    Corona.Client.bcast_update c ~group:g
                      ~obj:(Printf.sprintf "o%d" (n mod 3))
                      ~data:(payload a size) ~mode:T.Sender_inclusive ()
                  done
              | Some _ | None ->
                  record a (Observe.Note (Printf.sprintf "burst on %s skipped" g)))
      | Schedule.Hot_burst { client; group; at_ms = at; count; size } ->
          let a = agents.(client mod Array.length agents) in
          let g = group_name (group mod sched.Schedule.groups) in
          at_ms at (fun () ->
              match live_client a with
              | Some c when List.mem g (Corona.Client.joined_groups c) ->
                  (* every update hits one object, so under sharding one
                     stream absorbs the whole burst *)
                  for _ = 1 to count do
                    Corona.Client.bcast_update c ~group:g ~obj:"hot"
                      ~data:(payload a size) ~mode:T.Sender_inclusive ()
                  done
              | Some _ | None ->
                  record a (Observe.Note (Printf.sprintf "hot burst on %s skipped" g)))
      | Schedule.Lock_cycle { client; group; lock; at_ms = at; hold_ms } ->
          let a = agents.(client mod Array.length agents) in
          let g = group_name (group mod sched.Schedule.groups) in
          let l = Printf.sprintf "lk%d" lock in
          at_ms at (fun () ->
              match live_client a with
              | Some c when List.mem g (Corona.Client.joined_groups c) ->
                  Corona.Client.acquire_lock c ~group:g ~lock:l ~k:(fun reply ->
                      match reply with
                      | Corona.Client.R_lock `Granted ->
                          record a (Observe.Lock_granted { group = g; lock = l });
                          after (ms hold_ms) (fun () -> release_lock a g l)
                      | Corona.Client.R_lock (`Busy _) ->
                          Hashtbl.replace a.a_pending_locks (g, l) hold_ms
                      | Corona.Client.R_failed why ->
                          record a
                            (Observe.Note
                               (Printf.sprintf "acquire %s/%s failed: %s" g l why))
                      | _ -> ())
              | Some _ | None ->
                  record a (Observe.Note (Printf.sprintf "lock on %s skipped" g)))
      | Schedule.Crash_relay { relay = r; at_ms = at } ->
          at_ms at (fun () -> Deploy.crash_relay deploy r)
      | Schedule.Reduce { client; group; at_ms = at } ->
          let a = agents.(client mod Array.length agents) in
          let g = group_name (group mod sched.Schedule.groups) in
          at_ms at (fun () ->
              match live_client a with
              | Some c when List.mem g (Corona.Client.joined_groups c) ->
                  Corona.Client.reduce_log c ~group:g ~k:(fun reply ->
                      match reply with
                      | Corona.Client.R_reduced n ->
                          record a
                            (Observe.Note (Printf.sprintf "reduced %s to %d" g n))
                      | _ -> ())
              | Some _ | None -> ())
      )
    sched.Schedule.events;
  (* The relay-crash hazard injection: on top of whatever the schedule
     drew, deterministically kill relay 0 mid-run. Not a bug — failover
     must keep every oracle green. *)
  if relay && bug.relay_crash then
    at_ms (sched.Schedule.horizon_ms / 2) (fun () -> Deploy.crash_relay deploy 0);
  (* --- run to quiescence ------------------------------------------------ *)
  let settle = if single then 8.0 else 20.0 in
  Sim.Engine.run engine ~until:(ms sched.Schedule.horizon_ms +. settle);
  (* --- gather evidence -------------------------------------------------- *)
  let obs = Array.to_list (Array.map (fun a -> a.a_obs) agents) in
  let group_ids = Deploy.group_ids deploy in
  let client_states =
    Array.to_list agents
    |> List.concat_map (fun a ->
           match live_client a with
           | None -> []
           | Some c ->
               List.filter_map
                 (fun g ->
                   Option.map
                     (fun st -> (a.a_name, g, Corona.Shared_state.digest st))
                     (Corona.Client.replica c g))
                 (List.sort String.compare (Corona.Client.joined_groups c)))
  in
  let client_views =
    Array.to_list agents
    |> List.concat_map (fun a ->
           match live_client a with
           | None -> []
           | Some c ->
               List.map
                 (fun g ->
                   ( a.a_name,
                     g,
                     List.map
                       (fun (m : T.member) -> m.member)
                       (Corona.Client.members c ~group:g) ))
                 (Corona.Client.joined_groups c))
  in
  (* Intent, not the client's own belief: an agent that wants to be in the
     group but stalled or forgot it (the injected skip-failover and
     skip-rejoin) must still be judged — that is exactly the membership and
     completeness oracles' job. *)
  let expected_members =
    List.map
      (fun g ->
        ( g,
          Array.to_list agents
          |> List.filter_map (fun a ->
                 if
                   a.a_want
                   && Net.Host.is_alive a.a_host
                   && Hashtbl.mem a.a_joined_once g
                 then Some a.a_name
                 else None) ))
      group_ids
  in
  let input =
    {
      Oracles.i_copies = List.map (fun g -> (g, Deploy.copies deploy g)) group_ids;
      i_journals = Deploy.lock_journals deploy;
      i_clients = obs;
      i_client_states = client_states;
      i_client_views = client_views;
      i_members = List.map (fun g -> (g, Deploy.members deploy g)) group_ids;
      i_expected_members = expected_members;
      i_eras = Deploy.restart_times deploy;
      i_barriers = Deploy.barrier_journals deploy;
      i_shards = Deploy.shards deploy;
      i_relay = relay;
    }
  in
  let trace = List.concat_map Observe.lines obs in
  let deliveries =
    List.fold_left
      (fun acc o ->
        List.fold_left
          (fun acc (_, e) ->
            match e with Observe.Delivered _ -> acc + 1 | _ -> acc)
          acc (Observe.entries o))
      0 obs
  in
  { r_violations = Oracles.check input; r_trace = trace; r_deliveries = deliveries }
