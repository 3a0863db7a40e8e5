(* Wait queues are FIFO with O(1) amortized enqueue/dequeue: the Queue holds
   (member, ticket) entries and [queued] maps each waiting member to its
   currently-valid ticket. Removing a waiter (leave/crash) or re-enqueueing
   after removal just invalidates the old ticket; stale queue entries are
   skipped lazily on grant, so grant order is exactly enqueue order of the
   live tickets. The seed implementation paid O(n) per enqueue ([List.mem] +
   list append) — O(n²) to fill a queue. *)

type event =
  | Granted of Proto.Types.lock_id * Proto.Types.member_id
  | Queued of Proto.Types.lock_id * Proto.Types.member_id
  | Unqueued of Proto.Types.lock_id * Proto.Types.member_id
  | Released of Proto.Types.lock_id * Proto.Types.member_id

type lock_state = {
  mutable holder : Proto.Types.member_id;
  waiting : (Proto.Types.member_id * int) Queue.t;
  queued : (Proto.Types.member_id, int) Hashtbl.t; (* member -> live ticket *)
  mutable next_ticket : int;
}

type t = {
  locks : (Proto.Types.lock_id, lock_state) Hashtbl.t;
  on_event : event -> unit;
}

let create ~on_event = { locks = Hashtbl.create 8; on_event }

let enqueue t s lock member =
  if not (Hashtbl.mem s.queued member) then begin
    let ticket = s.next_ticket in
    s.next_ticket <- ticket + 1;
    Hashtbl.replace s.queued member ticket;
    Queue.add (member, ticket) s.waiting;
    t.on_event (Queued (lock, member))
  end

let acquire t ~lock ~member =
  match Hashtbl.find_opt t.locks lock with
  | None ->
      Hashtbl.replace t.locks lock
        { holder = member; waiting = Queue.create (); queued = Hashtbl.create 4; next_ticket = 0 };
      t.on_event (Granted (lock, member));
      `Granted
  | Some s when s.holder = member -> `Granted
  | Some s ->
      enqueue t s lock member;
      `Busy s.holder

let rec grant_next t lock s =
  match Queue.take_opt s.waiting with
  | None ->
      Hashtbl.remove t.locks lock;
      None
  | Some (next, ticket) -> (
      match Hashtbl.find_opt s.queued next with
      | Some live when live = ticket ->
          Hashtbl.remove s.queued next;
          s.holder <- next;
          t.on_event (Granted (lock, next));
          Some next
      | Some _ | None -> grant_next t lock s (* stale entry: waiter left or re-queued *))

let release t ~lock ~member =
  match Hashtbl.find_opt t.locks lock with
  | Some s when s.holder = member ->
      t.on_event (Released (lock, member));
      `Released (grant_next t lock s)
  | Some _ | None -> `Not_holder

let release_all t ~member =
  let released = ref [] in
  let locks = Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.locks [] in
  List.iter
    (fun (lock, s) ->
      if Hashtbl.mem s.queued member then begin
        Hashtbl.remove s.queued member;
        t.on_event (Unqueued (lock, member))
      end;
      if s.holder = member then begin
        t.on_event (Released (lock, member));
        released := (lock, grant_next t lock s) :: !released
      end)
    locks;
  List.sort (fun (la, _) (lb, _) -> String.compare la lb) !released

let holder t lock =
  Option.map (fun s -> s.holder) (Hashtbl.find_opt t.locks lock)

let waiters t lock =
  match Hashtbl.find_opt t.locks lock with
  | None -> []
  | Some s ->
      Queue.fold
        (fun acc (m, ticket) ->
          match Hashtbl.find_opt s.queued m with
          | Some live when live = ticket -> m :: acc
          | Some _ | None -> acc)
        [] s.waiting
      |> List.rev

