type message =
  | Claim of { from : string }
  | Claim_ack of { from : string; candidate : string; ok : bool }
  | Election of { from : string }
  | Answer of { from : string }
  | Victory of { from : string }
  | Token of { candidate : string }

type env = {
  self : string;
  all : string list;
  is_alive : string -> bool;
  send : dst:string -> message -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  on_elected : string -> unit;
}

module type ALGORITHM = sig
  type t

  val name : string

  val create : env -> t

  val start : t -> unit

  val handle : t -> from:string -> message -> unit
end

let base_timeout = 0.1

let live env = List.filter env.is_alive env.all

let peers env = List.filter (fun s -> s <> env.self) (live env)

(* Index of [who] in [l]; servers not listed sort last. *)
let index who l =
  Option.value (List.find_index (String.equal who) l) ~default:(List.length l)

(* Position of [who] in the live list; ranks shift as the detector learns
   about more failures, which is what gives the escalating-timeout
   tolerance of k simultaneous crashes. *)
let rank env who = index who (live env)

(* Place of [who] in the startup list: the static priority (for bully too:
   Garcia-Molina uses ids, the order is what matters). *)
let position env who = index who env.all

module List_order = struct
  type t = {
    env : env;
    timeout : float;
    mutable electing : bool; (* coordinator believed dead, no winner yet *)
    mutable acks : string list;
    mutable acked : string option; (* earliest-listed candidate acked *)
  }

  let name = "list-order"

  let create_with ~timeout env =
    { env; timeout; electing = false; acks = []; acked = None }

  let create env = create_with ~timeout:base_timeout env

  let electing t = t.electing

  let stand_down t =
    t.electing <- false;
    t.acked <- None

  (* Half+1 of the servers believed alive, counting ourselves. *)
  let majority t = (List.length (live t.env) / 2) + 1

  let win t =
    if t.electing then begin
      stand_down t;
      t.env.on_elected t.env.self;
      List.iter (fun dst -> t.env.send ~dst (Victory { from = t.env.self })) (peers t.env)
    end

  let rec claim t =
    if t.electing then begin
      t.acks <- [ t.env.self ];
      t.acked <- Some t.env.self;
      List.iter (fun dst -> t.env.send ~dst (Claim { from = t.env.self })) (peers t.env);
      if List.length t.acks >= majority t then win t
      else
        (* Retry: acks may be lost, or peers may not yet suspect. *)
        t.env.schedule ~delay:t.timeout (fun () -> claim t)
    end

  (* Escalating timeout (§4.2): rank r claims after r timeouts of silence,
     implicitly asserting that the r live servers ahead of it are down too —
     whether or not the failure detector confirmed it (it cannot, across a
     partition). An earlier-listed live candidate claims first and wins the
     ack race. *)
  let start t =
    if not t.electing then begin
      t.electing <- true;
      let r = rank t.env t.env.self in
      if r = 0 then claim t
      else
        t.env.schedule ~delay:(float_of_int r *. t.timeout) (fun () ->
            if t.electing then claim t)
    end

  let handle t ~from:_ msg =
    match msg with
    | Claim { from = candidate } ->
        let ok =
          t.electing
          &&
          match t.acked with
          | None -> true
          | Some prev -> position t.env candidate <= position t.env prev
        in
        if ok then t.acked <- Some candidate;
        t.env.send ~dst:candidate (Claim_ack { from = t.env.self; candidate; ok })
    | Claim_ack { from = voter; candidate; ok } ->
        if t.electing && candidate = t.env.self && ok then begin
          if not (List.mem voter t.acks) then t.acks <- voter :: t.acks;
          if List.length t.acks >= majority t then win t
        end
    | Victory { from = winner } ->
        stand_down t;
        t.env.on_elected winner
    | Election _ | Answer _ | Token _ -> ()
end

module Bully = struct
  type t = {
    env : env;
    mutable decided : bool;
    mutable awaiting_answer : bool;
    mutable awaiting_victory : bool;
  }

  let name = "bully"

  let create env =
    { env; decided = false; awaiting_answer = false; awaiting_victory = false }

  let decide t winner =
    if not t.decided then begin
      t.decided <- true;
      t.env.on_elected winner
    end

  let higher t =
    List.filter
      (fun s -> s <> t.env.self && position t.env s < position t.env t.env.self)
      (live t.env)

  let announce_victory t =
    decide t t.env.self;
    List.iter (fun dst -> t.env.send ~dst (Victory { from = t.env.self })) (peers t.env)

  let rec start t =
    if not t.decided then
      match higher t with
      | [] -> announce_victory t
      | hs ->
          t.awaiting_answer <- true;
          List.iter (fun dst -> t.env.send ~dst (Election { from = t.env.self })) hs;
          t.env.schedule ~delay:base_timeout (fun () ->
              if t.awaiting_answer && not t.decided then announce_victory t)

  and await_victory t =
    t.awaiting_victory <- true;
    t.env.schedule ~delay:(3.0 *. base_timeout) (fun () ->
        if t.awaiting_victory && not t.decided then start t)

  let handle t ~from msg =
    match msg with
    | Election { from = starter } ->
        if position t.env t.env.self < position t.env starter then begin
          t.env.send ~dst:from (Answer { from = t.env.self });
          if (not t.decided) && not t.awaiting_answer then start t
        end
    | Answer _ ->
        t.awaiting_answer <- false;
        if not t.decided then await_victory t
    | Victory { from = winner } ->
        t.awaiting_victory <- false;
        decide t winner
    | Claim _ | Claim_ack _ | Token _ -> ()
end

module Ring = struct
  type t = { env : env; mutable decided : bool; mutable forwarded_self : bool }

  let name = "ring"

  let create env = { env; decided = false; forwarded_self = false }

  let decide t winner =
    if not t.decided then begin
      t.decided <- true;
      t.env.on_elected winner
    end

  (* Next live server after self in ring order. *)
  let successor t =
    match live t.env with
    | [] | [ _ ] -> None
    | ring ->
        let rec after = function
          | [] -> List.nth_opt ring 0
          | s :: rest -> if s = t.env.self then List.nth_opt rest 0 else after rest
        in
        (match after ring with
        | Some s when s <> t.env.self -> Some s
        | Some _ | None -> (
            match ring with s :: _ when s <> t.env.self -> Some s | _ -> None))

  let forward t candidate =
    match successor t with
    | Some dst -> t.env.send ~dst (Token { candidate })
    | None -> decide t t.env.self (* alone in the ring *)

  let start t =
    if not t.decided then begin
      t.forwarded_self <- true;
      forward t t.env.self
    end

  let handle t ~from:_ msg =
    match msg with
    | Token { candidate } ->
        if candidate = t.env.self then begin
          (* Our token survived the whole ring. *)
          decide t t.env.self;
          List.iter
            (fun dst -> t.env.send ~dst (Victory { from = t.env.self }))
            (peers t.env)
        end
        else begin
          (* Chang–Roberts: forward the better (earlier-ranked) candidate;
             swallow worse ones, injecting ourselves once. *)
          let better = rank t.env candidate < rank t.env t.env.self in
          if better then forward t candidate
          else if not t.forwarded_self then begin
            t.forwarded_self <- true;
            forward t t.env.self
          end
        end
    | Victory { from = winner } -> decide t winner
    | Claim _ | Claim_ack _ | Election _ | Answer _ -> ()
end
