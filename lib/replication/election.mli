(** Coordinator election algorithms.

    §4.2 describes a list-order election — the first live server in the
    startup-ordered list claims the role and assumes it on acknowledgments
    from half+1 of the remaining servers, with escalating timeouts tolerating
    [k] simultaneous crashes — and points at the classical alternatives
    (Garcia-Molina's bully, ring elections). All three are implemented here
    against an abstract transport so the failover bench can compare messages
    and latency. {!List_order} is also the election {!Node} runs over the
    real server mesh: [Claim]/[Claim_ack] travel as [Elect_me]/[Elect_ack],
    the new coordinator's [Coordinator_is] is the [Victory], and
    [on_elected] makes the node coordinator (or follow the winner). *)

type message =
  | Claim of { from : string }  (** list-order: "I am taking over" *)
  | Claim_ack of { from : string; candidate : string; ok : bool }
  | Election of { from : string }  (** bully: probe to higher-ranked peers *)
  | Answer of { from : string }  (** bully: "I am alive, stand down" *)
  | Victory of { from : string }
  | Token of { candidate : string }  (** ring: circulating candidate id *)

(** Transport and timer hooks supplied by the harness. [send] may silently
    drop (dead peer, partition); algorithms must tolerate that via
    timeouts. *)
type env = {
  self : string;
  all : string list;  (** full membership in startup order, including self *)
  is_alive : string -> bool;  (** local failure-detector verdict *)
  send : dst:string -> message -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  on_elected : string -> unit;  (** fired exactly once per participant *)
}

val index : string -> string list -> int
(** Place of a server in a list; unlisted servers sort last. *)

module type ALGORITHM = sig
  type t

  val name : string

  val create : env -> t

  val start : t -> unit
  (** Begin (called when the coordinator is suspected dead). *)

  val handle : t -> from:string -> message -> unit
  (** Feed an incoming message. *)
end

module List_order : sig
  include ALGORITHM

  val create_with : timeout:float -> env -> t
  (** {!create} (escalation unit 0.1 s) with escalation unit [timeout]. *)

  val electing : t -> bool
  (** Started and not yet decided: this participant believes the
      coordinator dead and acks claims. *)

  val stand_down : t -> unit
  (** Abandon a running election (a coordinator was named from outside, e.g.
      after a partition heals) and forget the vote. *)
end
(** The paper's protocol. Rank r (the number of live servers ahead in the
    startup list) claims after [r] timeouts and re-claims every timeout; the
    claim wins on acks from a majority of the servers believed alive
    (counting itself), and the winner announces [Victory]. A voter acks when
    it is electing and the candidate ranks no later in the startup list than
    the one it last acked; otherwise it nacks. *)

module Bully : ALGORITHM
(** Garcia-Molina 1982. A starter probes all higher-ranked peers; silence
    for [answer_timeout] means victory; an [Answer] defers to the higher
    peer (with a victory timeout to restart if it dies mid-election). *)

module Ring : ALGORITHM
(** Chang–Roberts style over the live-server ring ordered by rank: tokens
    carry the best candidate so far; a token returning to its candidate
    announces victory. *)
