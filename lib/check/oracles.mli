(** The invariant oracles. Each takes the post-quiescence evidence —
    client observation logs, server state copies, lock journals — and
    returns violations; an empty list means the run upheld the protocol
    contract. *)

type violation = { v_oracle : string; v_detail : string }

val violation_line : violation -> string

type input = {
  i_copies : (string * Deploy.copy list) list;  (** per group, live copies *)
  i_journals : (string * string * Corona.Locks.event list) list;
      (** (owner, group, events) — one journal per lock table *)
  i_clients : Observe.t list;
  i_client_states : (string * string * string) list;
      (** (agent, group, digest) for agents joined & connected at the end *)
  i_client_views : (string * string * string list) list;
      (** (agent, group, {!Corona.Client.members}) for agents joined &
          connected at the end *)
  i_members : (string * string list) list;  (** per group, the servers' view *)
  i_expected_members : (string * string list) list;
      (** per group, agents that believe they are joined at the end *)
  i_eras : float list;  (** single-server restart times, oldest first *)
  i_barriers : (string * Replication.Node.barrier_step list) list;
      (** per coordinating node, its cross-shard barrier journal as the
          node's {!Replication.Node.hooks} saw it (oldest first); []
          unsharded *)
  i_shards : int;  (** deployment shard count; 1 = classic sequencing *)
  i_relay : bool;
      (** relay-fronted deployment: delivery completeness applies *)
}

val total_order : input -> violation list
(** Within each (re)join segment a client observes a contiguous, strictly
    increasing run of sequence numbers, and any two clients that observe
    the same (era, seqno) of a group observe the same update. *)

val convergence : input -> violation list
(** Every live copy of a group reports the same digest, and the server
    copies agree on the next sequence number. *)

val membership : input -> violation list
(** No member appears twice in a view, a join view contains the joiner, a
    leave/crash view omits the departed, and at quiescence the servers'
    member list matches the agents that believe they are joined and the
    view every connected subscriber rebuilt from its join-time list and
    the changes notified since. *)

val locks : input -> violation list
(** Mutual exclusion and release pairing over the lock journals. *)

val fidelity : input -> violation list
(** Retained logs replay to the digests the copies report. *)

val cross_shard : input -> violation list
(** Sharded runs: barrier stamps are consistent across coordinators and
    every client applied barrier ops at the stamped vector. *)

val completeness : input -> violation list
(** Relay-fronted runs: every member still in a group at quiescence
    observed the root's full stream (a stalled failover cannot hide). *)

val check : input -> violation list
(** All of the above, concatenated in a fixed order. *)
