(** Edge relay of the hierarchical dissemination tier.

    Fronts a contiguous slice of a huge group's membership: members connect
    to the relay exactly as they would to the root (same port, same
    protocol) and their request/reply traffic is proxied upstream verbatim
    — the root remains the single sequencer. Fan-out takes the hierarchical
    path instead: the root sends one [Relay_fanout] frame per relay per
    broadcast, and the relay re-fans it locally to the group members behind
    it, so root-side transmit and encode work is O(relays) rather than
    O(members).

    Group membership is snooped from the proxied traffic ([Join] / [Leave]
    / [Left] / [Group_deleted] / connection death); the relay keeps no
    group state and never reorders messages. *)

type t

val create :
  Net.Fabric.t ->
  Net.Host.t ->
  relay:Proto.Types.member_id ->
  root:Net.Host.t ->
  ?root_port:int ->
  ?port:int ->
  on_ready:(t -> unit) ->
  on_failed:(unit -> unit) ->
  unit ->
  t
(** Connect the control connection to the root (default port 7000), send
    [Relay_register], then start accepting member connections on [port]
    (default 7000). [on_ready] fires once the control connection is up;
    [on_failed] if the root is unreachable. *)

val shutdown : t -> unit
(** Close the listener, every member and proxied connection, and the
    control connection. *)
