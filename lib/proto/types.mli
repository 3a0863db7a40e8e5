(** Shared protocol vocabulary.

    These types mirror the paper's model (§3.1–3.2): groups of members with
    roles, a shared state made of identifier-tagged byte streams, two
    multicast flavors ([Set_state] overrides an object's state,
    [Append_update] appends an incremental change), sender-inclusive or
    -exclusive delivery, and per-client state-transfer specifications. *)

type object_id = string

type group_id = string

type member_id = string

type lock_id = string

type role =
  | Principal  (** full member: may update shared state *)
  | Observer  (** receives state and updates but may not modify *)

type update_kind =
  | Set_state  (** [bcastState]: new state overrides the object's state *)
  | Append_update  (** [bcastUpdate]: incremental change, appended to history *)

type delivery_mode =
  | Sender_inclusive
      (** the service multicasts back to the sender too (e.g., to obtain the
          server's real-time stamp) *)
  | Sender_exclusive

type transfer_spec =
  | Full_state  (** whole current state of the group *)
  | Latest_updates of int  (** only the latest [n] updates *)
  | Updates_since of int
      (** every update with sequence number ≥ the argument — the
          reconnection resync of the companion paper: a client that was
          disconnected catches up from where it left off (falls back to the
          full state when the log was reduced past that point) *)
  | Objects of object_id list  (** state of the listed objects only *)
  | No_state  (** join without any transfer *)

type member = { member : member_id; role : role }

type update = {
  seqno : int;  (** total-order sequence number within the group *)
  group : group_id;
  kind : update_kind;
  obj : object_id;
  data : string;  (** the byte-stream encoding; opaque to the service *)
  sender : member_id;
  timestamp : float;  (** server stamping time *)
}

type membership_change =
  | Member_joined of member
      (** the joiner with its role; a rejoin of a present member changes
          its role in place *)
  | Member_left of member_id
  | Member_crashed of member_id
      (** detected via connection breakage rather than an explicit leave *)

val pp_role : Format.formatter -> role -> unit

val pp_update_kind : Format.formatter -> update_kind -> unit

val pp_member : Format.formatter -> member -> unit

val pp_membership_change : Format.formatter -> membership_change -> unit

val pp_update : Format.formatter -> update -> unit

val changed_member : membership_change -> member_id
