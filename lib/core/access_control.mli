(** Workspace session manager hook (§3.2).

    "The Corona server works in conjunction with an external workspace
    session manager that determines which client is allowed to execute these
    actions." This module is that policy interface: the server consults it
    before creating, deleting, or joining groups and before accepting
    updates from a member. *)

type decision = Allow | Deny of string

type t = {
  can_create : Proto.Types.member_id -> Proto.Types.group_id -> decision;
  can_delete : Proto.Types.member_id -> Proto.Types.group_id -> decision;
  can_join :
    Proto.Types.member_id -> Proto.Types.group_id -> Proto.Types.role -> decision;
  can_update : Proto.Types.member_id -> Proto.Types.group_id -> decision;
}

val allow_all : t
(** The default policy. *)

val with_join_allowlist :
  t -> (Proto.Types.group_id * Proto.Types.member_id list) list -> t
(** Restrict joins: for listed groups only the listed members may join;
    unlisted groups fall through to the base policy. *)
