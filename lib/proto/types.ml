type object_id = string

type group_id = string

type member_id = string

type lock_id = string

type role = Principal | Observer

type update_kind = Set_state | Append_update

type delivery_mode = Sender_inclusive | Sender_exclusive

type transfer_spec =
  | Full_state
  | Latest_updates of int
  | Updates_since of int
  | Objects of object_id list
  | No_state

type member = { member : member_id; role : role }

type update = {
  seqno : int;
  group : group_id;
  kind : update_kind;
  obj : object_id;
  data : string;
  sender : member_id;
  timestamp : float;
}

type membership_change =
  | Member_joined of member
  | Member_left of member_id
  | Member_crashed of member_id

let pp_role ppf = function
  | Principal -> Format.pp_print_string ppf "principal"
  | Observer -> Format.pp_print_string ppf "observer"

let pp_update_kind ppf = function
  | Set_state -> Format.pp_print_string ppf "set-state"
  | Append_update -> Format.pp_print_string ppf "append-update"

let pp_member ppf m = Format.fprintf ppf "%s:%a" m.member pp_role m.role

let pp_membership_change ppf = function
  | Member_joined m -> Format.fprintf ppf "+%s" m.member
  | Member_left m -> Format.fprintf ppf "-%s" m
  | Member_crashed m -> Format.fprintf ppf "!%s" m

let pp_update ppf u =
  Format.fprintf ppf "#%d %a %s/%s by %s (%d bytes)" u.seqno pp_update_kind
    u.kind u.group u.obj u.sender (String.length u.data)

let changed_member = function
  | Member_joined m -> m.member
  | Member_left m | Member_crashed m -> m
