type decision = Allow | Deny of string

type t = {
  can_create : Proto.Types.member_id -> Proto.Types.group_id -> decision;
  can_delete : Proto.Types.member_id -> Proto.Types.group_id -> decision;
  can_join :
    Proto.Types.member_id -> Proto.Types.group_id -> Proto.Types.role -> decision;
  can_update : Proto.Types.member_id -> Proto.Types.group_id -> decision;
}

let allow_all =
  {
    can_create = (fun _ _ -> Allow);
    can_delete = (fun _ _ -> Allow);
    can_join = (fun _ _ _ -> Allow);
    can_update = (fun _ _ -> Allow);
  }

let with_join_allowlist base allowlist =
  {
    base with
    can_join =
      (fun member group role ->
        match List.assoc_opt group allowlist with
        | Some allowed when not (List.mem member allowed) ->
            Deny (Printf.sprintf "%s is not allowed to join %s" member group)
        | Some _ | None -> base.can_join member group role);
  }
