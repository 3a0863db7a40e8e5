(* R9: resource pairing. An intraprocedural, CFG-ish walk over each function
   body that tracks acquire/release pairs (Locks acquire/release, raw channel
   open/close) and reports when an exception edge can escape while a resource
   is held: an explicit raise site, or a call from a small curated may-raise
   set (I/O and partial stdlib functions).

   Deliberate scope decisions, documented in DESIGN.md:
   - Exception edges only. A function that acquires and returns without
     releasing is treated as ownership transfer (the coordinator hands locks
     to the protocol state machine by design), not a leak.
   - [match Locks.acquire ... with `Granted -> ... | `Busy -> ...] is
     result-aware: the resource is held only in branches whose pattern
     mentions a grant constructor (`Granted`/`Ok`).
   - [Fun.protect ~finally] shields: resources released in the [~finally]
     closure are considered released on every exit of the body.
   - Raise sites inside [try ... with] are assumed handled.
   - One report per held resource per function (the first escaping edge). *)

module C = Lint_ctx
module I = Ast_iterator
open Parsetree

type pair = {
  p_id : string;
  p_acquire : string list list; (* path suffixes *)
  p_release : string list list;
  p_grant : string list; (* result constructors under which the resource is held *)
}

let pairs =
  [
    {
      p_id = "lock";
      p_acquire = [ [ "Locks"; "acquire" ] ];
      p_release = [ [ "Locks"; "release" ]; [ "Locks"; "release_all" ] ];
      p_grant = [ "Granted"; "Ok" ];
    };
    {
      p_id = "in-channel";
      p_acquire = [ [ "open_in" ]; [ "open_in_bin" ] ];
      p_release = [ [ "close_in" ]; [ "close_in_noerr" ] ];
      p_grant = [];
    };
    {
      p_id = "out-channel";
      p_acquire = [ [ "open_out" ]; [ "open_out_bin" ] ];
      p_release = [ [ "close_out" ]; [ "close_out_noerr" ] ];
      p_grant = [];
    };
  ]

let all_ids = List.map (fun p -> p.p_id) pairs

(* [path] ends with [pat] (component-wise), so [Corona.Locks.acquire] and
   [Stdlib.open_in] match. *)
let path_ends path pat =
  let lp = List.length path and lq = List.length pat in
  lp >= lq
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lp - lq) path = pat

let pair_of_acquire path = List.find_opt (fun p -> List.exists (path_ends path) p.p_acquire) pairs
let pair_of_release path = List.find_opt (fun p -> List.exists (path_ends path) p.p_release) pairs

let is_raise = function
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ]
  | [ "Stdlib"; ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] ->
      true
  | _ -> false

(* Curated may-raise set: I/O that raises Sys_error plus partial stdlib
   functions. Small on purpose — "any call may raise" would flag every
   function in the tree. *)
let may_raise_pats =
  [
    [ "output_string" ]; [ "output_bytes" ]; [ "output_char" ]; [ "output_value" ];
    [ "Printf"; "fprintf" ]; [ "input_line" ]; [ "really_input" ]; [ "input_value" ];
    [ "Hashtbl"; "find" ]; [ "Option"; "get" ]; [ "List"; "find" ]; [ "List"; "hd" ];
    [ "int_of_string" ]; [ "float_of_string" ]; [ "bool_of_string" ];
  ]

let may_raise path = List.exists (path_ends path) may_raise_pats

(* --- the walk ------------------------------------------------------------ *)

type token = { tk_pair : pair; tk_what : string; tk_line : int; mutable tk_warned : bool }

type env = { ctx : C.t; fname : string }

(* Branch join: union by token identity (tokens are shared across branch
   states, so the warned-once flag dedupes globally). *)
let merge states =
  List.fold_left
    (fun acc st ->
      List.fold_left (fun acc tk -> if List.memq tk acc then acc else acc @ [ tk ]) acc st)
    [] states

let rec release_one pid = function
  | [] -> []
  | tk :: tl when tk.tk_pair.p_id = pid -> tl
  | tk :: tl -> tk :: release_one pid tl

let warn_held env shields state ~loc fmt_one =
  List.iter
    (fun tk ->
      if (not tk.tk_warned) && not (List.mem tk.tk_pair.p_id shields) then begin
        tk.tk_warned <- true;
        C.report env.ctx ~loc ~rule:"R9" ~ident:env.fname (fmt_one tk)
      end)
    state

let raise_site env shields state what loc =
  warn_held env shields state ~loc (fun tk ->
      Printf.sprintf
        "resource pairing: %s raises while `%s` (acquired at line %d) is held — release \
         on the exception edge or use Fun.protect ~finally"
        what tk.tk_what tk.tk_line)

let may_raise_site env shields state what loc =
  warn_held env shields state ~loc (fun tk ->
      Printf.sprintf
        "resource pairing: `%s` can raise while `%s` (acquired at line %d) is held — the \
         pending release would be skipped (wrap in Fun.protect ~finally)"
        what tk.tk_what tk.tk_line)

(* Direct sub-expressions in syntactic order, via the default iterator's
   one-level traversal. *)
let subexprs e =
  let acc = ref [] in
  let it = { I.default_iterator with expr = (fun _ e' -> acc := e' :: !acc) } in
  I.default_iterator.expr it e;
  List.rev !acc

(* Pair ids released anywhere inside [e] (used on Fun.protect ~finally). *)
let releases_in env e =
  let acc = ref [] in
  let it =
    {
      I.default_iterator with
      expr =
        (fun iter e' ->
          (match e'.pexp_desc with
          | Pexp_ident lid -> (
              match pair_of_release (C.expand env.ctx (C.flatten lid.txt)) with
              | Some p when not (List.mem p.p_id !acc) -> acc := p.p_id :: !acc
              | _ -> ())
          | _ -> ());
          I.default_iterator.expr iter e');
    }
  in
  it.I.expr it e;
  !acc

let fn_path env fn =
  match fn.pexp_desc with
  | Pexp_ident lid -> Some (C.expand env.ctx (C.flatten lid.txt))
  | _ -> None

let acquire_of env e =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match fn_path env fn with
      | Some path -> (
          match pair_of_acquire path with
          | Some p -> Some (p, String.concat "." path, e.pexp_loc.Location.loc_start.pos_lnum)
          | None -> None)
      | None -> None)
  | _ -> None

let rec pat_ctor_names acc p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, sub) ->
      let acc =
        match C.flatten txt with [] -> acc | l -> List.nth l (List.length l - 1) :: acc
      in
      (match sub with Some (_, sp) -> pat_ctor_names acc sp | None -> acc)
  | Ppat_variant (label, sub) -> (
      let acc = label :: acc in
      match sub with Some sp -> pat_ctor_names acc sp | None -> acc)
  | Ppat_or (a, b) -> pat_ctor_names (pat_ctor_names acc a) b
  | Ppat_alias (sp, _) | Ppat_constraint (sp, _) | Ppat_exception sp | Ppat_lazy sp
  | Ppat_open (_, sp) ->
      pat_ctor_names acc sp
  | Ppat_tuple l | Ppat_array l -> List.fold_left pat_ctor_names acc l
  | Ppat_record (fields, _) -> List.fold_left (fun acc (_, sp) -> pat_ctor_names acc sp) acc fields
  | _ -> acc

let case_mentions_grant pair c = List.exists (fun n -> List.mem n pair.p_grant) (pat_ctor_names [] c.pc_lhs)

let rec walk env shields state e =
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> walk_apply env shields state ~push:true e fn args
  | Pexp_match (scrut, cases) -> (
      match acquire_of env scrut with
      | Some (pair, what, line) when pair.p_grant <> [] ->
          (* result-aware: held only in grant branches *)
          let st0 =
            match scrut.pexp_desc with
            | Pexp_apply (fn, args) -> walk_apply env shields state ~push:false scrut fn args
            | _ -> state
          in
          let tk = { tk_pair = pair; tk_what = what; tk_line = line; tk_warned = false } in
          merge
            (List.map
               (fun c ->
                 let st = if case_mentions_grant pair c then tk :: st0 else st0 in
                 let st = walk_opt env shields st c.pc_guard in
                 walk env shields st c.pc_rhs)
               cases)
      | _ ->
          let st0 = walk env shields state scrut in
          merge
            (List.map
               (fun c -> walk env shields (walk_opt env shields st0 c.pc_guard) c.pc_rhs)
               cases))
  | Pexp_function cases ->
      merge
        (List.map
           (fun c -> walk env shields (walk_opt env shields state c.pc_guard) c.pc_rhs)
           cases)
  | Pexp_try (body, cases) ->
      (* raise sites inside the body are assumed handled by the handler *)
      let stb = walk env (all_ids @ shields) state body in
      let sth =
        List.map (fun c -> walk env shields (walk_opt env shields state c.pc_guard) c.pc_rhs) cases
      in
      merge (stb :: sth)
  | Pexp_ifthenelse (cond, th, el) ->
      let st0 = walk env shields state cond in
      merge
        [ walk env shields st0 th;
          (match el with Some e2 -> walk env shields st0 e2 | None -> st0) ]
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      raise_site env shields state "assert false" e.pexp_loc;
      state
  | _ -> List.fold_left (walk env shields) state (subexprs e)

and walk_opt env shields state = function None -> state | Some e -> walk env shields state e

and walk_apply env shields state ~push e fn args =
  match fn_path env fn with
  | Some path when path_ends path [ "Fun"; "protect" ] ->
      let finally =
        List.find_map (function Asttypes.Labelled "finally", a -> Some a | _ -> None) args
      in
      let body = List.find_map (function Asttypes.Nolabel, a -> Some a | _ -> None) (List.rev args) in
      let released = match finally with Some f -> releases_in env f | None -> [] in
      let state' =
        match body with Some b -> walk env (released @ shields) state b | None -> state
      in
      List.filter (fun tk -> not (List.mem tk.tk_pair.p_id released)) state'
  | fpath -> (
      let state = List.fold_left (fun st (_, a) -> walk env shields st a) state args in
      match fpath with
      | None -> state
      | Some path ->
          if is_raise path then begin
            raise_site env shields state (String.concat "." path) e.pexp_loc;
            state
          end
          else (
            match pair_of_release path with
            | Some p -> release_one p.p_id state
            | None -> (
                match pair_of_acquire path with
                | Some p when push ->
                    {
                      tk_pair = p;
                      tk_what = String.concat "." path;
                      tk_line = e.pexp_loc.Location.loc_start.pos_lnum;
                      tk_warned = false;
                    }
                    :: state
                | Some _ -> state
                | None ->
                    if may_raise path then
                      may_raise_site env shields state (String.concat "." path) e.pexp_loc;
                    state)))

(* --- per-function driver ------------------------------------------------- *)

let has_acquire env e =
  let found = ref false in
  let it =
    {
      I.default_iterator with
      expr =
        (fun iter e' ->
          (match e'.pexp_desc with
          | Pexp_ident lid ->
              if pair_of_acquire (C.expand env.ctx (C.flatten lid.txt)) <> None then found := true
          | _ -> ());
          if not !found then I.default_iterator.expr iter e');
    }
  in
  it.I.expr it e;
  !found

let check_binding ctx name vb =
  let env = { ctx; fname = name } in
  if has_acquire env vb.pvb_expr then ignore (walk env [] [] vb.pvb_expr)

(* Run over every toplevel (and submodule-level) binding of one file,
   reporting into [ctx]. *)
let run (ctx : C.t) (str : structure) =
  let rec items l =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match C.pat_name vb.pvb_pat with
                | Some name -> check_binding ctx name vb
                | None -> ())
              vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure l'; _ }; _ } -> items l'
        | Pstr_recmodule mbs ->
            List.iter
              (fun mb ->
                match mb.pmb_expr.pmod_desc with Pmod_structure l' -> items l' | _ -> ())
              mbs
        | _ -> ())
      l
  in
  items str
