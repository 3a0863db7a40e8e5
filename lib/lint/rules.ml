(* The per-file corona-lint rules (R1–R7), refactored into one module per
   rule over the shared [Lint_ctx]. A single [Ast_iterator] pass drives every
   rule; the interprocedural families (R8/R9/R10) live in Reach / Pairing /
   Exhaustive and run after the whole corpus is parsed.

   The rules are deliberately syntactic: they run on un-typechecked sources
   (the fixture corpus never typechecks), so module paths are resolved only
   through same-file [module M = Path] aliases.

   R1  nondeterminism sources: Unix.*, Sys.time, Random.* (Sim.Rng is the
       sanctioned randomness source and the only exemption).
   R2  process-global mutable state: module-toplevel [ref]/[Hashtbl.create]/
       [Queue.create]/[Stack.create]/[Buffer.create] bindings leak state
       across simulations in one process.
   R3  polymorphic compare on protocol state: bare [compare], first-class
       [(=)]/[(<>)] and [Hashtbl.hash] in the protocol-state layers
       (lib/proto, lib/core, lib/replication).
   R4  [try ... with _ ->] and [Obj.magic].
   R5  encode-once: direct [Message.encode] outside the codec internals must
       go through [Message.pre_encode] so fan-out shares one serialization.
   R6  [failwith] / [assert false] inside protocol message handlers
       (handler-named functions in the protocol layers).
   R7  snapshot-cache bypass: direct [Shared_state.objects] in the join /
       state-transfer hot paths (lib/core/server.ml, lib/replication) pays a
       full materialize per call — go through [Transfer] and its snapshot
       cache. *)

module I = Ast_iterator
module C = Lint_ctx
open Parsetree

(* --- R1: nondeterminism sources ----------------------------------------- *)

module R1_nondet = struct
  let on_path (ctx : C.t) ~dotted path loc =
    match path with
    | "Unix" :: _ ->
        C.report ctx ~loc ~rule:"R1"
          (Printf.sprintf "nondeterminism source %s (use the simulation clock / Sim.Rng)" dotted)
    | [ "Sys"; "time" ] ->
        C.report ctx ~loc ~rule:"R1" "nondeterminism source Sys.time (use the simulation clock)"
    | "Random" :: _ when not ctx.random_exempt ->
        C.report ctx ~loc ~rule:"R1"
          (Printf.sprintf "nondeterminism source %s (draw from Sim.Rng instead)" dotted)
    | _ -> ()
end

(* --- R2: process-global mutable state ------------------------------------ *)

module R2_global_state = struct
  let makers =
    [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Queue"; "create" ]; [ "Stack"; "create" ];
      [ "Buffer"; "create" ] ]

  let rec strip_constraint e =
    match e.pexp_desc with Pexp_constraint (e, _) -> strip_constraint e | _ -> e

  let on_toplevel_binding (ctx : C.t) vb =
    match (strip_constraint vb.pvb_expr).pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when List.mem (C.expand ctx (C.flatten txt)) makers ->
        let name = Option.value (C.pat_name vb.pvb_pat) ~default:"_" in
        C.report ctx ~loc:vb.pvb_loc ~rule:"R2" ~ident:name
          (Printf.sprintf
             "process-global mutable state `%s` at module top level (move it into an instance \
              record)"
             name)
    | _ -> ()
end

(* --- R3: polymorphic compare on protocol state --------------------------- *)

module R3_poly_compare = struct
  (* [fn_args]: Some n when the ident is the function of an application with
     n arguments, None when it appears as a value. *)
  let on_path (ctx : C.t) ~fn_args path loc =
    if ctx.poly_active then
      match path with
      | [ "compare" ] | [ "Stdlib"; "compare" ] ->
          C.report ctx ~loc ~rule:"R3"
            "polymorphic compare on protocol state (use a typed comparator)"
      | [ "Hashtbl"; "hash" ] ->
          C.report ctx ~loc ~rule:"R3"
            "polymorphic Hashtbl.hash on protocol state (hash a typed key instead)"
      | ([ "=" ] | [ "<>" ] | [ "Stdlib"; "=" ] | [ "Stdlib"; "<>" ])
        when (match fn_args with Some n -> n < 2 | None -> true) ->
          C.report ctx ~loc ~rule:"R3"
            (Printf.sprintf "first-class polymorphic (%s) on protocol state (use a typed equality)"
               (List.nth path (List.length path - 1)))
      | _ -> ()
end

(* --- R4: escape hatches --------------------------------------------------- *)

module R4_escapes = struct
  let on_path (ctx : C.t) path loc =
    match path with
    | [ "Obj"; "magic" ] -> C.report ctx ~loc ~rule:"R4" "Obj.magic defeats the type system"
    | _ -> ()

  let on_try (ctx : C.t) cases =
    List.iter
      (fun c ->
        match c.pc_lhs.ppat_desc with
        | Ppat_any ->
            C.report ctx ~loc:c.pc_lhs.ppat_loc ~rule:"R4"
              "catch-all `try ... with _ ->` swallows unexpected exceptions (match them \
               explicitly)"
        | _ -> ())
      cases
end

(* --- R5: encode-once ------------------------------------------------------ *)

module R5_encode_once = struct
  let on_path (ctx : C.t) ~dotted path loc =
    match C.last2 path with
    | Some ("Message", "encode") when not ctx.codec_internal ->
        C.report ctx ~loc ~rule:"R5"
          (Printf.sprintf
             "direct %s breaks encode-once: serialize via Message.pre_encode and share the \
              encoding"
             dotted)
    | _ -> ()
end

(* --- R6: aborts inside protocol handlers ---------------------------------- *)

module R6_handler_abort = struct
  let in_handler (ctx : C.t) = ctx.handler_active && List.exists C.handler_name ctx.bindings

  let on_path (ctx : C.t) path loc =
    match path with
    | ([ "failwith" ] | [ "Stdlib"; "failwith" ]) when in_handler ctx ->
        C.report ctx ~loc ~rule:"R6"
          (Printf.sprintf "failwith reachable from protocol handler `%s` (return a protocol error)"
             (List.find C.handler_name ctx.bindings))
    | _ -> ()

  let on_assert_false (ctx : C.t) loc =
    if in_handler ctx then
      C.report ctx ~loc ~rule:"R6"
        (Printf.sprintf "assert false reachable from protocol handler `%s` (return a protocol \
                         error)"
           (List.find C.handler_name ctx.bindings))
end

(* --- R7: snapshot-cache bypass -------------------------------------------- *)

module R7_transfer_hot = struct
  let on_path (ctx : C.t) ~dotted path loc =
    match C.last2 path with
    | Some ("Shared_state", "objects") when ctx.transfer_hot ->
        C.report ctx ~loc ~rule:"R7"
          (Printf.sprintf
             "direct %s in a transfer hot path pays a full materialize per call: go through \
              Transfer and its snapshot cache"
             dotted)
    | _ -> ()
end

(* --- the pass ------------------------------------------------------------- *)

(* A file that defines its own toplevel [compare] (a typed comparator) may
   use it bare without tripping R3. *)
let defines_compare str =
  List.exists
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) -> List.exists (fun vb -> C.pat_name vb.pvb_pat = Some "compare") vbs
      | _ -> false)
    str

let check_ident (ctx : C.t) ~fn_args lid loc =
  let path = C.expand ctx (C.flatten lid) in
  let dotted = String.concat "." path in
  R1_nondet.on_path ctx ~dotted path loc;
  R4_escapes.on_path ctx path loc;
  R5_encode_once.on_path ctx ~dotted path loc;
  R7_transfer_hot.on_path ctx ~dotted path loc;
  R3_poly_compare.on_path ctx ~fn_args path loc;
  R6_handler_abort.on_path ctx path loc

let iterator (ctx : C.t) =
  let structure_item iter si =
    (match si.pstr_desc with
    | Pstr_attribute a ->
        C.record_allows ctx [ a ]
          { si.pstr_loc with loc_end = { si.pstr_loc.loc_end with pos_lnum = max_int } }
    | Pstr_value (_, vbs) when ctx.bindings = [] ->
        List.iter (R2_global_state.on_toplevel_binding ctx) vbs
    | _ -> ());
    I.default_iterator.structure_item iter si
  in
  let value_binding iter vb =
    C.record_allows ctx vb.pvb_attributes vb.pvb_loc;
    match C.pat_name vb.pvb_pat with
    | Some name ->
        ctx.bindings <- name :: ctx.bindings;
        I.default_iterator.value_binding iter vb;
        ctx.bindings <- List.tl ctx.bindings
    | None -> I.default_iterator.value_binding iter vb
  in
  let module_binding iter mb =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } -> Hashtbl.replace ctx.aliases name (C.flatten txt)
    | _ -> ());
    I.default_iterator.module_binding iter mb
  in
  let expr iter e =
    C.record_allows ctx e.pexp_attributes e.pexp_loc;
    match e.pexp_desc with
    | Pexp_ident lid -> check_ident ctx ~fn_args:None lid.txt lid.loc
    | Pexp_apply (({ pexp_desc = Pexp_ident lid; _ } as fn), args) ->
        C.record_allows ctx fn.pexp_attributes fn.pexp_loc;
        check_ident ctx ~fn_args:(Some (List.length args)) lid.txt lid.loc;
        List.iter (fun (_, a) -> iter.I.expr iter a) args
    | Pexp_try (_, cases) ->
        R4_escapes.on_try ctx cases;
        I.default_iterator.expr iter e
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
        R6_handler_abort.on_assert_false ctx e.pexp_loc
    | _ -> I.default_iterator.expr iter e
  in
  { I.default_iterator with structure_item; value_binding; module_binding; expr }

(* Run R1–R7 over one parsed implementation, reporting into [ctx]. Also fills
   [ctx.aliases] and [ctx.suppressions] for the interprocedural passes that
   run after the whole corpus is parsed. *)
let run (ctx : C.t) (str : structure) =
  if defines_compare str then Hashtbl.replace ctx.aliases "compare" [ "Self"; "compare" ];
  let it = iterator ctx in
  it.I.structure it str
