(* Whole-corpus call graph over every parsed root.

   Definition keys are fully qualified through dune's wrapped-library
   namespace: a toplevel [let f] in lib/core/server.ml (library [corona])
   becomes [Corona.Server.f]; a submodule binding in lib/proto/codec.ml
   becomes [Proto.Codec.Writer.u8]; files with no dune library stanza (bin/,
   bench/, the fixture corpus) are standalone top-level modules, so
   [R8_deep.build_frames]. The library name is read from the [(name X)]
   field of the first [(library ...)] stanza in the directory's dune file.

   Reference resolution is purely syntactic (sources never typecheck here).
   For a reference [path = M1...Mn.f] from a unit with library prefix [L],
   candidates are tried in order:
     1. [L.M1...Mn.f]          — sibling module in the same library
     2. [M1...Mn.f]            — M1 is another library's namespace module or
                                 a standalone root module
     3. [<unit>.M1...Mn.f]     — submodule of the current file
   and a bare [f] resolves innermost-submodule-first within the current
   unit. Same-file [module M = Path] aliases are expanded first. Unresolved
   references (stdlib, locals, shadowed names) simply produce no edge —
   known imprecision, documented in DESIGN.md.

   Hot roots for R8 are functions carrying [@@corona.hot] plus any function
   that calls [Fabric.transmit_many] directly (the batched fan-out
   primitive). [@@corona.cold] cuts the graph: reachability never traverses
   into a cold function — used where the event loop re-enters itself
   (dispatch functions) and treating the edge as a synchronous call would
   mark the whole module hot. *)

module C = Lint_ctx
module I = Ast_iterator
open Parsetree

type sink_kind = Encode | Alloc | List_build | Printf_alloc | Decode_copy

type sink = { sk_kind : sink_kind; sk_what : string; sk_line : int; sk_col : int }

type def = {
  d_key : string; (* "Corona.Server.handle_bcast" *)
  d_name : string; (* "handle_bcast" *)
  d_file : string;
  d_line : int;
  mutable d_hot : bool;
  mutable d_cold : bool;
  mutable d_callees : string list; (* resolved def keys, ref order, deduped *)
  mutable d_sinks : sink list; (* source order *)
}

type t = { defs : (string, def) Hashtbl.t; mutable order : string list (* discovery order *) }

(* --- dune library mapping ------------------------------------------------ *)

(* First [(name X)] after the first [(library] in the dune file, capitalized
   into the wrapped-library namespace module; None for executable-only or
   missing dune files. *)
let lib_name_of_dune_src src =
  match
    (* find "(library" then "(name" after it *)
    let rec find_from i needle =
      let ln = String.length needle in
      if i + ln > String.length src then None
      else if String.sub src i ln = needle then Some i
      else find_from (i + 1) needle
    in
    match find_from 0 "(library" with
    | None -> None
    | Some i -> find_from i "(name"
  with
  | None -> None
  | Some i ->
      let n = String.length src in
      let j = ref (i + String.length "(name") in
      while !j < n && (src.[!j] = ' ' || src.[!j] = '\n' || src.[!j] = '\t') do incr j done;
      let k = ref !j in
      while
        !k < n && (match src.[!k] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
      do
        incr k
      done;
      if !k > !j then Some (String.capitalize_ascii (String.sub src !j (!k - !j))) else None

let lib_of_dir =
  let cache : (string, string option) Hashtbl.t = Hashtbl.create 16 in
  fun dir ->
    match Hashtbl.find_opt cache dir with
    | Some r -> r
    | None ->
        let dune = Filename.concat dir "dune" in
        let r =
          if Sys.file_exists dune && not (Sys.is_directory dune) then begin
            let ic = open_in_bin dune in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let len = in_channel_length ic in
                lib_name_of_dune_src (really_input_string ic len))
          end
          else None
        in
        Hashtbl.add cache dir r;
        r

(* --- unit naming --------------------------------------------------------- *)

type unit_info = {
  u_file : string;
  u_lib : string option; (* capitalized library namespace, e.g. "Corona" *)
  u_prefix : string; (* "Corona.Server" or "R8_deep" *)
  u_aliases : (string, string list) Hashtbl.t;
}

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let unit_of_file file =
  let m = module_of_file file in
  let lib = lib_of_dir (Filename.dirname file) in
  let prefix = match lib with Some l when l <> m -> l ^ "." ^ m | _ -> m in
  { u_file = file; u_lib = lib; u_prefix = prefix; u_aliases = Hashtbl.create 8 }

(* --- pass 1: definition collection --------------------------------------- *)

let has_attr name attrs = List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

let create () = { defs = Hashtbl.create 256; order = [] }

let add_def g u ~stack ~name (vb : value_binding) =
  let key = String.concat "." ((u.u_prefix :: List.rev stack) @ [ name ]) in
  if not (Hashtbl.mem g.defs key) then begin
    let d =
      {
        d_key = key;
        d_name = name;
        d_file = u.u_file;
        d_line = vb.pvb_loc.loc_start.pos_lnum;
        d_hot = has_attr "corona.hot" vb.pvb_attributes;
        d_cold = has_attr "corona.cold" vb.pvb_attributes;
        d_callees = [];
        d_sinks = [];
      }
    in
    Hashtbl.add g.defs key d;
    g.order <- key :: g.order;
    Some d
  end
  else None

(* Collect toplevel and submodule value bindings; [stack] is the submodule
   path, innermost first. Returns (def, stack, vb) triples for pass 2. *)
let collect_defs g u str =
  let acc = ref [] in
  let rec items stack l =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match C.pat_name vb.pvb_pat with
                | Some name -> (
                    match add_def g u ~stack ~name vb with
                    | Some d -> acc := (d, stack, vb) :: !acc
                    | None -> ())
                | None -> ())
              vbs
        | Pstr_module mb -> module_binding stack mb
        | Pstr_recmodule mbs -> List.iter (module_binding stack) mbs
        | _ -> ())
      l
  and module_binding stack mb =
    match mb.pmb_name.txt with
    | None -> ()
    | Some m -> (
        match mb.pmb_expr.pmod_desc with
        | Pmod_structure l -> items (m :: stack) l
        | Pmod_ident { txt; _ } -> Hashtbl.replace u.u_aliases m (C.flatten txt)
        | _ -> ())
  in
  items [] str;
  List.rev !acc

(* --- pass 2: references, sinks, auto-hot --------------------------------- *)

let expand_alias u = function
  | c0 :: rest as path -> (
      match Hashtbl.find_opt u.u_aliases c0 with Some base -> base @ rest | None -> path)
  | [] -> []

let sink_of_path path =
  match path with
  | [ "Bytes"; "create" ] | [ "Bytes"; "make" ] -> Some (Alloc, String.concat "." path)
  | [ "Bytes"; ("sub" | "sub_string" | "blit") ] ->
      (* decode-side copy-out: slicing or blitting frame bytes into a fresh
         buffer where a header peek would do — peek in place instead *)
      Some (Decode_copy, String.concat "." path)
  | [ "Buffer"; "create" ] -> Some (Alloc, "Buffer.create")
  | [ "@" ] -> Some (List_build, "@")
  | [ "List"; ("map" | "mapi" | "append" | "concat_map") ] ->
      Some (List_build, String.concat "." path)
  | [ "Printf"; "sprintf" ] | [ "Format"; ("sprintf" | "asprintf") ] ->
      Some (Printf_alloc, String.concat "." path)
  | _ -> (
      match C.last2 path with
      | Some ("Message", "encode") -> Some (Encode, String.concat "." path)
      | _ -> None)

let rec split_last = function
  | [] -> None
  | [ x ] -> Some ([], x)
  | x :: tl -> ( match split_last tl with Some (l, last) -> Some (x :: l, last) | None -> None)

(* Resolve a (alias-expanded) reference from [u]/[stack] to a def key. *)
let resolve g u ~stack path =
  let try_key k = if Hashtbl.mem g.defs k then Some k else None in
  let first_some l = List.find_map (fun k -> try_key k) l in
  match path with
  | [] -> None
  | [ f ] ->
      (* innermost submodule scope first, then the unit's top level *)
      let rec scopes st =
        match st with
        | [] -> [ u.u_prefix ^ "." ^ f ]
        | _ :: tl -> (String.concat "." (u.u_prefix :: List.rev st) ^ "." ^ f) :: scopes tl
      in
      first_some (scopes stack)
  | comps -> (
      match split_last comps with
      | None -> None
      | Some (_mods, _f) ->
          let joined = String.concat "." comps in
          first_some
            ((match u.u_lib with Some l -> [ l ^ "." ^ joined ] | None -> [])
            @ [ joined ] (* other library namespace or standalone root module *)
            @ [ u.u_prefix ^ "." ^ joined ] (* submodule of the current file *)))

(* Sinks inside the sanctioned serialization layer (proto/message.ml,
   proto/codec.ml) are exempt: that is where the one shared encode and its
   buffers are *supposed* to live. *)
let sink_exempt u =
  C.has_suffix u.u_file "proto/message.ml" || C.has_suffix u.u_file "proto/codec.ml"

let analyze_def g u ~stack (d : def) (vb : value_binding) =
  let callees = ref [] in
  let sinks = ref [] in
  let exempt = sink_exempt u in
  let note lid loc =
    let path = expand_alias u (C.flatten lid) in
    (match sink_of_path path with
    | Some (kind, what) when not exempt ->
        (* [Message.encode] inside message.ml is pre_encode's own call *)
        let pos = loc.Location.loc_start in
        sinks :=
          { sk_kind = kind; sk_what = what; sk_line = pos.pos_lnum;
            sk_col = pos.pos_cnum - pos.pos_bol }
          :: !sinks
    | _ -> ());
    (match path with
    | _ when C.last2 path = Some ("Fabric", "transmit_many") -> d.d_hot <- true
    | _ -> (
        match path with
        | [ "transmit_many" ] -> d.d_hot <- true
        | _ -> ()));
    match resolve g u ~stack path with
    | Some key when key <> d.d_key && not (List.mem key !callees) -> callees := key :: !callees
    | _ -> ()
  in
  let it =
    {
      I.default_iterator with
      expr =
        (fun iter e ->
          (match e.pexp_desc with Pexp_ident lid -> note lid.txt lid.loc | _ -> ());
          I.default_iterator.expr iter e);
    }
  in
  it.I.expr it vb.pvb_expr;
  d.d_callees <- List.rev !callees;
  d.d_sinks <- List.rev !sinks

(* --- entry point --------------------------------------------------------- *)

let build units =
  let g = create () in
  let parsed =
    List.map
      (fun (file, str) ->
        let u = unit_of_file file in
        (u, collect_defs g u str))
      units
  in
  List.iter
    (fun (u, defs) -> List.iter (fun (d, stack, vb) -> analyze_def g u ~stack d vb) defs)
    parsed;
  g.order <- List.rev g.order;
  g

let find g key = Hashtbl.find_opt g.defs key

let defs_in_order g = List.filter_map (fun k -> find g k) g.order

(* Resolve a user-supplied name (exact key, or unique ".name" suffix) for
   --why. *)
let resolve_query g name =
  match find g name with
  | Some d -> Ok d
  | None -> (
      let suffix = "." ^ name in
      match List.filter (fun k -> C.has_suffix k suffix) g.order with
      | [ k ] -> Ok (Option.get (find g k))
      | [] -> Error (Printf.sprintf "no function named `%s` in the parsed roots" name)
      | ks ->
          Error
            (Printf.sprintf "`%s` is ambiguous: %s" name (String.concat ", " ks)))
