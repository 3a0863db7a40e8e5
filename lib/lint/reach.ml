(* R8: hot-path allocation. BFS over the call graph from every hot root
   (skipping [@@corona.cold] cuts), then flag each allocation sink recorded
   in a reachable function. The BFS keeps, for every reachable function, its
   discovering root and parent edge, so `--why R8 <fn>` can print the exact
   call chain from root to sink. *)

module G = Callgraph

type info = { r_root : string; r_parent : string option (* None for roots *) }

type t = (string, info) Hashtbl.t

let analyze (g : G.t) : t =
  let reach : t = Hashtbl.create 128 in
  let queue = Queue.create () in
  List.iter
    (fun (d : G.def) ->
      if d.G.d_hot && not d.G.d_cold then begin
        Hashtbl.replace reach d.G.d_key { r_root = d.G.d_key; r_parent = None };
        Queue.add d.G.d_key queue
      end)
    (G.defs_in_order g);
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let { r_root; _ } = Hashtbl.find reach key in
    match G.find g key with
    | None -> ()
    | Some d ->
        List.iter
          (fun callee ->
            if not (Hashtbl.mem reach callee) then
              match G.find g callee with
              | Some cd when not cd.G.d_cold ->
                  Hashtbl.replace reach callee { r_root; r_parent = Some key };
                  Queue.add callee queue
              | _ -> ())
          d.G.d_callees
  done;
  reach

let kind_phrase = function
  | G.Alloc -> "allocation"
  | G.List_build -> "list building"
  | G.Printf_alloc -> "closure allocation"
  | G.Encode -> "re-encode"
  | G.Decode_copy -> "decode copy"

let findings (g : G.t) (reach : t) =
  List.concat_map
    (fun (d : G.def) ->
      match Hashtbl.find_opt reach d.G.d_key with
      | None -> []
      | Some { r_root; _ } ->
          List.map
            (fun (s : G.sink) ->
              let extra =
                match s.G.sk_kind with
                | G.Encode -> " — defeats encode-once, share a pre_encode"
                | G.Decode_copy ->
                    " — defeats zero-copy decode, peek the frame in place (Message.peek_*)"
                | _ -> ""
              in
              Finding.make ~file:d.G.d_file ~line:s.G.sk_line ~col:s.G.sk_col ~rule:"R8"
                ~ident:d.G.d_name
                (Printf.sprintf
                   "hot-path %s `%s` in `%s`, reachable from fan-out root `%s`%s (corona_lint \
                    --why R8 %s)"
                   (kind_phrase s.G.sk_kind) s.G.sk_what d.G.d_key r_root extra d.G.d_key))
            d.G.d_sinks)
    (G.defs_in_order g)

(* The call chain root -> ... -> target, as (key, file, line) triples. *)
let chain (g : G.t) (reach : t) key =
  let rec up key acc =
    match (G.find g key, Hashtbl.find_opt reach key) with
    | Some d, Some { r_parent; _ } -> (
        let acc = (d.G.d_key, d.G.d_file, d.G.d_line) :: acc in
        match r_parent with None -> acc | Some p -> up p acc)
    | _ -> acc
  in
  up key []

let why (g : G.t) (reach : t) target =
  match G.resolve_query g target with
  | Error e -> Error e
  | Ok d -> (
      match Hashtbl.find_opt reach d.G.d_key with
      | None ->
          Error
            (Printf.sprintf "`%s` is not reachable from any hot root (no [@@corona.hot] \
                             function or Fabric.transmit_many caller reaches it)"
               d.G.d_key)
      | Some { r_root; _ } ->
          let steps = chain g reach d.G.d_key in
          let b = Buffer.create 256 in
          Buffer.add_string b
            (Printf.sprintf "R8: %s is reachable from hot root %s\n" d.G.d_key r_root);
          List.iteri
            (fun i (key, file, line) ->
              Buffer.add_string b
                (Printf.sprintf "  %s%s (%s:%d)%s\n"
                   (if i = 0 then "" else "-> ")
                   key file line
                   (if i = 0 then " [hot root]" else "")))
            steps;
          List.iter
            (fun (s : G.sink) ->
              Buffer.add_string b
                (Printf.sprintf "     sink: %s `%s` at %s:%d\n" (kind_phrase s.G.sk_kind)
                   s.G.sk_what d.G.d_file s.G.sk_line))
            d.G.d_sinks;
          Ok (Buffer.contents b))
