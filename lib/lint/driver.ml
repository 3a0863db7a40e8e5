(* Two-phase pipeline: parse every .ml under the roots once, run the
   per-file rules (R1–R7), then build the whole-corpus call graph and run
   the interprocedural families (R8 reachability, R9 pairing, R10
   exhaustiveness) over the retained parse trees. All findings funnel
   through the owning file's context so [@corona.allow] spans apply
   uniformly, then through the allowlist, dedupe, and one sorted print in
   text or JSON. *)

let norm path = String.concat "/" (String.split_on_char '\\' path)

let skip_dir name =
  name = "_build" || name = "_opam" || (String.length name > 0 && name.[0] = '.')

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun n -> not (skip_dir n))
    |> List.sort String.compare
    |> List.fold_left (fun acc n -> walk acc (Filename.concat path n)) acc
  else if Filename.check_suffix path ".ml" then norm path :: acc
  else acc

let source_files roots = List.rev (List.fold_left walk [] roots)

let parse_error ~file exn =
  let loc_line loc = loc.Location.loc_start.pos_lnum in
  let line, msg =
    match exn with
    | Syntaxerr.Error e -> (loc_line (Syntaxerr.location_of_error e), "syntax error")
    | Lexer.Error (_, loc) -> (loc_line loc, "lexer error")
    | exn -> (1, Printexc.to_string exn)
  in
  Finding.make ~file ~line ~col:0 ~rule:"PARSE" msg

let parse_file file =
  match Pparse.parse_implementation ~tool_name:"corona-lint" file with
  | ast -> Ok (file, ast)
  | exception ((Syntaxerr.Error _ | Lexer.Error _) as exn) -> Error (parse_error ~file exn)

type format = Text | Json

let print_findings format findings =
  match format with
  | Text -> List.iter (fun f -> print_endline (Finding.to_string f)) findings
  | Json ->
      print_string "[";
      List.iteri
        (fun i f ->
          if i > 0 then print_string ",";
          print_string "\n  ";
          print_string (Finding.to_json f))
        findings;
      if findings <> [] then print_string "\n";
      print_endline "]"

let tally findings =
  let count rule = List.length (List.filter (fun (f : Finding.t) -> f.rule = rule) findings) in
  let rules =
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R10" ]
  in
  let extra =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (f : Finding.t) -> if List.mem f.rule rules then None else Some f.rule)
         findings)
  in
  String.concat " "
    (List.map (fun r -> Printf.sprintf "%s=%d" r (count r)) (rules @ extra))

let run ?allowlist ?(format = Text) ?why ?budget ~roots () =
  let t0 = (Unix.gettimeofday () [@corona.allow "R1"]) in
  let allow, allow_errs =
    match allowlist with None -> (Allowlist.empty, []) | Some path -> Allowlist.load path
  in
  List.iter (fun e -> prerr_endline ("corona-lint: allowlist: " ^ e)) allow_errs;
  let files = source_files roots in
  (* phase 1: parse everything once, keep the trees *)
  let units, parse_failures =
    List.fold_left
      (fun (us, fs) file ->
        match parse_file file with Ok u -> (u :: us, fs) | Error f -> (us, f :: fs))
      ([], []) files
  in
  let units = List.rev units and parse_failures = List.rev parse_failures in
  let ctxs = List.map (fun (file, str) -> (file, Lint_ctx.create ~file, str)) units in
  List.iter (fun (_, ctx, str) -> Rules.run ctx str) ctxs;
  (* phase 2: whole-corpus analyses over the retained trees *)
  let cg = Callgraph.build units in
  let reach = Reach.analyze cg in
  match why with
  | Some target -> (
      match Reach.why cg reach target with
      | Ok chain ->
          print_string chain;
          0
      | Error msg ->
          prerr_endline ("corona-lint: --why: " ^ msg);
          1)
  | None ->
      let vsets = Exhaustive.variant_sets units in
      List.iter
        (fun (_, ctx, str) ->
          Pairing.run ctx str;
          Exhaustive.run ctx vsets str)
        ctxs;
      (* R8 findings land in the sink's own file, so its [@corona.allow]
         spans (and allowlist entries) apply *)
      List.iter
        (fun (f : Finding.t) ->
          match List.find_opt (fun (file, _, _) -> file = f.file) ctxs with
          | Some (_, ctx, _) -> Lint_ctx.add_finding ctx f
          | None -> ())
        (Reach.findings cg reach);
      let findings = List.concat_map (fun (_, ctx, _) -> Lint_ctx.harvest ctx) ctxs in
      let findings = findings @ parse_failures in
      (* sort + dedupe: identical findings reported twice for one loc
         collapse here *)
      let findings = List.sort_uniq Finding.compare_total findings in
      let findings = Allowlist.filter allow findings in
      let findings = findings @ Allowlist.stale allow in
      let findings = List.sort Finding.order findings in
      print_findings format findings;
      let elapsed = (Unix.gettimeofday () [@corona.allow "R1"]) -. t0 in
      Printf.eprintf "corona-lint: %s | %d file(s), %d finding(s) in %.2fs\n%!" (tally findings)
        (List.length files) (List.length findings) elapsed;
      let over_budget =
        match budget with
        | Some b when elapsed > b ->
            Printf.eprintf "corona-lint: budget exceeded: %.2fs > %.2fs\n%!" elapsed b;
            true
        | _ -> false
      in
      if allow_errs <> [] || over_budget || List.exists Finding.is_error findings then 1 else 0
