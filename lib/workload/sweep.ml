(* Instantiable result-row accumulator for the bench harness's
   machine-readable outputs (BENCH_micro.json / BENCH_scale.json /
   BENCH_transfer.json).

   Each sweep owns its rows: the previous design kept three toplevel
   mutable lists in bench/main.ml, and rows surviving across re-entrant
   experiment runs produced stale, misordered pairs in the committed JSON
   (two deployments sharing a byte-identical ns_per_bcast). An instance per
   output file makes cross-run leakage impossible by construction, and the
   unit test pins that two instances accumulate independently. *)

type t = { mutable rev_rows : (string * string) list }

let create () = { rev_rows = [] }

let num v = if Float.is_finite v then Printf.sprintf "%.1f" v else "null"

let add t ~section fields =
  let obj =
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}"
  in
  t.rev_rows <- (section, obj) :: t.rev_rows

let rows t = List.rev t.rev_rows

let is_empty t = t.rev_rows = []

(* The sections of a file [write] produced, in file order: a section opens
   on a [  "name": [] line, holds one row object per line and closes on a
   [  ]] line. A missing file has none. *)
let read_sections path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go cur acc =
            match (input_line ic, cur) with
            | exception End_of_file -> List.rev acc
            | line, None -> (
                match Scanf.sscanf line "  %S: [%!" Fun.id with
                | name -> go (Some (name, [])) acc
                | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                    go None acc)
            | ("  ]" | "  ],"), Some (name, rows) ->
                go None ((name, List.rev rows) :: acc)
            | line, Some (name, rows) ->
                let row = String.trim line in
                let row =
                  if String.ends_with ~suffix:"," row then
                    String.sub row 0 (String.length row - 1)
                  else row
                in
                go (Some (name, row :: rows)) acc
          in
          go None [])

let write t path =
  match rows t with
  | [] -> ()
  | rows ->
      (* group rows by section, preserving first-appearance order *)
      let fresh =
        List.fold_left
          (fun acc (s, _) -> if List.mem s acc then acc else acc @ [ s ])
          [] rows
      in
      let rows_of s =
        List.filter_map (fun (s', o) -> if s' = s then Some o else None) rows
      in
      (* A partial run replaces only its own sections: the file's other
         sections keep their rows and their place, and new sections go last. *)
      let kept = read_sections path in
      let sections =
        List.map
          (fun (s, old) -> (s, if List.mem s fresh then rows_of s else old))
          kept
        @ List.filter_map
            (fun s -> if List.mem_assoc s kept then None else Some (s, rows_of s))
            fresh
      in
      let oc = open_out path in
      (* Close on the exception edge too (R9): a failed write must not leak
         the descriptor. *)
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc "{\n";
          List.iteri
            (fun i (s, objs) ->
              if i > 0 then output_string oc ",\n";
              Printf.fprintf oc "  %S: [\n" s;
              List.iteri
                (fun j o ->
                  if j > 0 then output_string oc ",\n";
                  Printf.fprintf oc "    %s" o)
                objs;
              output_string oc "\n  ]")
            sections;
          output_string oc "\n}\n");
      Format.printf "@.wrote %s@." path
