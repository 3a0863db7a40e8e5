(* R8 corpus: the per-call list and array builders of a list-taking fan-out
   (filter the live recipients, split them by sender, copy them into arrays).
   Each sink fires once; its [@corona.allow] twin stays silent. *)

let live conns = List.filter (fun c -> c > 0) conns [@@corona.hot]
let by_sender conns = List.partition (fun c -> c mod 2 = 0) conns [@@corona.hot]
let to_array conns = Array.of_list conns [@@corona.hot]
let seqs arr = Array.map succ arr [@@corona.hot]

let live_ok conns = (List.filter (fun c -> c > 0) conns [@corona.allow "R8"]) [@@corona.hot]
let by_sender_ok conns = (List.partition (fun c -> c mod 2 = 0) conns [@corona.allow "R8"]) [@@corona.hot]
let to_array_ok conns = (Array.of_list conns [@corona.allow "R8"]) [@@corona.hot]
let seqs_ok arr = (Array.map succ arr [@corona.allow "R8"]) [@@corona.hot]
