(** Instantiable result-row accumulator for the bench harness's JSON
    outputs. One instance per output file: rows from distinct sweeps can
    never leak into each other's files (the failure mode behind the stale
    byte-identical ns_per_bcast rows BENCH_scale.json once carried). *)

type t

val create : unit -> t
(** A fresh, empty accumulator. *)

val num : float -> string
(** JSON number rendering: one decimal place, [null] for non-finite. *)

val add : t -> section:string -> (string * string) list -> unit
(** Append one row (a flat key/value object) under [section]. Values are
    spliced verbatim — callers quote strings themselves. *)

val rows : t -> (string * string) list
(** All [(section, rendered-object)] rows in insertion order. *)

val is_empty : t -> bool

val write : t -> string -> unit
(** Write the accumulated rows to [path] as a JSON object mapping each
    section to its array of rows. Sections of an existing file at [path]
    that this sweep has no rows for are kept as they were, in their place;
    the sweep's sections replace their namesakes and new ones follow, in
    first-appearance order. No file is written (or truncated) when the
    accumulator is empty. *)
