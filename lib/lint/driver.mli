(** Linter entry point, as a two-phase pipeline: parse every root once and
    run the per-file rules (R1–R7), then build the whole-corpus call graph
    and run the interprocedural families (R8/R9/R10) over the retained
    trees. Findings are deduped, allowlist-filtered, and printed sorted by
    location in text or JSON. *)

type format = Text | Json

val run :
  ?allowlist:string ->
  ?format:format ->
  ?why:string ->
  ?budget:float ->
  roots:string list ->
  unit ->
  int
(** Returns the process exit code: 0 when clean, 1 when any error-severity
    finding (or stale allowlist entry) remains, or when [budget] seconds of
    wall time were exceeded. A per-run tally
    ([corona-lint: R1=0 ... R10=0 | N file(s), M finding(s) in 0.4s]) goes
    to stderr. With [why], prints the R8 call chain from a hot root to the
    named function instead of linting (0 when reachable, 1 otherwise). *)
