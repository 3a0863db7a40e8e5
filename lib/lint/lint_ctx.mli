(** Shared per-file lint context: precomputed rule scoping, the
    [@corona.allow] suppression table, same-file module aliases, and the
    findings accumulator. Per-file rules (Rules) and interprocedural passes
    (Reach / Pairing / Exhaustive) all report into the owning file's context
    so in-source suppressions apply uniformly. *)

(** {2 String and AST helpers} *)

val contains : string -> string -> bool
(** Substring test with a first-character skip ([String.index_from_opt]);
    O(n + occurrences·m) rather than the naive O(n·m). *)

val has_suffix : string -> string -> bool
val flatten : Longident.t -> string list
val last2 : 'a list -> ('a * 'a) option
val pat_name : Parsetree.pattern -> string option
val handler_name : string -> bool

(** {2 The context} *)

type t = {
  file : string;
  random_exempt : bool;  (** R1: Sim.Rng's own implementation *)
  poly_active : bool;  (** R3: protocol-state layers *)
  codec_internal : bool;  (** R5/R8: the sanctioned serialization layer *)
  handler_active : bool;  (** R6 *)
  transfer_hot : bool;  (** R7 *)
  mutable findings : Finding.t list;
  mutable suppressions : (string * int * int) list;
  mutable bindings : string list;
  aliases : (string, string list) Hashtbl.t;
}

val create : file:string -> t

val report :
  t -> loc:Location.t -> rule:string -> ?ident:string -> string -> unit
(** Append a finding at [loc]; [ident] defaults to the outermost enclosing
    binding recorded in [bindings]. *)

val add_finding : t -> Finding.t -> unit
(** Append an already-built finding (used by the interprocedural passes). *)

val record_allows : t -> Parsetree.attributes -> Location.t -> unit
(** Record [@corona.allow "RULE-ID"] attributes as suppression spans; a
    malformed payload is itself reported as a [LINT] finding. *)

val expand : t -> string list -> string list
(** Expand a leading same-file [module M = Path] alias. *)

val suppressed : t -> Finding.t -> bool

val harvest : t -> Finding.t list
(** All findings reported so far, in source order, with in-source
    suppressions applied. *)
