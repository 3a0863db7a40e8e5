(** The per-file corona-lint rules (R1–R7), one module per rule driven by a
    single [Ast_iterator] pass over the shared {!Lint_ctx}.

    - R1: nondeterminism sources ([Unix.*], [Sys.time], [Random.*] outside
      [Sim.Rng]).
    - R2: process-global mutable state at module top level.
    - R3: polymorphic [compare] / first-class [(=)] / [Hashtbl.hash] in the
      protocol-state layers (lib/proto, lib/core, lib/replication).
    - R4: catch-all [try ... with _ ->] and [Obj.magic].
    - R5: direct [Message.encode] outside the codec internals (encode-once).
    - R6: [failwith] / [assert false] inside protocol message handlers.
    - R7: direct [Shared_state.objects] in the transfer hot paths.

    The interprocedural families live elsewhere: R8 in {!Reach}, R9 in
    {!Pairing}, R10 in {!Exhaustive}.

    Suppression: attach [[@corona.allow "RULE-ID"]] to the offending
    expression (or [[@@corona.allow "RULE-ID"]] to its binding); a floating
    [[@@@corona.allow "RULE-ID"]] suppresses the rule for the rest of the
    file. *)

val run : Lint_ctx.t -> Parsetree.structure -> unit
(** Run every per-file rule, reporting into the context. Also records the
    context's module aliases and [@corona.allow] spans, which the phase-2
    passes reuse. Findings are harvested (suppression-filtered) by the
    caller via {!Lint_ctx.harvest}. *)
