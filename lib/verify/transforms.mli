(** Transform validators (checker family 3).

    Each rewriting pass — DCE, LICM, strength reduction, loop
    normalization — is applied to a fresh SSA conversion of the program
    (the transforms mutate their CFG in place, so every one gets its own
    copy), then validated two ways: the structural verifiers re-run over
    the rewritten IR (their diagnostics keep their [CFG*]/[SSA*] codes
    but carry the transform's name as origin), and the rewritten program
    is interpreted against the untransformed one under identical inputs
    and random streams, comparing final array contents — the semantic
    footprint the dependence tests care about. Only runs where the
    untransformed program halts are compared, so a rewritten program
    that traps where the original halts diverges.

    Codes: [TRN001] a transform raised, [TRN002] footprint divergence
    after a transform (or a trap the original does not have), [TRN003]
    the same for bounds-check elimination against the fully-checked
    program, [TRN000] (info) differential skipped because a run ran out
    of fuel or the original trapped. *)

type result = {
  diags : Ir.Diag.t list;
  transforms : int;  (** validators that ran *)
  cells : int;  (** array cells compared across all differentials *)
}

(** [check p] validates every transform of the program. [params]/[seed]
    fix the inputs and the '??' stream for both sides of each
    differential run. *)
val check :
  ?fuel:int ->
  ?seed:int ->
  ?params:(Ir.Ident.t -> int) ->
  Ir.Ast.program ->
  result
