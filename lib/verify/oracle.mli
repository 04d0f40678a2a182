(** The classification soundness oracle (checker family 2).

    Runs the reference interpreter over the analyzed program and, at
    every instruction execution inside a loop, compares the observed
    value against the claim the classifier made for that definition:
    closed forms (linear, polynomial, geometric, wrap-around, flip-flop
    — everything {!Analysis.Ivclass.eval_at_nest} can evaluate) are
    checked for equality at the current iteration number h; monotonic
    classes are checked for (strict) direction within each loop
    activation. A divergence is a real soundness bug in the analysis,
    never in the program under test.

    Codes: [ORA001] closed-form divergence, [ORA002] monotonicity
    violation.

    The check is bounded three ways: [iters] caps the iteration index h
    per loop (the first N iterations — divergence beyond machine-word
    overflow territory is meaningless, and closed forms that hold for N
    iterations of every loop shape the classifier handles hold
    generally); [fuel] caps total interpreted steps; and predictions
    whose exact value exceeds 2^55 are skipped, since the interpreter
    wraps native integers while the classifier is exact. *)

type result = {
  diags : Ir.Diag.t list;
  checked : int;  (** predictions actually compared *)
  vars : int;  (** distinct classified defs observed *)
  max_h : int;  (** deepest iteration index compared *)
  out_of_fuel : bool;
}

(** [check t] interprets and compares. [iters] (default unbounded) is
    the per-loop iteration cap N; [tag] labels the run in messages
    (useful when the same program is checked under several parameter
    valuations). Reporting stops after [max_diags] findings (default
    16); checking continues so the counts stay honest. *)
val check :
  ?iters:int ->
  ?fuel:int ->
  ?max_diags:int ->
  ?params:(Ir.Ident.t -> int) ->
  ?rand:(unit -> bool) ->
  ?arrays:((Ir.Ident.t * int list) * int) list ->
  ?tag:string ->
  Analysis.Pipeline.analysis ->
  result
