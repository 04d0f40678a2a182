(** The interpreter oracles (checker families 2 and 3).

    One harness runs the reference interpreter over the analyzed
    program and hands every instruction execution to an observer, which
    compares the observed value against a claim the analysis made for
    that definition. A divergence is a real soundness bug in the
    analysis, never in the program under test.

    - {!Classes} checks the classifier. Closed forms (linear,
      polynomial, geometric, wrap-around, flip-flop — everything
      {!Analysis.Ivclass.eval_at_nest} can evaluate) must equal the
      observed value at the current iteration number h; monotonic
      classes must keep their (strict) direction within each loop
      activation. Only defs inside loops are compared. Codes: [ORA001]
      closed-form divergence, [ORA002] monotonicity violation.
    - {!Ranges} checks the range analysis. Every computed value, in a
      loop or not, must lie inside its def's reported interval
      ([RNG001]) and inside the body-refined interval at the def's own
      block ([RNG002]). Top intervals are not counted as checks.

    The check is bounded two ways: [iters] caps the iteration index h
    per loop (the first N iterations — closed forms that hold for N
    iterations of every loop shape the classifier handles hold
    generally), and [fuel] caps total interpreted steps. The interpreter
    computes over Z like the classifier; a run that traps (overflow of
    the native range, division by zero) is compared up to the trap. *)

type observer =
  | Classes  (** each def's classification *)
  | Ranges of Analysis.Range.t  (** each def's reported interval *)

type result = {
  diags : Ir.Diag.t list;
  checked : int;  (** claims actually compared *)
  vars : int;  (** distinct defs with at least one comparison *)
  max_h : int;
      (** deepest iteration index compared ({!Classes}) or interpreted
          ({!Ranges}) *)
  out_of_fuel : bool;
}

(** [check observer t] interprets and compares. [iters] (default
    unbounded) is the per-loop iteration cap N; [tag] labels the run in
    messages (useful when the same program is checked under several
    parameter valuations). Reporting stops after [max_diags] findings
    (default 16); checking continues so the counts stay honest. *)
val check :
  ?iters:int ->
  ?fuel:int ->
  ?max_diags:int ->
  ?params:(Ir.Ident.t -> int) ->
  ?rand:(unit -> bool) ->
  ?arrays:((Ir.Ident.t * int list) * int) list ->
  ?tag:string ->
  observer ->
  Analysis.Pipeline.analysis ->
  result
