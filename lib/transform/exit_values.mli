(** Exit-value materialization — the literal transformation of the
    paper's Figure 8: for every countable loop, classified definitions
    with closed-form exit values and uses after the loop get those exit
    values computed into the loop's exit block (the paper's new names k6,
    i4), and the outside uses are redirected. §5.4's loop-exit eta
    functions would provide these names for free; this is the "proper
    engineering" alternative the paper mentions. *)

type materialization = {
  original : Ir.Instr.Id.t;  (** the loop-carried def *)
  replacement : Ir.Instr.value;  (** the closed-form exit value *)
  loop : int;
}

val materialize_loop : Analysis.Pipeline.analysis -> int -> materialization list

(** [materialize t] rewrites every countable loop, inner first. The CFG
    is modified in place; re-analyze for further passes. *)
val materialize : Analysis.Pipeline.analysis -> materialization list
