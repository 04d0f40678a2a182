(** Value-range analysis: a sound interval per SSA def, computed by an
    optimistic fixpoint with widening at loop-header phis, clamped by
    SCCP constants and by classification closed forms over trip-counted
    iteration spaces (see docs/RANGES.md). *)

type t

(** A loop-forest root's solved facts, in this program's numbering: the
    full interval of each def the root defines (defs never reached are
    left out), its below-the-exit-test refinements as (def, loop,
    counted exit block, interval), and the rounds its fixpoint took,
    counting the confirming round. *)
type facts = {
  f_full : (Ir.Instr.Id.t * Interval.t) list;
  f_body : (Ir.Instr.Id.t * int * Ir.Label.t * Interval.t) list;
  f_rounds : int;
}

(** What a root's fixpoint reads when the top-level pass reaches its
    header: the intervals of the defs already finished ([interval_now];
    [None] for a def never reached), block executability, and which defs
    the root defines ([owns]). [solve] runs the root's fixpoint. *)
type region = {
  root : int;
  interval_now : Ir.Instr.Id.t -> Interval.t option;
  executable : Ir.Label.t -> bool;
  owns : Ir.Instr.Id.t -> bool;
  solve : unit -> facts;
}

(** [compute ?sccp ?through ~class_of ~trip_of ssa] runs the analysis
    one loop-forest root at a time: top-level blocks get one pass in
    reverse postorder, and each root reached there iterates to its own
    fixpoint (its own widening counter and cap). [through] answers each
    root, by calling [solve] or from a cache keyed on what the region
    reads; without it every root is solved. [class_of] resolves a def's
    (promoted) classification, [trip_of] a loop's trip count; both
    normally come from the pipeline's classification layer (see
    {!Pipeline.range_of}). *)
val compute :
  ?sccp:Sccp.result ->
  ?through:(region -> facts) ->
  class_of:(Ir.Instr.Id.t -> Ivclass.t option) ->
  trip_of:(int -> Trip_count.t option) ->
  Ir.Ssa.t ->
  t

(** Fixpoint rounds used: the most any root took, counting its
    confirming round (bounded; see the widening policy). *)
val iterations : t -> int

(** [interval_of t id] bounds every value the def ever computes — for a
    for-loop header phi this includes the final exit-test value. *)
val interval_of : t -> Ir.Instr.Id.t -> Interval.t

(** [interval_at t ~block id] refines [interval_of] at a use site: at
    blocks of the def's loop dominated by the counted exit block, the
    final exit-test iteration is excluded (h <= U - 1). *)
val interval_at : t -> block:Ir.Label.t -> Ir.Instr.Id.t -> Interval.t

(** [value_interval_at] lifts {!interval_at} to operands (constants are
    singletons, params are unbounded). *)
val value_interval_at : t -> block:Ir.Label.t -> Ir.Instr.value -> Interval.t

(** [sym_interval t s] bounds a symbolic polynomial by interval
    evaluation over its atoms' full intervals; [None] when a coefficient
    is fractional. *)
val sym_interval : t -> Sym.t -> Interval.t option

(** Human-readable table: one line per def, full interval plus the
    below-the-exit-test refinement when one exists. Deterministic; used
    as the pass digest. *)
val report : t -> string

(** Machine-readable rendering of the same table. *)
val to_json : t -> string
