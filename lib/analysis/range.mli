(** Value-range analysis: a sound interval per SSA def, computed by an
    optimistic fixpoint with widening at loop-header phis, clamped by
    SCCP constants and by classification closed forms over trip-counted
    iteration spaces (see docs/RANGES.md). *)

type t

(** [compute ?sccp ~class_of ~trip_of ssa] runs the analysis. [class_of]
    resolves a def's (promoted) classification, [trip_of] a loop's trip
    count; both normally come from the pipeline's classification layer
    (see {!Pipeline.range_of}). *)
val compute :
  ?sccp:Sccp.result ->
  class_of:(Ir.Instr.Id.t -> Ivclass.t option) ->
  trip_of:(int -> Trip_count.t option) ->
  Ir.Ssa.t ->
  t

(** Fixpoint rounds used (bounded; see the widening policy). *)
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
