(** The demand-driven analysis pipeline.

    The paper's algorithm is naturally staged — parse, lowering,
    CFG/dominators, SSA, the loop forest, SCCP, the inner-to-outer
    per-nest classification walk (with trip counts, exit values and
    multiloop promotion, §5.2–5.3), and finally dependence testing (§6).
    This module makes the staging explicit: a {!pass} is a typed node of
    a static DAG; a pipeline instance ({!t}) forces passes lazily on
    demand, remembers each forced pass's value, and records which passes
    have run ([ivtool passes] lists them; the service engine keys its
    artifacts off a digest of the source text alone).

    Two layers:

    - {e the classification walk} — one walk per loop-forest root (an
      analysis unit), whose artifacts one assembler merges into an
      {!analysis}, the one analysis record, for the lazy instance and
      for SSA-only callers ({!analyze}) alike. The queries
      ({!class_of}, {!global_class_of}, …) and the report renderers
      read it.
    - {e the lazy instance} ({!create} and the per-pass accessors) —
      one pipeline per source text, thread-safe (a mutex serializes
      stage forcing per instance; distinct sources never contend).

    The [Depgraph] pass is declared in the DAG (so the pass listing
    covers it) but is {e forced} by the service layer: dependence
    testing lives in [lib/dependence], above this library, and the
    engine keeps its result. The verify passes follow the same pattern:
    declared here, computed by [lib/verify] through the engine's
    checked mode. *)

(* -- the pass DAG -- *)

type pass =
  | Parse  (** source text → AST *)
  | Lower  (** AST → pre-SSA CFG (the [ivtool cfg] view) *)
  | Ssa  (** AST → SSA form (CFG, dominators, loop forest inside) *)
  | Looptree  (** SSA → the loop-nesting forest *)
  | Sccp  (** SSA → conditional constant propagation (per options) *)
  | Units
      (** the analysis units: one per loop-forest root, each with an
          exact digest of its SSA — the incremental cache key *)
  | Unitclassify
      (** the per-unit hit/miss record of the Classify walk — counted by
          the service layer, which owns the shared unit-artifact cache
          ({!classify_with_units}) *)
  | Classify
      (** the unit walk: per nest, inner-to-outer classification tables,
          trip counts, exit values and multiloop promotion (§5.2–5.3) *)
  | Trip  (** per-loop trip-count report (projection of Classify) *)
  | Ranges
      (** per-def value intervals: classification closed forms + SCCP
          constants seed a widened interval fixpoint ({!Range}) *)
  | Depgraph  (** dependence graph (§6) — forced by the service layer *)
  | VerifyIr
      (** structural verification of the lowered CFG, the SSA form and
          the loop forest — forced by the service layer (lib/verify) *)
  | VerifyClass
      (** the classification soundness oracle (differential against the
          interpreter) — forced by the service layer *)
  | VerifyRanges
      (** the range-interval oracle: every concrete valuation inside its
          reported interval — forced by the service layer *)
  | VerifyTrans
      (** transform validation (structural + differential after
          DCE/LICM/strength-reduction/normalize) — forced by the
          service layer *)

(** Every pass, in topological order. *)
val all : pass list

val name : pass -> string

(** Direct inputs of a pass (the static DAG). [Ssa] declares [Parse],
    not [Lower]: SSA conversion consumes (mutates) the CFG it lowers,
    so the [Lower] pass keeps the pristine pre-SSA view and the SSA
    pass lowers its own copy. *)
val inputs : pass -> pass list

(** Passes the pipeline cannot compute by itself — the service layer
    forces them and keeps their results: [Depgraph] (lives
    in [lib/dependence]), the three verify passes ([lib/verify]) and
    [Unitclassify] (its per-unit hits and misses are the engine's). *)
val engine_forced : pass -> bool

(* -- options -- *)

type options = { use_sccp : bool }

val default_options : options

(* -- the analysis record -- *)

(** One loop's results, as plain data: the class of each direct
    instruction, the trip count, and the ids of those instructions in
    program order ([nodes], the report's row order). Nothing here points
    into a program: the loop record comes from the analysis's own
    forest, and the §3 SSA graph lives only while the walk runs. *)
type loop_result = {
  table : Ivclass.t Ir.Instr.Id.Table.t;
  trip : Trip_count.t;
  nodes : Ir.Instr.Id.t array;
}

type analysis = {
  ssa : Ir.Ssa.t;
  sccp : Sccp.result option;
  by_loop : loop_result option array;  (** indexed by loop id *)
  exit_values : Sym.t Ir.Instr.Id.Table.t;
}

(* -- queries over the analysis -- *)

val trip_count : analysis -> int -> Trip_count.t

(** [exit_value a id] is the symbolic value of a def after its loop
    exits, when the loop is countable and the def unconditional (§5.3). *)
val exit_value : analysis -> Ir.Instr.Id.t -> Sym.t option

(** [class_of a id] is the classification of a def in its innermost loop
    (invariant for defs outside all loops). *)
val class_of : analysis -> Ir.Instr.Id.t -> Ivclass.t

(** [class_of_name a name] looks up by SSA name ("j2"). *)
val class_of_name : analysis -> string -> Ivclass.t option

(** [global_class_of a v] expresses a value's classification in the frame
    of the whole nest: invariant symbols over defs that vary in outer
    loops are expanded through those defs' classifications (what
    dependence testing needs for subscripts like "i - 1" computed in an
    inner loop). *)
val global_class_of : analysis -> Ir.Instr.value -> Ivclass.t

val resolve_global : analysis -> Ivclass.t -> Ivclass.t

(* -- the classification walk -- *)

(** [analyze ?use_sccp ssa] classifies every loop of the program from
    the innermost out, computing trip counts and symbolic exit values as
    each countable loop completes, then rewrites inner initial values
    that are outer-loop IVs into the paper's nested multiloop tuples
    (§5.2–5.3, Figs 8–9). [use_sccp] (default true) feeds
    conditional-constant-propagation results into initial values. This
    is the entry point for callers that hold only SSA (transform
    validation, [ivtool optimize]). It walks each loop-forest root and
    merges the results exactly as the [Classify] pass does, without
    computing unit keys — walking one nest at a time is the whole walk,
    since exit values never cross a nest boundary and promotion relates
    only loops of one nest. *)
val analyze : ?use_sccp:bool -> Ir.Ssa.t -> analysis

(* -- analysis units (incremental re-analysis) -- *)

(** A unit's canonical numbering: this program's instruction id, block
    label and loop id at each canonical index (first appearance in the
    unit's block order; [c_loops] lists the unit's loops inner-to-outer,
    the order the walk visits them). *)
type canon = {
  c_defs : Ir.Instr.Id.t array;
  c_labels : Ir.Label.t array;
  c_loops : int array;
}

(** One analysis unit: a loop-forest root and its nest. [udigest] is an
    exact digest of everything the walk over the nest can observe, in
    the unit's canonical numbering — options, loop shape, in-loop
    instructions, predecessors and terminators, the relative order of
    the unit's own ids, and the SCCP constant fact of every def the unit
    defines or reads — so it does not depend on where the nest sits in
    the program. [ucanon] is this program's numbering of the unit. *)
type unit_info = {
  uroot : int;
  udigest : Hash.Fnv.t;
  ucanon : canon;
}

(** The cached per-unit result: promoted per-loop classification
    results (aligned with [c_loops]), the unit's exit values, and the
    numbering of the program that computed them. An artifact holds only
    ids, classes and counts, so caching it keeps no program alive.
    Artifacts are shared across pipeline instances and domains — never
    mutated after creation. *)
type unit_artifact = {
  ua_results : loop_result list;
  ua_exits : (Ir.Instr.Id.t * Sym.t) list;
  ua_canon : canon;
}

(** What happened to one unit during {!classify_with_units}. *)
type unit_outcome = {
  u_index : int;  (** position in {!units} *)
  u_loop : string;  (** the root loop's name *)
  u_hit : bool;  (** the artifact came from the unit cache *)
  u_relocated : bool;
      (** a hit computed in a differently numbered program, mapped into
          this one *)
}

(* -- report renderers -- *)

(** A class rendered in the paper's tuple notation, with loop names
    ("L18") and def atoms ("k2") from [a]. *)
val class_to_string : analysis -> Ivclass.t -> string

(** The per-loop classification report (see README). *)
val report_of : analysis -> string

(** The per-loop trip-count report (the [trip] artifact). *)
val trip_report_of : analysis -> string

(** [range_of a] runs the value-range analysis over a (promoted)
    analysis record — the [Ranges] pass body, called directly (fresh
    each call) by standalone consumers such as transform validation. *)
val range_of : analysis -> Range.t

(* -- the lazy per-source instance -- *)

type t

(** [create ?options src] — nothing is forced yet. *)
val create : ?options:options -> string -> t

val options : t -> options

(** Per-pass accessors: each forces its pass (and, transitively, the
    pass's inputs) on first use and returns the memoized result after.
    [Error] carries the parse / SSA-construction diagnostic. *)

val parse : t -> (Ir.Ast.program, string) result

val lower : t -> (Ir.Cfg.t, string) result
val ssa : t -> (Ir.Ssa.t, string) result
val looptree : t -> (Ir.Loops.t, string) result
val sccp : t -> (Sccp.result option, string) result

(** The rendered trip-count report (forces through [Trip] only). *)
val trip_report : t -> (string, string) result

(** The promoted (final) analysis — what {!analyze} returns for the
    same program. *)
val promoted : t -> (analysis, string) result

(** The rendered classification report (forces through [Classify]),
    rendered on each call. *)
val report : t -> (string, string) result

(** The analysis units with their digests: one per loop-forest root, in
    forest order. Loops the CFG drops as unreachable belong to none. *)
val units : t -> (unit_info list, string) result

(** The value-range analysis over the promoted classification (forces
    through [Ranges]). *)
val ranges : t -> (Range.t, string) result

(** The rendered range table, rendered on each call. *)
val range_report : t -> (string, string) result

(** [classify_with_units ?pool_run ~lookup ~store t] forces [Classify]
    through a unit-artifact cache: probe [lookup] with each unit's
    digest, relocate each hit stored by a differently numbered program
    into this one, run the classification walk over each missing unit
    (relocations and walks fanned out through [pool_run] when given and
    more than one unit needs either), [store] the relocated and fresh
    artifacts, and install the merged analysis (the
    renderers and the dependence pass run on it unchanged, so
    incremental reports are byte-identical to a cold run). Returns one
    {!unit_outcome} per unit (empty when [Classify] was already
    forced). Forcing [Classify] any other way runs the same walk with
    no cache; the service engine passes its shared one. *)
val classify_with_units :
  ?pool_run:((unit -> unit_artifact) array -> unit_artifact array) ->
  lookup:(Hash.Fnv.t -> unit_artifact option) ->
  store:(Hash.Fnv.t -> unit_artifact -> unit) ->
  t ->
  (unit_outcome list, string) result

(** [force t pass] forces one pass generically. [Depgraph] cannot be
    forced here (it lives above this library) and returns [Error]. *)
val force : t -> pass -> (unit, string) result

(** [forced t pass] — has the pass run here? Never forces anything.
    [Unitclassify] counts as forced once [Classify] succeeded; the
    passes the service layer computes ([Depgraph] and the verify
    passes) are never forced here: the engine keeps their results. *)
val forced : t -> pass -> bool
