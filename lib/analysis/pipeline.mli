(** The demand-driven analysis pipeline.

    The paper's algorithm is naturally staged — parse, lowering,
    CFG/dominators, SSA, the loop forest, SCCP, the inner-to-outer
    per-nest classification walk (with trip counts, exit values and
    multiloop promotion, §5.2–5.3), and finally dependence testing (§6).
    This module makes the staging explicit: a {!pass} is a typed node of
    a static DAG; a pipeline instance ({!t}) forces passes lazily on
    demand, remembers each forced pass's value, and exposes a stable
    {!Hash.Fnv} digest of every result so downstream cache keys compose
    (the service engine keys its per-pass artifacts off these digests).

    Two layers:

    - {e the classification walk} ({!analyze_nests}) — one walk, run
      per analysis unit by the lazy instance and over the whole loop
      forest by SSA-only callers ([Driver.analyze]).
    - {e the lazy instance} ({!create} and the per-pass accessors) —
      one pipeline per source text, thread-safe (a mutex serializes
      stage forcing per instance; distinct sources never contend).

    The [Depgraph] pass is declared in the DAG (so the pass listing and
    key composition cover it) but is {e forced} by the service layer:
    dependence testing lives in [lib/dependence], above this library.
    The engine records its completion with {!note}. The three verify
    passes ([VerifyIr], [VerifyClass], [VerifyTrans]) follow the same
    pattern: declared here, computed by [lib/verify] through the
    engine's checked mode. *)

(* -- the pass DAG -- *)

type pass =
  | Parse  (** source text → AST *)
  | Lower  (** AST → pre-SSA CFG (the [ivtool cfg] view) *)
  | Ssa  (** AST → SSA form (CFG, dominators, loop forest inside) *)
  | Looptree  (** SSA → the loop-nesting forest *)
  | Sccp  (** SSA → conditional constant propagation (per options) *)
  | Units
      (** the analysis-unit partition: top-level loop nests plus
          residual straight-line runs ({!Ir.Region}), each with an
          exact per-unit digest — the incremental cache key *)
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
val of_name : string -> pass option

(** Direct inputs of a pass (the static DAG). [Ssa] declares [Parse],
    not [Lower]: SSA conversion consumes (mutates) the CFG it lowers,
    so the [Lower] pass keeps the pristine pre-SSA view and the SSA
    pass lowers its own copy. *)
val inputs : pass -> pass list

val description : pass -> string

(** Passes the pipeline cannot compute by itself — the service layer
    forces them and records completion with {!note}: [Depgraph] (lives
    in [lib/dependence]), the three verify passes ([lib/verify]) and
    [Unitclassify] (its per-unit hits and misses are the engine's). *)
val engine_forced : pass -> bool

(* -- options -- *)

type options = { use_sccp : bool }

val default_options : options

(* -- the analysis payload (what Driver.t wraps) -- *)

type loop_result = {
  loop : Ir.Loops.loop;
  table : Ivclass.t Ir.Instr.Id.Table.t;
  graph : Ssa_graph.t;
  trip : Trip_count.t;
}

type analysis = {
  ssa : Ir.Ssa.t;
  sccp : Sccp.result option;
  by_loop : loop_result option array;  (** indexed by loop id *)
  exit_values : Sym.t Ir.Instr.Id.Table.t;
}

(* -- the classification walk -- *)

(** [analyze_nests ?sccp ssa roots] classifies every loop of the nests
    rooted at [roots] from the innermost out, computing trip counts and
    symbolic exit values as each countable loop completes, then rewrites
    inner initial values that are outer-loop IVs into the paper's nested
    multiloop tuples (§5.2–5.3, Figs 8–9). The lazy instance runs it on
    one analysis unit's nests at a time — equivalent, since exit values
    never cross a nest boundary and promotion relates only loops of one
    nest; [Driver.analyze] runs it on the whole forest
    ([Ir.Loops.roots]). *)
val analyze_nests : ?sccp:Sccp.result -> Ir.Ssa.t -> int list -> analysis

(* -- analysis units (incremental re-analysis) -- *)

(** One analysis unit, mapped onto the loop forest. Nest units carry
    their root loop ids ([uroots], program order) and every descendant
    loop inner-to-outer ([uloops]); straight-line units have both
    empty. [udigest] is an exact digest of everything the per-unit walk
    can observe — the unit's canonical source slice, options, loop
    forest shape, in-loop instructions and terminators (with ids), and
    the SSA name + SCCP constant fact of every def the unit defines or
    reads — so a digest hit guarantees a cached artifact's
    instruction-id-keyed tables are valid verbatim. *)
type unit_info = {
  region : Ir.Region.unit_;
  uroots : int list;
  uloops : int list;
  udigest : Hash.Fnv.t;
}

(** The cached per-unit result: promoted per-loop classification
    results (aligned with [uloops]) and the unit's exit values.
    Artifacts are shared across pipeline instances and domains — never
    mutated after creation. *)
type unit_artifact = {
  ua_results : loop_result list;
  ua_exits : (Ir.Instr.Id.t * Sym.t) list;
}

(** What happened to one nest unit during {!classify_with_units}. *)
type unit_outcome = {
  u_index : int;  (** {!Ir.Region.unit_} index *)
  u_loops : string list;  (** the unit's outermost loop names *)
  u_hit : bool;  (** the artifact came from the unit cache *)
}

(* -- report renderers (shared by Driver and the service engine) -- *)

val namer_of : analysis -> Ivclass.namer

val pp_report : Format.formatter -> analysis -> unit

(** The per-loop classification report ([Driver.report]). *)
val report_of : analysis -> string

(** The per-loop trip-count report (the [trip] artifact). *)
val trip_report_of : analysis -> string

(** [range_of a] runs the value-range analysis over a (promoted)
    analysis record — the [Ranges] pass body, also reachable through
    [Driver.ranges] for standalone consumers (transform validation). *)
val range_of : analysis -> Range.t

(* -- the lazy per-source instance -- *)

type t

(** [create ?options src] — nothing is forced yet. *)
val create : ?options:options -> string -> t

val options : t -> options

(** Digest of the raw source text plus the options — the base cache
    key. Computed once at {!create}. *)
val source_digest : t -> Hash.Fnv.t

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

(** The promoted (final) analysis — what [Driver.analyze] returns. *)
val promoted : t -> (analysis, string) result

(** The rendered classification report (forces through [Classify]). *)
val report : t -> (string, string) result

(** The analysis-unit partition with per-unit digests. Every root of
    the loop forest belongs to exactly one unit; loops the CFG drops as
    unreachable belong to none. *)
val units : t -> (unit_info list, string) result

(** The value-range analysis over the promoted classification (forces
    through [Ranges]). *)
val ranges : t -> (Range.t, string) result

(** The rendered range table (the [Ranges] digest source). *)
val range_report : t -> (string, string) result

(** [classify_with_units ?pool_run ~lookup ~store t] forces [Classify]
    through a unit-artifact cache: probe [lookup] with each nest unit's
    digest, run {!analyze_nests} over each missing unit (fanned out
    through [pool_run] when given and more than one unit missed),
    [store] the fresh artifacts, and install the merged analysis (the
    renderers and the dependence pass run on it unchanged, so
    incremental reports are byte-identical to a cold run). Returns one
    {!unit_outcome} per nest unit (empty when [Classify] was already
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

(** [forced t pass] — has the pass run (or, for [Depgraph], been
    {!note}d)? Never forces anything. *)
val forced : t -> pass -> bool

(** [digest t pass] is the stable digest of the pass's result, once
    forced. Digests are content hashes of a canonical rendering, so
    they are reproducible across instances and processes. *)
val digest : t -> pass -> Hash.Fnv.t option

(** [note t pass d] records an externally-computed pass (the service
    layer's dependence graph) as forced with result digest [d]. *)
val note : t -> pass -> Hash.Fnv.t -> unit
