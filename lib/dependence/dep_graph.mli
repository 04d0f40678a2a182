(** Loop-nest dependence graphs: every ordered pair of same-array
    references (with at least one write) is tested per subscript
    dimension; surviving edges carry merged directions, coupled-system
    distances, and execution-order filtering (an edge exists only for
    direction vectors compatible with its source running first). *)

module Sym = Analysis.Sym
module Ivclass = Analysis.Ivclass
module Pipeline = Analysis.Pipeline

type ref_kind = Read | Write

type array_ref = {
  instr : Ir.Instr.Id.t;
  array : Ir.Ident.t;
  kind : ref_kind;
  block : Ir.Label.t;
  subscripts : Ivclass.t list;  (** one classification per dimension *)
  subscript_defs : Ir.Instr.Id.t option list;
  pos : int;  (** program order *)
  loops : int list;  (** enclosing loops, outer first *)
}

type dep_kind = Flow | Anti | Output | Input

type edge = {
  src : array_ref;
  dst : array_ref;
  kind : dep_kind;
  outcome : Deptest.outcome;
}

val kind_to_string : dep_kind -> string

(** [collect_refs t] lists every array reference in program order, with
    subscripts classified in the global (whole-nest) frame. *)
val collect_refs : Pipeline.analysis -> array_ref list

(** [common_loops a b]: the loops enclosing both references, outer
    first. *)
val common_loops : array_ref -> array_ref -> int list

(** [strict_region t loop family] is the set of loop blocks where a
    monotonic family value cannot repeat on later iterations — every
    in-loop path onward passes a strict update (paper §5.4's
    "post-dominated by the strictly monotonic assignment"). *)
val strict_region : Pipeline.analysis -> int -> int -> Ir.Label.Set.t

(** [build t] is the dependence graph: both directions of every
    same-array pair with at least one write, plus self-output edges for
    writes; subscript strictness is refined by {!strict_region} first.
    Input (read-read) pairs are included only on request. [ranges]
    sharpens the tests two ways: subscript positions with disjoint
    use-site value intervals are independent outright, and symbolic
    constant differences are bounded through [Range.sym_interval] so the
    interval Banerjee path can run where coefficients are symbolic. *)
val build :
  ?include_input:bool ->
  ?ranges:Analysis.Range.t ->
  Pipeline.analysis ->
  edge list

(** [direction_vectors_of ~bounds e] intersects per-dimension direction
    vector enumerations, when every dimension is affine and decidable. *)
val direction_vectors_of :
  bounds:(int -> int option) -> edge -> Deptest.simple_dir list list option

(** {2 Legality}

    The one query loop transformations ask of a dependence graph. *)

(** [carries g l]: some edge of [g] is carried by loop [l] — in some
    direction vector, '<' or '>' is feasible at [l]. A loop that does
    not enclose both references of an edge does not carry it. *)
val carries : edge list -> int -> bool

(** [permits_interchange g ~outer ~inner]: no edge has direction
    (<, >) on (outer, inner). Exact distances decide when both loops
    have one; otherwise any vector allowing (<, >) blocks. *)
val permits_interchange : edge list -> outer:int -> inner:int -> bool

(** [distance_vectors g loops] is each edge's exact distance vector over
    [loops] (0 where it records none), for unimodular legality; [None]
    when some edge has no exact distances. *)
val distance_vectors : edge list -> int list -> int array list option

(** {2 Rendering} *)

(** One edge on one line: [kind A@src -> A@dst: outcome]
    (see {!Deptest.add_outcome}). *)
val pp_edge : Pipeline.analysis -> Format.formatter -> edge -> unit

(** The dependence report: each edge's line, in order, each ending in a
    newline; written linearly into one buffer. *)
val to_string : Pipeline.analysis -> edge list -> string
