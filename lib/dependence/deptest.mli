(** Data dependence testing over classified subscripts (paper §6): GCD
    and Banerjee-style direction bounds for affine subscripts, coupled
    distance systems across dimensions, and the paper's translations for
    wrap-around, periodic and monotonic subscripts. A dependence is a
    finite union of direction vectors. *)

module Sym = Analysis.Sym
module Ivclass = Analysis.Ivclass
module Extint = Analysis.Extint

(** Feasible directions between source and sink iteration numbers
    (source R sink). *)
type dirset = { lt : bool; eq : bool; gt : bool }

val all_dirs : dirset
val no_dirs : dirset

(** Only [=]. *)
val eq_dir : dirset
val dirset_is_empty : dirset -> bool
val dirset_inter : dirset -> dirset -> dirset

(** One feasible-direction set per common loop, outer first. *)
type vector = (int * dirset) list

(** A dependence holds for the iteration pairs whose directions fit some
    vector of the union; a single vector is the usual per-loop summary. *)
type dependence = {
  vectors : vector list;  (** the union, never empty *)
  distance : (int * int) list option;  (** exact distances when known *)
  holds_after : int;  (** wrap-around order (§6) *)
  exact : bool;  (** false: conservative "maybe" *)
  note : string option;  (** e.g. the periodic translation applied *)
}

type outcome = Independent | Dependent of dependence

(** [maybe common] is the conservative all-directions dependence. *)
val maybe : ?note:string -> int list -> outcome

(** [restrict d] is [d] without the vectors in which some loop has no
    direction left (and without repeats); [Independent] when none is
    left. *)
val restrict : dependence -> outcome

(** [sharpen dists v] narrows each loop of [v] that has a known
    distance in [dists]. *)
val sharpen : (int * int) list -> vector -> vector

(** [affine_test ~bounds ~common src dst] tests two affine subscripts;
    [bounds l] is loop [l]'s iteration count when known. [sym_range]
    bounds a symbolic expression to an interval (see [Analysis.Range]);
    when only the constant difference of the dependence equation is
    symbolic, its interval is intersected with the Banerjee bounds —
    an empty gcd-compatible intersection proves independence. *)
val affine_test :
  bounds:(int -> int option) ->
  common:int list ->
  ?sym_range:(Sym.t -> (Extint.t * Extint.t) option) ->
  Affine.t ->
  Affine.t ->
  outcome

type simple_dir = [ `Lt | `Eq | `Gt ]

(** [direction_vectors ~bounds ~common src dst] enumerates the feasible
    full direction vectors by hierarchical refinement with pruning
    ([WB87]); [None] when undecidable or the nest is deeper than 6. *)
val direction_vectors :
  bounds:(int -> int option) ->
  common:int list ->
  Affine.t ->
  Affine.t ->
  simple_dir list list option

(** [equation_for_distances src dst] views the equation as a constraint
    sum a_L·d_L = c on iteration distances, when source and sink
    coefficients agree per loop. *)
val equation_for_distances : Affine.t -> Affine.t -> ((int * int) list * int) option

(** [solve_distance_system rows] eliminates exactly; [None] proves the
    system inconsistent (independence), otherwise the uniquely determined
    per-loop distances. *)
val solve_distance_system : ((int * int) list * int) list -> (int * int) list option

(** [test ~bounds ~common ?src_def ?dst_def src dst] dispatches on the
    classification pair; the defs identify same-def monotonic subscripts
    (the B(k3)-twice pattern of Fig 10). *)
val test :
  bounds:(int -> int option) ->
  common:int list ->
  ?src_def:Ir.Instr.Id.t ->
  ?dst_def:Ir.Instr.Id.t ->
  ?sym_range:(Sym.t -> (Extint.t * Extint.t) option) ->
  Ivclass.t ->
  Ivclass.t ->
  outcome

(** [add_outcome buf o] renders [o] into [buf]: a union's vectors joined
    by [" | "], each direction set as its glyph ([*], [<=], [<>], [<],
    [=], ...), e.g. [dependent (L0:=, L1:<=) | (L0:<, L1:<>)]. The one
    renderer of an outcome. *)
val add_outcome : Buffer.t -> outcome -> unit

(** {!add_outcome} on a formatter. *)
val pp_outcome : Format.formatter -> outcome -> unit
