(** The classification lattice: every integer scalar in a loop is one of
    the paper's variable kinds (§2-§4).

    Iteration numbering: [h] counts executions of the loop header within
    one activation, from 0 (the paper's basic loop counter). A
    classification predicts the value an instruction computes during
    iteration [h]. *)

open Bignum

type dir = Increasing | Decreasing

type t =
  | Unknown
  | Invariant of Sym.t  (** same value on every iteration *)
  | Linear of linear
  | Poly of poly
  | Geometric of geometric
  | Wrap of wrap
  | Periodic of periodic
  | Monotonic of monotonic

and linear = {
  loop : int;
  base : t;
      (** value at h = 0: [Invariant s], or an outer-loop classification
          for multiloop IVs — the paper's nested tuples (§2, §5.3) *)
  step : Sym.t;  (** loop-invariant increment per iteration *)
}

and poly = {
  loop : int;
  coeffs : Sym.t array;  (** value(h) = sum coeffs.(k)·h^k; degree >= 2 *)
}

and geometric = {
  loop : int;
  gcoeffs : Sym.t array;  (** polynomial part *)
  ratio : Rat.t;  (** exponential base, not 0 or 1 *)
  gcoeff : Sym.t;  (** value(h) = sum gcoeffs.(k)·h^k + gcoeff·ratio^h *)
}

and wrap = {
  loop : int;
  order : int;  (** iterations before the underlying class applies *)
  inner : t;  (** value(h) = inner(h - order) for h >= order *)
  initials : Sym.t list;  (** values during iterations 0..order-1 *)
}

and periodic = {
  loop : int;
  period : int;
  values : Sym.t array;  (** the rotating tuple, anchored at phase 0 *)
  phase : int;  (** value(h) = values.((h + phase) mod period) *)
}

and monotonic = {
  loop : int;
  dir : dir;
  strict : bool;
  family : int;
      (** instruction id of the region's loop-header phi, or [no_family]
          for a sum of growing sequences from different sources *)
}

val no_family : int

(** Structural equality (symbolic equality of coefficients). *)
val equal : t -> t -> bool

(** [rename ~loop ~sym ~def c] relabels [c] for another numbering of
    the same program: loop ids through [loop], symbolic values through
    [sym] (which re-normalises, e.g. {!Sym.rename}) and a monotonic
    family's phi id through [def]. *)
val rename :
  loop:(int -> int) -> sym:(Sym.t -> Sym.t) -> def:(Ir.Instr.Id.t -> Ir.Instr.Id.t) -> t -> t

(** Smart constructors (normalizing): {!linear} collapses zero steps,
    {!poly} strips trailing zero coefficients and demotes low degrees,
    {!geometric} folds ratio 1 and strips trailing zeros, {!wrap}
    flattens cascades and gives up past {!max_wrap_order}. *)

val linear : int -> t -> Sym.t -> t

val poly : int -> Sym.t array -> t
val geometric : int -> Sym.t array -> Rat.t -> Sym.t -> t
val max_wrap_order : int
val wrap : int -> t -> Sym.t -> t

(** [loop_of t] is the loop a non-invariant classification varies in. *)
val loop_of : t -> int option

(** [is_induction t] holds for classes with an exact closed form. *)
val is_induction : t -> bool

(** [degree t] of the polynomial part (0 invariant, 1 linear, ...). *)
val degree : t -> int option

(** [coeff_array t] views an exact polynomial class as its coefficient
    vector (constant first); [None] for multiloop bases and non-poly
    classes. *)
val coeff_array : t -> Sym.t array option

(** [eval_at_nest lookup iter_of t h] is the predicted value at iteration
    [h] of [t]'s own loop; multiloop bases evaluate at [iter_of outer].
    Used by the classification oracle with the interpreter's live loop
    counters. *)
val eval_at_nest :
  (Sym.atom -> Rat.t option) -> (int -> int option) -> t -> int -> Rat.t option

(** [eval_at lookup t h]: without outer-loop context. *)
val eval_at : (Sym.atom -> Rat.t option) -> t -> int -> Rat.t option

(** {1 Printing (the paper's tuple notation)} *)

type namer = { loop_name : int -> string; atom_name : Sym.atom -> string }

val default_namer : namer
val pp_with : namer -> Format.formatter -> t -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_string_with : namer -> t -> string
