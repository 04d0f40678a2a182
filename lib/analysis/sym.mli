(** Symbolic values: canonical multivariate polynomials with rational
    coefficients over "region constants" — program inputs and
    loop-invariant instruction results.

    The classifier manipulates initial values and steps symbolically (the
    paper represents an initial value "symbolically if it cannot be
    determined"); canonical forms make symbolic equality a structural
    comparison, which the Fig-3 same-offset rule and the wrap-around
    promotion check rely on. *)

open Bignum

type atom =
  | Param of Ir.Ident.t  (** program input, e.g. "n" *)
  | Def of Ir.Instr.Id.t  (** loop-invariant instruction result *)

(** Parameters order by name (printing is then independent of interning
    order); defs by instruction id. *)
val atom_compare : atom -> atom -> int

val atom_equal : atom -> atom -> bool

(** A monomial: atoms with positive powers, sorted. *)
type mono = (atom * int) list

val mono_compare : mono -> mono -> int

(** Sorted terms with non-zero coefficients; the empty list is zero and
    the empty monomial is the constant term. The representation is exposed
    (the classifier's effect analysis walks terms directly). *)
type t = (mono * Rat.t) list

val zero : t
val one : t
val of_rat : Rat.t -> t
val of_int : int -> t
val atom : atom -> t
val param : Ir.Ident.t -> t
val def : Ir.Instr.Id.t -> t

val is_zero : t -> bool

(** [const t] is [Some c] when [t] is the constant [c]. *)
val const : t -> Rat.t option

val is_const : t -> bool

(** [const_int t] is the value as a native integer, when it is one. *)
val const_int : t -> int option

val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val scale : Rat.t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Invalid_argument on negative exponents. *)
val pow : t -> int -> t

(** [atoms t] lists the distinct atoms of [t]. *)
val atoms : t -> atom list

(** [eval lookup t] evaluates with atom values from [lookup]; [None] if
    any atom is unknown. *)
val eval : (atom -> Rat.t option) -> t -> Rat.t option

(** [subst lookup t] replaces atoms by symbolic values where provided. *)
val subst : (atom -> t option) -> t -> t

(** [rename f t] replaces each atom [a] by [f a] and re-normalises, so
    [f] need not preserve the atom order. [f] must be injective. *)
val rename : (atom -> atom) -> t -> t

(** [degree_in a t] is the highest power of [a] in [t]. *)
val degree_in : atom -> t -> int

val pp_atom : Format.formatter -> atom -> unit

(** [pp_with names] renders [Def] atoms through [names] (so "%14" can
    print as "k2"). *)
val pp_with : (Ir.Instr.Id.t -> string) -> Format.formatter -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
