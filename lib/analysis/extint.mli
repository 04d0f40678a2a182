(** Integers extended with infinities: the bound arithmetic of the range
    domain and of the Banerjee tests. The operations are mathematical
    (programs compute over Z, see {!Ir.Ops}): finite overflow saturates
    to the correctly signed infinity, so a result still bounds the exact
    value. *)

type t = Neg_inf | Fin of int | Pos_inf

val zero : t
val of_int : int -> t

(** Saturating addition. @raise Invalid_argument on opposite
    infinities. *)
val add : t -> t -> t

(** Saturating negation: [neg (Fin min_int) = Pos_inf]. *)
val neg : t -> t

(** Saturating multiplication; [0 * ±inf = 0] (interval convention). *)
val mul : t -> t -> t

(** [div_scalar x c] truncating division by a finite non-zero integer;
    [min_int / -1] saturates to [Pos_inf].
    @raise Invalid_argument when [c = 0]. *)
val div_scalar : t -> int -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val le : t -> t -> bool
val to_string : t -> string
