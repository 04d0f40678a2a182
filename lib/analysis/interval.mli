(** Intervals over extended integers — the value domain of the range
    analysis. Bounds are on values over Z (a run that leaves the native
    range traps, see {!Ir.Ops}); the transfer functions are the
    mathematical ones, and an endpoint that leaves the range rounds
    outward. *)

type t

(** @raise Invalid_argument when [lo > hi] or a bound uses the wrong
    infinity. *)
val make : Extint.t -> Extint.t -> t

val top : t
val const : int -> t

(** The [0, 1] interval (relational and random operators). *)
val bool_range : t

val lo : t -> Extint.t
val hi : t -> Extint.t
val is_top : t -> bool
val equal : t -> t -> bool
val mem : int -> t -> bool

(** [subset a b]: every value of [a] lies in [b]. *)
val subset : t -> t -> bool

val join : t -> t -> t

(** [None] when the intersection is empty. *)
val meet : t -> t -> t option

(** Standard widening: an unstable bound jumps to its infinity. *)
val widen : old:t -> next:t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** Division by a singleton non-zero divisor; [top] otherwise. *)
val div : t -> t -> t

val to_string : t -> string
