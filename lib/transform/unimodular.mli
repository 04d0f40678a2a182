(** Unimodular loop transformations over distance vectors (paper §6.1:
    "loop skewing and loop interchanging as a single transformation ...
    currently in vogue as unimodular transformations"). A transformation
    T with |det T| = 1 is legal iff it keeps every carried distance
    vector lexicographically positive. *)

type matrix = int array array  (** row-major, square *)

val identity : int -> matrix
val interchange_2d : matrix

(** [skew_2d f] skews the inner loop by [f]·outer. *)
val skew_2d : int -> matrix

val multiply : matrix -> matrix -> matrix
val apply_vec : matrix -> int array -> int array
val determinant_2d : matrix -> int
val is_unimodular_2d : matrix -> bool
val lex_positive : int array -> bool
val lex_nonnegative : int array -> bool

(** [legal t dvs]: every carried vector stays lexicographically positive. *)
val legal : matrix -> int array list -> bool

(** [make_interchangeable dvs] searches skew factors f for a legal
    interchange∘skew(f) — the paper's triangular example needs f >= 1. *)
val make_interchangeable : ?max_skew:int -> int array list -> matrix option

val pp_matrix : Format.formatter -> matrix -> unit
