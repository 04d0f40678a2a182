(** Dense matrices of exact rationals with Gauss–Jordan elimination.

    The paper's §4.3 recovers the closed-form coefficients of polynomial
    and geometric induction variables by "simple matrix inversion with
    rational arithmetic"; this module implements that kernel, plus the
    Vandermonde helpers the recovery uses directly. *)

type t

(** [create rows cols] is the all-zero matrix. *)
val create : int -> int -> t

(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)
val init : int -> int -> (int -> int -> Rat.t) -> t

(** [of_rows rows] builds a matrix from row lists.
    @raise Invalid_argument on ragged or empty input. *)
val of_rows : Rat.t list list -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Rat.t
val set : t -> int -> int -> Rat.t -> unit
val copy : t -> t
val equal : t -> t -> bool

val identity : int -> t
val transpose : t -> t
val add : t -> t -> t
val mul : t -> t -> t
val scale : Rat.t -> t -> t

(** [mul_vec m v] is the matrix–vector product.
    @raise Invalid_argument on dimension mismatch. *)
val mul_vec : t -> Rat.t array -> Rat.t array

(** [eliminate m ~cols] reduces [m] in place to reduced row echelon
    form by Gauss–Jordan elimination, taking pivots in the first [cols]
    columns only (the rest ride along, e.g. an augmented right side).
    Any shape and rank; returns the pivot columns in order, pivot [k] in
    row [k]. *)
val eliminate : t -> cols:int -> int list

(** [inverse m] is [Some m'] with [m * m' = I], or [None] if singular.
    @raise Invalid_argument if [m] is not square. *)
val inverse : t -> t option

(** [solve m b] solves [m x = b] exactly; [None] if [m] is singular.
    @raise Invalid_argument on dimension mismatch or non-square [m]. *)
val solve : t -> Rat.t array -> Rat.t array option

(** [determinant m] by fraction-free-ish Gaussian elimination.
    @raise Invalid_argument if [m] is not square. *)
val determinant : t -> Rat.t

(** [vandermonde n] is the [(n+1) x (n+1)] matrix with entry [(h, k)] equal
    to [h^k] for [h, k] in [0..n] — the system relating the first [n+1]
    values of a degree-[n] polynomial induction variable to its
    coefficients (paper §4.3, matrix [A]). *)
val vandermonde : int -> t

(** [geometric_vandermonde n g] is the [(n+2) x (n+2)] matrix whose row [h]
    is [[h^0; ...; h^n; g^h]]: polynomial part of degree [n] plus one
    exponential column with base [g] (paper §4.3, the matrix inverted for
    [m = 3*m + 2*i + 1]). *)
val geometric_vandermonde : int -> Rat.t -> t

val pp : Format.formatter -> t -> unit
