(* Integers extended with infinities: the bound arithmetic of the range
   domain and of the Banerjee tests.

   Programs compute over Z (a run that leaves the native range traps,
   see [Ir.Ops]), so the arithmetic is the mathematical one: finite
   overflow rounds away from zero to the matching infinity, and a
   saturated bound still contains the exact value. *)

type t = Neg_inf | Fin of int | Pos_inf

let zero = Fin 0
let of_int n = Fin n

(* Opposite infinities are a program error (a well-formed bound
   computation never mixes them). *)
let add a b =
  match (a, b) with
  | Fin x, Fin y -> (
    match Ir.Ops.add x y with
    | s -> Fin s
    | exception Ir.Ops.Trap _ -> if x >= 0 then Pos_inf else Neg_inf)
  | Pos_inf, Neg_inf | Neg_inf, Pos_inf ->
    invalid_arg "Extint.add: opposite infinities"
  | Pos_inf, _ | _, Pos_inf -> Pos_inf
  | Neg_inf, _ | _, Neg_inf -> Neg_inf

(* [neg (Fin min_int)] has no finite counterpart and saturates to
   [Pos_inf]. *)
let neg = function
  | Fin n -> if n = min_int then Pos_inf else Fin (-n)
  | Pos_inf -> Neg_inf
  | Neg_inf -> Pos_inf

let sign = function
  | Fin n -> Stdlib.compare n 0
  | Pos_inf -> 1
  | Neg_inf -> -1

(* Conventions: finite overflow saturates to the infinity matching the
   sign of the true product, and [0 * ±inf] is [0] — the
   interval-arithmetic convention, where the zero factor is exact and
   annihilates however large the other side is. *)
let mul a b =
  match (a, b) with
  | Fin 0, _ | _, Fin 0 -> Fin 0
  | Fin x, Fin y -> (
    match Ir.Ops.mul x y with
    | p -> Fin p
    | exception Ir.Ops.Trap _ -> if (x > 0) = (y > 0) then Pos_inf else Neg_inf)
  | _ -> if sign a * sign b > 0 then Pos_inf else Neg_inf

(* [div_scalar x c] divides by a finite non-zero integer (truncating,
   like the interpreter); [min_int / -1] saturates. *)
let div_scalar x c =
  if c = 0 then invalid_arg "Extint.div_scalar: zero divisor";
  match x with
  | Fin n -> if n = min_int && c = -1 then Pos_inf else Fin (n / c)
  | Pos_inf -> if c > 0 then Pos_inf else Neg_inf
  | Neg_inf -> if c > 0 then Neg_inf else Pos_inf

let compare a b =
  match (a, b) with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin x, Fin y -> Stdlib.compare x y

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let le a b = compare a b <= 0

let to_string = function
  | Neg_inf -> "-inf"
  | Pos_inf -> "+inf"
  | Fin n -> string_of_int n
