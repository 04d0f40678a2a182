(* Intervals over extended integers — the value domain of the range
   analysis.

   An interval bounds the values a def takes over Z: a run that leaves
   the native range traps (see [Ir.Ops]), so the transfer functions are
   the mathematical ones, rounding an endpoint that leaves the range
   outward.

   Invariant: [lo <= hi], [lo <> Pos_inf], [hi <> Neg_inf]. Bottom is
   not represented — the analysis keeps unvisited defs out of its
   tables instead. *)

type t = { lo : Extint.t; hi : Extint.t }

let make lo hi =
  if not (Extint.le lo hi) || lo = Extint.Pos_inf || hi = Extint.Neg_inf then
    invalid_arg "Interval.make: malformed bounds";
  { lo; hi }

let top = { lo = Extint.Neg_inf; hi = Extint.Pos_inf }
let const n = { lo = Extint.Fin n; hi = Extint.Fin n }
let bool_range = { lo = Extint.Fin 0; hi = Extint.Fin 1 }

let lo t = t.lo
let hi t = t.hi
let is_top t = t.lo = Extint.Neg_inf && t.hi = Extint.Pos_inf

let singleton t =
  match (t.lo, t.hi) with
  | Extint.Fin a, Extint.Fin b when a = b -> Some a
  | _ -> None

let equal a b = Extint.equal a.lo b.lo && Extint.equal a.hi b.hi
let mem n t = Extint.le t.lo (Extint.Fin n) && Extint.le (Extint.Fin n) t.hi
let subset a b = Extint.le b.lo a.lo && Extint.le a.hi b.hi

let join a b = { lo = Extint.min a.lo b.lo; hi = Extint.max a.hi b.hi }

let meet a b =
  let lo = Extint.max a.lo b.lo and hi = Extint.min a.hi b.hi in
  if Extint.le lo hi then Some { lo; hi } else None

(* Standard interval widening: an unstable bound jumps to its
   infinity. *)
let widen ~old ~next =
  {
    lo = (if Extint.compare next.lo old.lo < 0 then Extint.Neg_inf else old.lo);
    hi = (if Extint.compare next.hi old.hi > 0 then Extint.Pos_inf else old.hi);
  }

(* --- transfer functions --- *)

(* Endpoints round outward. A lower bound that saturated to [Pos_inf]
   lies above the native range, so [max_int] still bounds it from below
   (and symmetrically for an upper bound at [Neg_inf]); the result stays
   well-formed. Such a def traps before it holds a value. *)
let bounds lo hi =
  {
    lo = (if lo = Extint.Pos_inf then Extint.Fin max_int else lo);
    hi = (if hi = Extint.Neg_inf then Extint.Fin min_int else hi);
  }

let add a b = bounds (Extint.add a.lo b.lo) (Extint.add a.hi b.hi)
let neg a = bounds (Extint.neg a.hi) (Extint.neg a.lo)
let sub a b = add a (neg b)

(* The product's extremes lie among the four endpoint products. *)
let mul a b =
  let p1 = Extint.mul a.lo b.lo and p2 = Extint.mul a.lo b.hi in
  let p3 = Extint.mul a.hi b.lo and p4 = Extint.mul a.hi b.hi in
  bounds
    (Extint.min (Extint.min p1 p2) (Extint.min p3 p4))
    (Extint.max (Extint.max p1 p2) (Extint.max p3 p4))

(* Division by a singleton non-zero divisor. Truncating division is
   monotone non-decreasing in the dividend for positive divisors and
   non-increasing for negative ones. *)
let div a b =
  match singleton b with
  | Some c when c > 0 -> bounds (Extint.div_scalar a.lo c) (Extint.div_scalar a.hi c)
  | Some c when c < 0 -> bounds (Extint.div_scalar a.hi c) (Extint.div_scalar a.lo c)
  | Some _ | None -> top

let to_string t = Printf.sprintf "[%s, %s]" (Extint.to_string t.lo) (Extint.to_string t.hi)
