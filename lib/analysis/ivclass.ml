(* The classification lattice: every integer scalar in a loop is
   classified as one of the paper's variable kinds.

   Iteration numbering convention: [h] counts executions of the loop
   header within one activation of the loop, starting at 0 (the paper's
   "basic loop counter h ... that starts at zero"). A classification
   predicts the value an instruction computes during iteration [h]. *)

open Bignum

type dir = Increasing | Decreasing

type t =
  | Unknown
  | Invariant of Sym.t (* same value on every iteration *)
  | Linear of linear
  | Poly of poly
  | Geometric of geometric
  | Wrap of wrap
  | Periodic of periodic
  | Monotonic of monotonic

and linear = {
  loop : int;
  base : t; (* value at h = 0: [Invariant s], or an outer-loop
               classification for multiloop IVs (paper's nested tuples) *)
  step : Sym.t; (* loop-invariant increment per iteration *)
}

and poly = {
  loop : int;
  coeffs : Sym.t array; (* value(h) = sum coeffs.(k) * h^k; degree >= 2 *)
}

and geometric = {
  loop : int;
  gcoeffs : Sym.t array; (* polynomial part *)
  ratio : Rat.t; (* exponential base, not in {0, 1} *)
  gcoeff : Sym.t; (* value(h) = sum gcoeffs.(k) h^k + gcoeff * ratio^h *)
}

and wrap = {
  loop : int;
  order : int; (* iterations before the underlying class applies *)
  inner : t; (* value(h) = inner(h - order) for h >= order *)
  initials : Sym.t list; (* values during iterations 0 .. order-1 *)
}

and periodic = {
  loop : int;
  period : int;
  values : Sym.t array; (* the rotating tuple, anchored at phase 0 *)
  phase : int; (* value(h) = values.((h + phase) mod period) *)
}

and monotonic = {
  loop : int;
  dir : dir;
  strict : bool;
  family : int; (* instruction id of the region's loop-header phi *)
}

(* The family of a sum of growing sequences from different sources. *)
let no_family = -1

(* Structural equality (with symbolic equality of coefficients). *)
let rec equal a b =
  match (a, b) with
  | Unknown, Unknown -> true
  | Invariant x, Invariant y -> Sym.equal x y
  | Linear x, Linear y ->
    x.loop = y.loop && equal x.base y.base && Sym.equal x.step y.step
  | Poly x, Poly y ->
    x.loop = y.loop
    && Array.length x.coeffs = Array.length y.coeffs
    && Array.for_all2 Sym.equal x.coeffs y.coeffs
  | Geometric x, Geometric y ->
    x.loop = y.loop
    && Array.length x.gcoeffs = Array.length y.gcoeffs
    && Array.for_all2 Sym.equal x.gcoeffs y.gcoeffs
    && Rat.equal x.ratio y.ratio && Sym.equal x.gcoeff y.gcoeff
  | Wrap x, Wrap y ->
    x.loop = y.loop && x.order = y.order && equal x.inner y.inner
    && List.length x.initials = List.length y.initials
    && List.for_all2 Sym.equal x.initials y.initials
  | Periodic x, Periodic y ->
    x.loop = y.loop && x.period = y.period && x.phase = y.phase
    && Array.length x.values = Array.length y.values
    && Array.for_all2 Sym.equal x.values y.values
  | Monotonic x, Monotonic y ->
    x.loop = y.loop && x.dir = y.dir && x.strict = y.strict && x.family = y.family
  | ( ( Unknown | Invariant _ | Linear _ | Poly _ | Geometric _ | Wrap _
      | Periodic _ | Monotonic _ ),
      _ ) ->
    false

(* [rename ~loop ~sym ~def c] maps every loop id through [loop], every
   symbolic value through [sym] and a monotonic family's phi id through
   [def]. The shape is kept as is: a renaming changes no coefficient, so
   no smart constructor has anything to normalise. *)
let rec rename ~loop ~sym ~def c =
  match c with
  | Unknown -> Unknown
  | Invariant s -> Invariant (sym s)
  | Linear l ->
    Linear { loop = loop l.loop; base = rename ~loop ~sym ~def l.base; step = sym l.step }
  | Poly p -> Poly { loop = loop p.loop; coeffs = Array.map sym p.coeffs }
  | Geometric g ->
    Geometric
      { g with loop = loop g.loop; gcoeffs = Array.map sym g.gcoeffs; gcoeff = sym g.gcoeff }
  | Wrap w ->
    Wrap
      {
        w with
        loop = loop w.loop;
        inner = rename ~loop ~sym ~def w.inner;
        initials = List.map sym w.initials;
      }
  | Periodic p -> Periodic { p with loop = loop p.loop; values = Array.map sym p.values }
  | Monotonic m ->
    Monotonic
      {
        m with
        loop = loop m.loop;
        family = (if m.family = no_family then no_family else def m.family);
      }

(* [linear loop base step] smart-constructs a linear IV; a zero step over
   an invariant base collapses to that invariant. *)
let linear loop base step =
  match base with
  | Invariant s when Sym.is_zero step -> Invariant s
  | _ -> Linear { loop; base; step }

(* [poly loop coeffs] normalizes: drops trailing zero coefficients and
   collapses to Linear / Invariant when the degree allows. *)
let poly loop coeffs =
  let n = Array.length coeffs in
  let rec top i = if i > 0 && Sym.is_zero coeffs.(i - 1) then top (i - 1) else i in
  let n' = top n in
  if n' = 0 then Invariant Sym.zero
  else if n' = 1 then Invariant coeffs.(0)
  else if n' = 2 then Linear { loop; base = Invariant coeffs.(0); step = coeffs.(1) }
  else Poly { loop; coeffs = Array.sub coeffs 0 n' }

(* [geometric loop gcoeffs ratio gcoeff] normalizes degenerate ratios
   and strips trailing zero polynomial coefficients (e.g. the quadratic
   term of the paper's m = 3m + 2i + 1 that solves to zero). *)
let geometric loop gcoeffs ratio gcoeff =
  let gcoeffs =
    let n = Array.length gcoeffs in
    let rec top i = if i > 0 && Sym.is_zero gcoeffs.(i - 1) then top (i - 1) else i in
    let n' = if n = 0 then 0 else Stdlib.max 1 (top n) in
    if n' = n then gcoeffs else Array.sub gcoeffs 0 n'
  in
  if Sym.is_zero gcoeff then poly loop gcoeffs
  else if Rat.equal ratio Rat.one then begin
    (* c * 1^h is invariant: fold into the constant coefficient. *)
    let coeffs = Array.copy gcoeffs in
    let coeffs = if Array.length coeffs = 0 then [| Sym.zero |] else coeffs in
    coeffs.(0) <- Sym.add coeffs.(0) gcoeff;
    poly loop coeffs
  end
  else Geometric { loop; gcoeffs; ratio; gcoeff }

(* Wrap-around orders beyond this are almost certainly accidental (long
   copy chains); giving them up keeps classification linear on such
   programs while losing nothing the paper's examples need (order 2 is
   the deepest it shows). *)
let max_wrap_order = 16

(* [wrap loop inner initial] wraps a classification one more iteration
   around the loop, flattening nested wraps (the paper's cascaded
   wrap-around variables: each extra loop-header phi adds one order). *)
let wrap loop inner initial =
  match inner with
  | Wrap w when w.loop = loop ->
    if w.order + 1 > max_wrap_order then Unknown
    else Wrap { w with order = w.order + 1; initials = initial :: w.initials }
  | Unknown -> Unknown
  | _ -> Wrap { loop; order = 1; inner; initials = [ initial ] }

(* [loop_of t] is the loop a non-invariant classification varies in. *)
let loop_of = function
  | Unknown | Invariant _ -> None
  | Linear { loop; _ } | Poly { loop; _ } | Geometric { loop; _ }
  | Wrap { loop; _ } | Periodic { loop; _ } | Monotonic { loop; _ } ->
    Some loop

(* [is_induction t] holds for classes with an exact closed form. *)
let rec is_induction = function
  | Invariant _ | Linear _ | Poly _ | Geometric _ -> true
  | Wrap { inner; _ } -> is_induction inner
  | Unknown | Periodic _ | Monotonic _ -> false

(* [degree t] of the polynomial part (0 for invariant, 1 for linear). *)
let degree = function
  | Invariant _ -> Some 0
  | Linear _ -> Some 1
  | Poly { coeffs; _ } -> Some (Array.length coeffs - 1)
  | Geometric { gcoeffs; _ } -> Some (Stdlib.max 0 (Array.length gcoeffs - 1))
  | Unknown | Wrap _ | Periodic _ | Monotonic _ -> None

(* [coeff_array t] views an exact polynomial class as its coefficient
   vector (constant first); [None] for other classes or multiloop bases. *)
let coeff_array = function
  | Invariant s -> Some [| s |]
  | Linear { base = Invariant b; step; _ } -> Some [| b; step |]
  | Linear _ -> None
  | Poly { coeffs; _ } -> Some (Array.copy coeffs)
  | Unknown | Geometric _ | Wrap _ | Periodic _ | Monotonic _ -> None

(* [eval_poly lookup coeffs h] evaluates sum coeffs.(k) * h^k. *)
let eval_poly lookup coeffs h =
  let acc = ref (Some Rat.zero) in
  Array.iteri
    (fun k c ->
      match (!acc, Sym.eval lookup c) with
      | Some a, Some c ->
        acc := Some (Rat.add a (Rat.mul c (Rat.pow (Rat.of_int h) k)))
      | _ -> acc := None)
    coeffs;
  !acc

(* [eval_at_nest lookup iter_of t h] is the exact predicted value at
   iteration [h] of [t]'s own loop; a multiloop (nested-base) linear IV
   evaluates its base at [iter_of outer_loop]. The classification oracle
   supplies the interpreter's live per-loop iteration counters. *)
let rec eval_at_nest (lookup : Sym.atom -> Rat.t option) (iter_of : int -> int option)
    (t : t) (h : int) : Rat.t option =
  match t with
  | Invariant s -> Sym.eval lookup s
  | Linear { base; step; _ } -> (
    let base_value =
      match base with
      | Invariant s -> Sym.eval lookup s
      | _ -> (
        match loop_of base with
        | Some outer -> (
          match iter_of outer with
          | Some hb -> eval_at_nest lookup iter_of base hb
          | None -> None)
        | None -> None)
    in
    match (base_value, Sym.eval lookup step) with
    | Some b, Some s -> Some (Rat.add b (Rat.mul s (Rat.of_int h)))
    | _ -> None)
  | Poly { coeffs; _ } -> eval_poly lookup coeffs h
  | Geometric { gcoeffs; ratio; gcoeff; _ } -> (
    match (eval_poly lookup gcoeffs h, Sym.eval lookup gcoeff) with
    | Some p, Some g -> Some (Rat.add p (Rat.mul g (Rat.pow ratio h)))
    | _ -> None)
  | Wrap { order; inner; initials; _ } ->
    if h < order then
      match List.nth_opt initials h with
      | Some s -> Sym.eval lookup s
      | None -> None
    else eval_at_nest lookup iter_of inner (h - order)
  | Periodic { period; values; phase; _ } ->
    Sym.eval lookup values.((h + phase) mod period)
  | Unknown | Monotonic _ -> None

(* [eval_at lookup t h]: as above, without outer-loop context (multiloop
   bases evaluate only when invariant). *)
let eval_at lookup t h = eval_at_nest lookup (fun _ -> None) t h

(* --- Printing (paper-style tuples) --- *)

type namer = { loop_name : int -> string; atom_name : Sym.atom -> string }

let default_namer =
  {
    loop_name = (fun i -> "loop" ^ string_of_int i);
    atom_name =
      (fun a ->
        match a with
        | Sym.Param x -> Ir.Ident.name x
        | Sym.Def id -> Ir.Instr.Id.to_string id);
  }

let rec pp_with namer fmt = function
  | Unknown -> Format.pp_print_string fmt "unknown"
  | Invariant s -> Format.fprintf fmt "inv(%a)" (pp_sym_n namer) s
  | Linear { loop; base; step } ->
    Format.fprintf fmt "(%s, %a, %a)" (namer.loop_name loop) (pp_base namer) base
      (pp_sym_n namer) step
  | Poly { loop; coeffs } ->
    Format.fprintf fmt "(%s, %a)" (namer.loop_name loop)
      (Format.pp_print_seq
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (pp_sym_n namer))
      (Array.to_seq coeffs)
  | Geometric { loop; gcoeffs; ratio; gcoeff } ->
    (* Parenthesize multi-term coefficients and negative ratios so the
       closed form reads unambiguously. *)
    let coeff_str = Format.asprintf "%a" (pp_sym_n namer) gcoeff in
    let coeff_str =
      match gcoeff with
      | [ _ ] when not (String.contains coeff_str '-') -> coeff_str
      | [ _ ] when String.length coeff_str > 0 && coeff_str.[0] = '-'
                   && not (String.contains_from coeff_str 1 '-')
                   && not (String.contains coeff_str '+') ->
        coeff_str
      | [] -> coeff_str
      | _ -> "(" ^ coeff_str ^ ")"
    in
    let ratio_str =
      if Rat.sign ratio < 0 then Format.asprintf "(%a)" Rat.pp ratio
      else Format.asprintf "%a" Rat.pp ratio
    in
    Format.fprintf fmt "(%s, %a | %s*%s^h)" (namer.loop_name loop)
      (Format.pp_print_seq
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (pp_sym_n namer))
      (Array.to_seq gcoeffs) coeff_str ratio_str
  | Wrap { loop; order; inner; initials } ->
    Format.fprintf fmt "wrap(%s, order %d, [%a], %a)" (namer.loop_name loop) order
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         (pp_sym_n namer))
      initials (pp_with namer) inner
  | Periodic { loop; period; values; phase } ->
    Format.fprintf fmt "periodic(%s, period %d, phase %d, [%a])"
      (namer.loop_name loop) period phase
      (Format.pp_print_seq
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
         (pp_sym_n namer))
      (Array.to_seq values)
  | Monotonic { loop; dir; strict } ->
    Format.fprintf fmt "monotonic(%s, %s%s)" (namer.loop_name loop)
      (match dir with Increasing -> "increasing" | Decreasing -> "decreasing")
      (if strict then ", strict" else "")

and pp_base namer fmt = function
  | Invariant s -> pp_sym_n namer fmt s
  | other -> pp_with namer fmt other

and pp_sym_n namer fmt s =
  Sym.pp_with (fun id -> namer.atom_name (Sym.Def id)) fmt s

let pp fmt t = pp_with default_namer fmt t

let to_string t = Format.asprintf "%a" pp t

let to_string_with namer t = Format.asprintf "%a" (pp_with namer) t
