(* The algebra of variable classifications (paper §5.1): how each
   arithmetic operator combines the classes of its operands. Non-basic
   induction variables — expressions over family members — are classified
   by folding this algebra over the SSA graph.

   The operations are conservative: any combination outside the table
   yields [Unknown], never a wrong closed form. *)

open Bignum
open Ivclass

(* --- coefficient-vector helpers --- *)

let pad coeffs n =
  if Array.length coeffs >= n then coeffs
  else Array.append coeffs (Array.make (n - Array.length coeffs) Sym.zero)

let add_vec a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  let a = pad a n and b = pad b n in
  Array.init n (fun i -> Sym.add a.(i) b.(i))

let mul_vec a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb - 1) Sym.zero in
    for i = 0 to la - 1 do
      for j = 0 to lb - 1 do
        r.(i + j) <- Sym.add r.(i + j) (Sym.mul a.(i) b.(j))
      done
    done;
    r
  end

let scale_vec c v = Array.map (fun s -> Sym.scale c s) v

(* Shift a coefficient vector: coefficients of p(h + k). *)
let shift_vec coeffs k =
  let n = Array.length coeffs in
  let r = Array.make n Sym.zero in
  (* binomial.(i).(j) = C(i, j) *)
  let binom = Array.make_matrix n n Rat.zero in
  for i = 0 to n - 1 do
    binom.(i).(0) <- Rat.one;
    for j = 1 to i do
      binom.(i).(j) <-
        Rat.add binom.(i - 1).(j - 1) (if j <= i - 1 then binom.(i - 1).(j) else Rat.zero)
    done
  done;
  let kr = Rat.of_int k in
  for i = 0 to n - 1 do
    (* coeffs.(i) * (h + k)^i contributes C(i, j) k^(i-j) to h^j. *)
    for j = 0 to i do
      let c = Rat.mul binom.(i).(j) (Rat.pow kr (i - j)) in
      r.(j) <- Sym.add r.(j) (Sym.scale c coeffs.(i))
    done
  done;
  r

(* --- views --- *)

(* [poly_view t] sees exact polynomial classes (invariant, linear with
   invariant base, polynomial) as (loop option, coefficient vector). *)
let poly_view = function
  | Invariant s -> Some (None, [| s |])
  | Linear { loop; base = Invariant b; step } -> Some (Some loop, [| b; step |])
  | Poly { loop; coeffs } -> Some (Some loop, Array.copy coeffs)
  | Linear _ | Unknown | Geometric _ | Wrap _ | Periodic _ | Monotonic _ -> None

(* [geo_view t] sees exact classes with at most one exponential term as
   (loop option, poly coeffs, (ratio, gcoeff) option). *)
let geo_view t =
  match t with
  | Geometric { loop; gcoeffs; ratio; gcoeff } ->
    Some (Some loop, Array.copy gcoeffs, Some (ratio, gcoeff))
  | _ -> (
    match poly_view t with
    | Some (loop, coeffs) -> Some (loop, coeffs, None)
    | None -> None)

let join_loop a b =
  match (a, b) with
  | None, l | l, None -> Ok l
  | Some x, Some y -> if x = y then Ok (Some x) else Error ()

let of_geo_view loop coeffs geo =
  match (loop, geo) with
  | None, None -> Ivclass.poly (-1) coeffs (* loop unused at degree 0 *)
  | Some loop, None -> Ivclass.poly loop coeffs
  | Some loop, Some (ratio, gcoeff) -> Ivclass.geometric loop coeffs ratio gcoeff
  | None, Some _ -> Unknown

(* --- sign/growth helpers for the monotonic rules --- *)

(* [growth t] is [Some (dir option, strict)] describing how [t] evolves
   with the iteration number, when that is knowable from constant
   coefficients: [dir = None] means constant. *)
let growth t =
  match t with
  | Invariant _ -> Some (None, false)
  | Linear { step; _ } -> (
    match Sym.const step with
    | Some c ->
      if Rat.is_zero c then Some (None, false)
      else if Rat.sign c > 0 then Some (Some Increasing, true)
      else Some (Some Decreasing, true)
    | None -> None)
  | Poly { coeffs; _ } -> (
    (* Nondecreasing on h >= 0 when all non-constant coefficients are
       nonnegative constants; strictly when one is positive. *)
    let consts =
      Array.to_list coeffs |> List.tl |> List.map Sym.const
    in
    if List.exists Option.is_none consts then None
    else begin
      let consts = List.filter_map Fun.id consts in
      if List.for_all (fun c -> Rat.sign c >= 0) consts then
        Some
          ( (if List.exists (fun c -> Rat.sign c > 0) consts then Some Increasing
             else None),
            List.exists (fun c -> Rat.sign c > 0) consts )
      else if List.for_all (fun c -> Rat.sign c <= 0) consts then
        Some
          ( (if List.exists (fun c -> Rat.sign c < 0) consts then Some Decreasing
             else None),
            List.exists (fun c -> Rat.sign c < 0) consts )
      else None
    end)
  | Monotonic { dir; strict; _ } -> Some (Some dir, strict)
  | Unknown | Geometric _ | Wrap _ | Periodic _ -> None

(* --- the operator table --- *)

let max_geometric_h = 1024

let rec add a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Invariant x, Invariant y -> Invariant (Sym.add x y)
  (* Multiloop linear IVs (nested base): constants fold into the base. *)
  | Linear ({ base; _ } as l), Invariant s | Invariant s, Linear ({ base; _ } as l)
    when (match base with Invariant _ -> false | _ -> true) -> (
    match add base (Invariant s) with
    | Unknown -> Unknown
    | base -> Linear { l with base })
  (* Wrap absorbs: w + c applies c shifted past the wrap order. *)
  | Wrap w, other when wrap_absorbs other w.loop -> wrap_add w other
  | other, Wrap w when wrap_absorbs other w.loop -> wrap_add w other
  | Periodic p, Invariant s | Invariant s, Periodic p ->
    Periodic { p with values = Array.map (fun v -> Sym.add v s) p.values }
  | Periodic p, Periodic q when p.loop = q.loop -> periodic_add p q
  | Monotonic m, other | other, Monotonic m -> mono_add m other
  | _ -> (
    (* Exact classes with at most one exponential term. *)
    match (geo_view a, geo_view b) with
    | Some (la, ca, ga), Some (lb, cb, gb) -> (
      match join_loop la lb with
      | Error () -> Unknown
      | Ok loop -> (
        let coeffs = add_vec ca cb in
        match (ga, gb) with
        | None, None -> of_geo_view loop coeffs None
        | Some g, None | None, Some g -> of_geo_view loop coeffs (Some g)
        | Some (r1, c1), Some (r2, c2) ->
          if Rat.equal r1 r2 then
            of_geo_view loop coeffs (Some (r1, Sym.add c1 c2))
          else Unknown))
    | _ -> Unknown)

and wrap_absorbs other loop =
  match other with
  | Invariant _ -> true
  | _ -> (
    match (Ivclass.loop_of other, other) with
    | Some l, (Linear _ | Poly _ | Geometric _) -> l = loop
    | _ -> false)

and wrap_add w other =
  (* (wrap of inner) + c: for h >= order the sum is inner(h-order) +
     c(h) = (inner + c shifted by order)(h-order); the first [order]
     values add c(i) when it has a closed form. *)
  match shift other w.order with
  | None -> Unknown
  | Some shifted -> (
    let inner = add w.inner shifted in
    if inner = Unknown then Unknown
    else begin
      let initials =
        List.mapi
          (fun i s ->
            match sym_at other i with
            | Some v -> Some (Sym.add s v)
            | None -> None)
          w.initials
      in
      match
        List.fold_right
          (fun x acc ->
            match (x, acc) with
            | Some v, Some l -> Some (v :: l)
            | _ -> None)
          initials (Some [])
      with
      | Some initials -> Wrap { w with inner; initials }
      | None -> Unknown
    end)

and periodic_add p q =
  let lcm =
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    p.period * q.period / gcd p.period q.period
  in
  if lcm > 64 then Unknown
  else begin
    let values =
      Array.init lcm (fun h ->
          Sym.add
            p.values.((h + p.phase) mod p.period)
            q.values.((h + q.phase) mod q.period))
    in
    Periodic { loop = p.loop; period = lcm; values; phase = 0 }
  end

and mono_add m other =
  match growth other with
  | Some (None, _) -> Monotonic m
  | Some (Some dir, strict) when dir = m.dir ->
    (* Adding another growing sequence leaves the family: the sum can
       grow in an iteration where the family's region does not. *)
    let family =
      match other with
      | Monotonic o when o.family = m.family -> m.family
      | _ -> Ivclass.no_family
    in
    Monotonic { m with strict = m.strict || strict; family }
  | Some (Some _, _) | None -> Unknown

(* [shift t k] is the class of h -> t(h + k) for exact classes. *)
and shift t k =
  match t with
  | Invariant _ -> Some t
  | Linear { loop; base = Invariant b; step } ->
    Some
      (Ivclass.linear loop
         (Invariant (Sym.add b (Sym.scale (Rat.of_int k) step)))
         step)
  | Poly { loop; coeffs } -> Some (Ivclass.poly loop (shift_vec coeffs k))
  | Geometric { loop; gcoeffs; ratio; gcoeff } ->
    (* ratio^(h+k) = ratio^k * ratio^h *)
    Some
      (Ivclass.geometric loop (shift_vec gcoeffs k) ratio
         (Sym.scale (Rat.pow ratio k) gcoeff))
  | Periodic p ->
    Some (Periodic { p with phase = ((p.phase + k) mod p.period + p.period) mod p.period })
  | Linear _ | Unknown | Wrap _ | Monotonic _ -> None

(* [sym_at t h] is the symbolic value of [t] at the concrete iteration
   [h >= 0], when expressible. A geometric term is not expanded past
   iteration [max_geometric_h]: its power then has thousands of bits,
   far outside the 63-bit range of any run that does not trap, and
   building it takes time quadratic in that size. *)
and sym_at t h =
  match t with
  | Invariant s -> Some s
  | Linear { base = Invariant b; step; _ } ->
    Some (Sym.add b (Sym.scale (Rat.of_int h) step))
  | Poly { coeffs; _ } ->
    Some
      (Array.to_list coeffs
      |> List.mapi (fun k c -> Sym.scale (Rat.pow (Rat.of_int h) k) c)
      |> List.fold_left Sym.add Sym.zero)
  | Geometric { ratio; _ }
    when h > max_geometric_h && not (Rat.equal (Rat.abs ratio) Rat.one) ->
    None
  | Geometric { gcoeffs; ratio; gcoeff; _ } ->
    let p =
      Array.to_list gcoeffs
      |> List.mapi (fun k c -> Sym.scale (Rat.pow (Rat.of_int h) k) c)
      |> List.fold_left Sym.add Sym.zero
    in
    Some (Sym.add p (Sym.scale (Rat.pow ratio h) gcoeff))
  | Periodic { period; values; phase; _ } -> Some values.((h + phase) mod period)
  | Wrap { order; inner; initials; _ } ->
    if h < order then List.nth_opt initials h else sym_at inner (h - order)
  | Linear _ | Unknown | Monotonic _ -> None

(* [sym_at_sym t h] substitutes a *symbolic* iteration number into the
   closed form; defined for polynomial classes (used for loop exit
   values, where h is the symbolic trip count). *)
let sym_at_sym t (h : Sym.t) =
  match poly_view t with
  | Some (_, coeffs) ->
    Some
      (Array.to_list coeffs
      |> List.mapi (fun k c -> Sym.mul c (Sym.pow h k))
      |> List.fold_left Sym.add Sym.zero)
  | None -> None

let rec neg t =
  match t with
  | Unknown -> Unknown
  | Invariant s -> Invariant (Sym.neg s)
  | Linear { loop; base; step } -> (
    match base with
    | Invariant b -> Ivclass.linear loop (Invariant (Sym.neg b)) (Sym.neg step)
    | _ -> Unknown)
  | Poly { loop; coeffs } -> Ivclass.poly loop (Array.map Sym.neg coeffs)
  | Geometric { loop; gcoeffs; ratio; gcoeff } ->
    Ivclass.geometric loop (Array.map Sym.neg gcoeffs) ratio (Sym.neg gcoeff)
  | Wrap { loop; order; inner; initials } -> (
    match neg inner with
    | Unknown -> Unknown
    | inner -> Wrap { loop; order; inner; initials = List.map Sym.neg initials })
  | Periodic p -> Periodic { p with values = Array.map Sym.neg p.values }
  | Monotonic m ->
    Monotonic
      {
        m with
        dir = (match m.dir with Increasing -> Decreasing | Decreasing -> Increasing);
      }

let sub a b = add a (neg b)

let rec mul a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Invariant x, Invariant y -> Invariant (Sym.mul x y)
  (* Identities keep multiloop (nested-base) classes intact. *)
  | Invariant s, other when Sym.equal s Sym.one -> other
  | other, Invariant s when Sym.equal s Sym.one -> other
  | Invariant s, _ when Sym.is_zero s -> Invariant Sym.zero
  | _, Invariant s when Sym.is_zero s -> Invariant Sym.zero
  (* Scaling a multiloop linear IV by a constant scales base and step. *)
  | Linear ({ base; step; _ } as l), Invariant s
  | Invariant s, Linear ({ base; step; _ } as l)
    when (match base with Invariant _ -> false | _ -> true)
         && Option.is_some (Sym.const s) -> (
    match mul base (Invariant s) with
    | Unknown -> Unknown
    | base -> Linear { l with base; step = Sym.mul step s })
  | Periodic p, Invariant s | Invariant s, Periodic p ->
    Periodic { p with values = Array.map (fun v -> Sym.mul v s) p.values }
  | Wrap w, Invariant s | Invariant s, Wrap w -> (
    match mul w.inner (Invariant s) with
    | Unknown -> Unknown
    | inner ->
      Wrap { w with inner; initials = List.map (fun v -> Sym.mul v s) w.initials })
  | Monotonic m, Invariant s | Invariant s, Monotonic m -> (
    (* Multiplying by a constant of known sign preserves or flips. *)
    match Sym.const s with
    | Some c when Rat.sign c > 0 -> Monotonic m
    | Some c when Rat.sign c < 0 -> neg (Monotonic m)
    | Some _ -> Invariant Sym.zero
    | None -> Unknown)
  | _ -> (
    match (geo_view a, geo_view b) with
    | Some (la, ca, ga), Some (lb, cb, gb) -> (
      match join_loop la lb with
      | Error () -> Unknown
      | Ok loop -> (
        match (ga, gb) with
        | None, None -> of_geo_view loop (mul_vec ca cb) None
        | Some (r, c), None | None, Some (r, c) ->
          (* (p + c r^h)(q) = pq + (cq) r^h: needs q constant (degree 0)
             or the product has h^k r^h terms we cannot represent. *)
          let q = if ga = None then ca else cb in
          let p = if ga = None then cb else ca in
          if Array.length q <= 1 then begin
            let q0 = if Array.length q = 0 then Sym.zero else q.(0) in
            of_geo_view loop (scale_vec_sym q0 p) (Some (r, Sym.mul c q0))
          end
          else Unknown
        | Some (r1, c1), Some (r2, c2) ->
          (* Pure exponentials multiply; anything else needs h^k r^h. *)
          let pure v = Array.for_all Sym.is_zero v in
          if pure ca && pure cb then
            of_geo_view loop [| Sym.zero |] (Some (Rat.mul r1 r2, Sym.mul c1 c2))
          else Unknown))
    | _ -> Unknown)

and scale_vec_sym s v = Array.map (fun c -> Sym.mul s c) v

(* [scale c t] multiplies by a rational constant. *)
let scale c t = mul (Invariant (Sym.of_rat c)) t

(* [add_sym t s] adds a loop-invariant symbolic value. *)
let add_sym t s = add t (Invariant s)

(* [div_const t c] divides by a nonzero integer constant, only when the
   result provably stays integral on every iteration (all coefficients
   integer and divisible); integer division is not rational division. *)
let div_const t (c : Bigint.t) =
  if Bigint.is_zero c then Unknown
  else begin
    let divisible (s : Sym.t) =
      (* Conservative: only constant integer coefficients divisible by c. *)
      match Sym.const s with
      | Some r -> (
        match Rat.to_bigint_exact r with
        | Some n -> Bigint.is_zero (Bigint.rem n c)
        | None -> false)
      | None -> false
    in
    match geo_view t with
    | Some (loop, coeffs, geo) ->
      let ok =
        Array.for_all divisible coeffs
        && match geo with Some (_, g) -> divisible g | None -> true
      in
      if not ok then Unknown
      else begin
        let inv_c = Rat.make Bigint.one c in
        let coeffs = scale_vec inv_c coeffs in
        match (loop, geo) with
        | _, None -> of_geo_view loop coeffs None
        | Some _, Some (r, g) -> of_geo_view loop coeffs (Some (r, Sym.scale inv_c g))
        | None, Some _ -> Unknown
      end
    | None -> Unknown
  end
