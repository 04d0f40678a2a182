(* Data dependence testing over classified subscripts (paper §6).

   For affine subscripts the dependence equation

       sum_L a_L h_L  -  sum_L b_L h'_L  =  c

   is tested with the GCD test and Banerjee-style bounds, refined per
   direction (<, =, >) for each common loop. The non-affine classes get
   the paper's translations:

     - wrap-around: the same equation, flagged as holding only after the
       wrap order's first iterations;
     - periodic families: an equality of family members translates into
       a constraint on iteration numbers modulo the period — in the
       relaxation pattern, "=" on members becomes "<>" on iterations;
     - monotonic families: "m = m'" only has solutions compatible with
       the member's monotonicity within one activation of its loop;
       strictly monotonic members force the "=" direction there.

   A dependence is a finite union of direction vectors: it holds for an
   iteration pair whose directions fit some vector. *)

module Sym = Analysis.Sym
module Ivclass = Analysis.Ivclass
module Extint = Analysis.Extint
open Bignum

(* A feasible set of simple directions between source and sink iteration
   numbers (source R sink). *)
type dirset = { lt : bool; eq : bool; gt : bool }

let all_dirs = { lt = true; eq = true; gt = true }
let no_dirs = { lt = false; eq = false; gt = false }
let eq_dir = { lt = false; eq = true; gt = false }
let dirset_is_empty d = (not d.lt) && (not d.eq) && not d.gt

let dirset_inter a b = { lt = a.lt && b.lt; eq = a.eq && b.eq; gt = a.gt && b.gt }
let dirset_union a b = { lt = a.lt || b.lt; eq = a.eq || b.eq; gt = a.gt || b.gt }

(* The direction a sink-minus-source distance [n] implies. *)
let dirset_of_distance n = { lt = n > 0; eq = n = 0; gt = n < 0 }

let pp_dirset fmt d =
  let s =
    match (d.lt, d.eq, d.gt) with
    | true, true, true -> "*"
    | true, true, false -> "<="
    | true, false, true -> "<>"
    | true, false, false -> "<"
    | false, true, true -> ">="
    | false, true, false -> "="
    | false, false, true -> ">"
    | false, false, false -> "none"
  in
  Format.pp_print_string fmt s

type vector = (int * dirset) list

type dependence = {
  vectors : vector list; (* the union; each per common loop, outer first *)
  distance : (int * int) list option; (* exact distances when known *)
  holds_after : int; (* wrap-around order *)
  exact : bool; (* false: conservative "maybe" *)
  note : string option;
}

type outcome = Independent | Dependent of dependence

let star common = List.map (fun l -> (l, all_dirs)) common

let maybe ?note common =
  Dependent
    { vectors = [ star common ]; distance = None; holds_after = 0; exact = false; note }

(* [restrict d] is [d] without the vectors some loop has no direction
   left in (and without repeats); independent when none is left. *)
let restrict d =
  let feasible v = List.for_all (fun (_, ds) -> not (dirset_is_empty ds)) v in
  match d.vectors with
  | [ v ] -> if feasible v then Dependent d else Independent
  | vectors -> (
    let keep kept v = if feasible v && not (List.mem v kept) then v :: kept else kept in
    match List.fold_left keep [] vectors with
    | [] -> Independent
    | kept -> Dependent { d with vectors = List.rev kept })

(* [sharpen dists v] narrows each loop of [v] with a known distance. *)
let sharpen dists (v : vector) : vector =
  if dists = [] then v
  else
    List.map
      (fun (l, ds) ->
        match List.assoc_opt l dists with
        | Some n -> (l, dirset_inter ds (dirset_of_distance n))
        | None -> (l, ds))
      v

(* --- the affine equation test --- *)

(* Per-loop integer coefficients of the dependence equation. *)
type eq_term = { loop : int; a : int; b : int }

let const_int_of_sym s =
  match Sym.const s with Some r -> Rat.to_int_exact r | None -> None

(* The dependence equation of two affine forms: integer per-loop
   coefficients and the symbolic constant difference; [None] when a step
   is symbolic (the test is then conservative). *)
let equation (src : Affine.t) (dst : Affine.t) =
  let rec terms acc = function
    | [] -> Some (List.rev acc, Sym.sub dst.Affine.const src.Affine.const)
    | l :: rest -> (
      match
        (const_int_of_sym (Affine.coeff src l), const_int_of_sym (Affine.coeff dst l))
      with
      | Some a, Some b -> terms ({ loop = l; a; b } :: acc) rest
      | _ -> None)
  in
  terms [] (List.sort_uniq Stdlib.compare (Affine.loops src @ Affine.loops dst))

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Banerjee-style bounds by vertex enumeration of each loop's constraint
   polytope; [u] is the iteration count of the loop (h in [0, u-1]),
   [None] when unknown or unbounded. *)
let term_bounds ~(u : int option) ~(dir : [ `Lt | `Eq | `Gt | `Any ]) a b =
  let open Extint in
  let fin_points, rays =
    match (dir, u) with
    | `Eq, Some u ->
      if u < 1 then ([], []) else ([ (a - b) * 0; (a - b) * (u - 1) ], [])
    | `Eq, None -> ([ 0 ], [ a - b ])
    | `Lt, Some u ->
      if u < 2 then ([], [])
      else
        ( [ (a * 0) - (b * 1); (a * 0) - (b * (u - 1)); (a * (u - 2)) - (b * (u - 1)) ],
          [] )
    | `Lt, None -> ([ -b ], [ -b; a - b ])
    | `Gt, Some u ->
      if u < 2 then ([], [])
      else
        ( [ (a * 1) - (b * 0); (a * (u - 1)) - (b * 0); (a * (u - 1)) - (b * (u - 2)) ],
          [] )
    | `Gt, None -> ([ a ], [ a; a - b ])
    | `Any, Some u ->
      if u < 1 then ([], [])
      else
        ( [ 0; -b * (u - 1); a * (u - 1); (a - b) * (u - 1) ],
          [] )
    | `Any, None -> ([ 0 ], [ a; -b; a - b ])
  in
  match fin_points with
  | [] -> None (* infeasible direction (too few iterations) *)
  | first :: _ ->
    let lo = ref (Fin (List.fold_left Stdlib.min first fin_points)) in
    let hi = ref (Fin (List.fold_left Stdlib.max first fin_points)) in
    List.iter
      (fun slope ->
        if slope > 0 then hi := Pos_inf else if slope < 0 then lo := Neg_inf)
      rays;
    Some (!lo, !hi)

(* Does the extended interval [lo, hi] contain a multiple of [g]
   (g > 0)? Unbounded on either side: yes when non-empty (multiples are
   unbounded both ways). *)
let multiple_in g lo hi =
  let open Extint in
  le lo hi
  &&
  match (lo, hi) with
  | Neg_inf, _ | _, Pos_inf -> true
  | Fin lo, Fin hi ->
    (* Largest multiple of g that is <= hi (floor division). *)
    let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b) in
    fdiv hi g * g >= lo
  | Pos_inf, _ | _, Neg_inf -> false

(* Does [lo, hi] hold a multiple of [g] (zero itself when g = 0)? *)
let reaches g lo hi =
  if g = 0 then Extint.le lo Extint.zero && Extint.le Extint.zero hi
  else multiple_in g lo hi

(* Feasibility of the equation under a direction assignment (a loop not
   in [dirs] is '*') when the constant is known to lie in [crange] — an
   exact constant c is the range [c, c]. A dependence needs some c in
   the range that is a multiple of the coefficients' gcd (under '=' the
   two counters are one variable with coefficient a - b) and that the
   Banerjee bounds of the term sum reach. *)
let feasible ~bounds ~(crange : Extint.t * Extint.t) terms dirs =
  let open Extint in
  let clo, chi = crange in
  let g =
    List.fold_left
      (fun g t ->
        match List.assoc_opt t.loop dirs with
        | Some `Eq -> gcd g (t.a - t.b)
        | _ -> gcd (gcd g t.a) t.b)
      0 terms
  in
  let rec sum lo hi = function
    | [] -> reaches g (max lo clo) (min hi chi)
    | t :: rest -> (
      let dir = Option.value ~default:`Any (List.assoc_opt t.loop dirs) in
      match term_bounds ~u:(bounds t.loop) ~dir t.a t.b with
      | None -> false
      | Some (tlo, thi) -> sum (add lo tlo) (add hi thi) rest)
  in
  reaches g clo chi && sum zero zero terms

(* --- hierarchical direction-vector enumeration [WB87] --- *)

type simple_dir = [ `Lt | `Eq | `Gt ]

(* [direction_vectors ~bounds ~common src dst] refines the direction
   vector tree (*,...,*) -> (<,*,...) -> ... and returns the feasible
   full vectors, outer loop first. [None] when the subscripts are not
   decidable (symbolic equation) or the nest is too deep to enumerate. *)
let direction_vectors ~(bounds : int -> int option) ~(common : int list)
    (src : Affine.t) (dst : Affine.t) : simple_dir list list option =
  match equation src dst with
  | Some (terms, c) when List.length common <= 6 -> (
    match const_int_of_sym c with
    | None -> None
    | Some c ->
      let feasible (fixed : (int * simple_dir) list) =
        feasible ~bounds ~crange:(Extint.Fin c, Extint.Fin c) terms
          (fixed :> (int * [ simple_dir | `Any ]) list)
      in
      let rec refine fixed = function
        | [] -> if feasible fixed then [ List.rev_map snd fixed ] else []
        | l :: rest ->
          List.concat_map
            (fun d ->
              let fixed = (l, d) :: fixed in
              (* Prune: skip the whole subtree when already infeasible. *)
              if feasible fixed then refine fixed rest else [])
            [ `Lt; `Eq; `Gt ]
      in
      Some (refine [] common))
  | _ -> None

let pp_simple_dir fmt (d : simple_dir) =
  Format.pp_print_string fmt (match d with `Lt -> "<" | `Eq -> "=" | `Gt -> ">")

(* [equation_for_distances src dst] views the dependence equation as a
   constraint on per-loop iteration distances d_L = h'_L - h_L, when
   every loop's two coefficients agree: sum a_L d_L = -c. Used by the
   coupled-subscript refinement (e.g. A(i,j) = A(i-1,j) in a triangular
   nest, where dim 2 alone determines no distance but the system does). *)
let equation_for_distances (src : Affine.t) (dst : Affine.t) :
    ((int * int) list * int) option =
  match equation src dst with
  | Some (terms, c) when List.for_all (fun t -> t.a = t.b) terms ->
    Option.map (fun c -> (List.map (fun t -> (t.loop, t.a)) terms, -c)) (const_int_of_sym c)
  | _ -> None

(* [solve_distance_system rows] solves the linear system of distance
   constraints by exact elimination; returns the loops whose distance is
   uniquely determined, or [None] when the system has no integer
   solution (proving independence). *)
let solve_distance_system (rows : ((int * int) list * int) list) :
    (int * int) list option =
  let vars =
    Array.of_list
      (List.sort_uniq Stdlib.compare (List.concat_map (fun (ts, _) -> List.map fst ts) rows))
  in
  let n = Array.length vars in
  let index l =
    let rec go i = if vars.(i) = l then i else go (i + 1) in
    go 0
  in
  (* The augmented matrix [A | c]. *)
  let m = Ratmat.create (List.length rows) (n + 1) in
  List.iteri
    (fun i (ts, c) ->
      List.iter (fun (l, k) -> Ratmat.set m i (index l) (Rat.of_int k)) ts;
      Ratmat.set m i n (Rat.of_int c))
    rows;
  let pivots = Ratmat.eliminate m ~cols:n in
  let rank = List.length pivots in
  let lhs_zero r skip =
    let rec go j = j >= n || ((j = skip || Rat.is_zero (Ratmat.get m r j)) && go (j + 1)) in
    go 0
  in
  (* Inconsistent: a row past the rank (zero left side) with a nonzero
     right side. *)
  let rec consistent r =
    r >= Ratmat.rows m || (Rat.is_zero (Ratmat.get m r n) && consistent (r + 1))
  in
  if not (consistent rank) then None
  else
    (* A pivot row with no other nonzero left-side entry determines its
       variable; a fractional value admits no integer solution at all. *)
    let rec determined acc r = function
      | [] -> Some (List.sort Stdlib.compare acc)
      | col :: rest when lhs_zero r col -> (
        match Rat.to_int_exact (Ratmat.get m r n) with
        | Some d -> determined ((vars.(col), d) :: acc) (r + 1) rest
        | None -> None)
      | _ :: rest -> determined acc (r + 1) rest
    in
    determined [] 0 pivots

(* Dependences through a wrap-around subscript's *first* iterations: the
   steady-state equation only covers h >= order, so each recorded initial
   value is solved against the other side separately (paper §6: the
   relation "holds after k iterations"; the first k must still be
   accounted for). Returns the extra feasible directions on the wrap
   loop, or [None] for "cannot tell" (forces a conservative result). *)
let initial_dirs ~(bounds : int -> int option) ~(wrap_side : Affine.t)
    ~(other : Affine.t) ~(flipped : bool) : dirset option =
  match wrap_side.Affine.wrap_loop with
  | None -> Some no_dirs
  | Some wl -> (
    (* The other side as b*h' + c2 on the wrap loop only. *)
    let other_ok =
      List.for_all (fun (l, _) -> l = wl) other.Affine.terms
      && other.Affine.holds_after = 0
    in
    let b = const_int_of_sym (Affine.coeff other wl) in
    let c2 = const_int_of_sym other.Affine.const in
    if not other_ok then None
    else begin
      match (b, c2) with
      | Some b, Some c2 ->
        let u = bounds wl in
        let dirs = ref no_dirs in
        let add_rel i h' =
          (* Direction between the wrap side's iteration i and the other
             side's iteration h' (swapped when the wrap side is the
             sink). *)
          let lt, eq, gt =
            if i < h' then (true, false, false)
            else if i = h' then (false, true, false)
            else (false, false, true)
          in
          let lt, gt = if flipped then (gt, lt) else (lt, gt) in
          dirs := dirset_union !dirs { lt; eq; gt }
        in
        let ok = ref true in
        List.iteri
          (fun i v ->
            match Sym.const v with
            | None -> ok := false
            | Some v -> (
              match Rat.to_int_exact v with
              | None -> ()
              | Some v ->
                if b = 0 then begin
                  (* Invariant other side: collides on every iteration. *)
                  if v = c2 then begin
                    add_rel i (i + 1);
                    add_rel i i;
                    add_rel i (Stdlib.max 0 (i - 1))
                  end
                end
                else if (v - c2) mod b = 0 then begin
                  let h' = (v - c2) / b in
                  let in_range =
                    h' >= 0 && (match u with Some u -> h' < u | None -> true)
                  in
                  (* Steady range of the other side only; pairs against
                     its own initials are handled by the caller's
                     conservative path. *)
                  if in_range && h' >= other.Affine.holds_after then add_rel i h'
                end))
          wrap_side.Affine.initials;
        if !ok then Some !dirs else None
      | _ -> None
    end)

(* [affine_test ~bounds ~common src dst] runs the full test between two
   affine subscripts. [sym_range] bounds a symbolic expression to an
   interval (from `Analysis.Range`); it rescues the equation when only
   the constant difference is symbolic. *)
let affine_test ~(bounds : int -> int option) ~(common : int list)
    ?(sym_range : (Sym.t -> (Extint.t * Extint.t) option) option)
    (src : Affine.t) (dst : Affine.t) : outcome =
  let holds_after = Stdlib.max src.Affine.holds_after dst.Affine.holds_after in
  (* Dependences through the wrap-around initial iterations, analyzed
     separately from the steady-state equation. [None]: unanalyzable,
     forcing a conservative result. *)
  let initial_extra : dirset option =
    if holds_after = 0 then Some no_dirs
    else if src.Affine.holds_after > 0 && dst.Affine.holds_after > 0 then begin
      (* Initial-vs-initial pairs (both sides constant), plus each side's
         initials against the other's steady state. *)
      match
        ( initial_dirs ~bounds ~wrap_side:src ~other:dst ~flipped:false,
          initial_dirs ~bounds ~wrap_side:dst ~other:src ~flipped:true )
      with
      | Some a, Some b ->
        let pairwise = ref (dirset_union a b) in
        let ok = ref true in
        List.iteri
          (fun i v1 ->
            List.iteri
              (fun j v2 ->
                match (Sym.const v1, Sym.const v2) with
                | Some x, Some y ->
                  if Rat.equal x y then
                    pairwise :=
                      dirset_union !pairwise
                        { lt = i < j; eq = i = j; gt = i > j }
                | _ -> ok := false)
              dst.Affine.initials)
          src.Affine.initials;
        if !ok then Some !pairwise else None
      | _ -> None
    end
    else if src.Affine.holds_after > 0 then
      initial_dirs ~bounds ~wrap_side:src ~other:dst ~flipped:false
    else initial_dirs ~bounds ~wrap_side:dst ~other:src ~flipped:true
  in
  let widen_with_initials (steady : outcome) : outcome =
    match initial_extra with
    | Some extra when dirset_is_empty extra -> steady
    | Some extra -> (
      let wl =
        match (src.Affine.wrap_loop, dst.Affine.wrap_loop) with
        | Some l, _ | None, Some l -> l
        | None, None -> -1
      in
      let widen v =
        List.map
          (fun (l, ds) ->
            if l = wl then (l, dirset_union ds extra) else (l, dirset_union ds all_dirs))
          v
      in
      match steady with
      | Independent ->
        Dependent
          {
            vectors = [ widen (List.map (fun l -> (l, no_dirs)) common) ];
            distance = None;
            holds_after;
            exact = true;
            note = Some "dependence only through the wrap-around initial values";
          }
      | Dependent d ->
        Dependent { d with vectors = List.map widen d.vectors; distance = None })
    | None -> (
      let note = "wrap-around initial iterations unanalyzed" in
      match steady with
      | Independent -> maybe ~note common
      | Dependent d ->
        Dependent
          { d with vectors = [ star common ]; distance = None; exact = false; note = Some note })
  in
  (* The steady-state test for a constant difference in [crange];
     [point] is the constant when it is exact (then distances can be
     known). Refines each common loop's direction with the others at
     '*'. *)
  let steady terms ~point crange =
    let feasible = feasible ~bounds ~crange terms in
    if not (feasible []) then Independent
    else begin
      let directions =
        List.map
          (fun l ->
            let try_dir d = feasible [ (l, d) ] in
            (l, { lt = try_dir `Lt; eq = try_dir `Eq; gt = try_dir `Gt }))
          common
      in
      (* Exact distances: per loop with a = b <> 0 and this the only
         loop in the equation (strong SIV); a(h - h') = c, so the
         sink-minus-source distance is -c/a. *)
      let distance =
        match (point, terms) with
        | Some c, [ t ] when t.a = t.b && t.a <> 0 && List.mem t.loop common ->
          if c mod t.a = 0 then Some [ (t.loop, -(c / t.a)) ] else None
        | Some _, [] -> Some []
        | _ -> None
      in
      let note =
        match point with
        | Some _ -> None
        | None ->
          Some
            (Printf.sprintf "symbolic constant bounded to [%s, %s]"
               (Extint.to_string (fst crange))
               (Extint.to_string (snd crange)))
      in
      let directions =
        match distance with Some ds -> sharpen ds directions | None -> directions
      in
      restrict { vectors = [ directions ]; distance; holds_after; exact = point <> None; note }
    end
  in
  let fallback () = maybe ~note:"symbolic coefficients; assumed dependent" common in
  match equation src dst with
  | None -> fallback ()
  | Some (terms, csym) -> (
    match const_int_of_sym csym with
    | Some c -> widen_with_initials (steady terms ~point:(Some c) (Extint.Fin c, Extint.Fin c))
    | None -> (
      (* Range sharpening: constant coefficients but a symbolic constant
         difference — bound it to an interval and test every value. Kept
         away from wrap-arounds (their initial iterations need the exact
         constant). *)
      match sym_range with
      | Some range when src.Affine.holds_after = 0 && dst.Affine.holds_after = 0 -> (
        match range csym with
        | Some crange -> steady terms ~point:None crange
        | None -> fallback ())
      | _ -> fallback ()))

(* --- translations for the non-affine classes (§6) --- *)

(* [rotation_of p q] finds s with q.values[i] = p.values[(i+s) mod n],
   i.e. q is the same rotating tuple seen s steps ahead. *)
let rotation_of (p : Ivclass.periodic) (q : Ivclass.periodic) =
  let n = p.Ivclass.period in
  let matches s =
    let ok = ref true in
    for i = 0 to n - 1 do
      if not (Sym.equal q.Ivclass.values.(i) p.Ivclass.values.((i + s) mod n)) then
        ok := false
    done;
    !ok
  in
  let rec find s = if s >= n then None else if matches s then Some s else find (s + 1) in
  find 0

let periodic_test ~common (p : Ivclass.periodic) (q : Ivclass.periodic) : outcome =
  let rotation =
    if p.Ivclass.loop = q.Ivclass.loop && p.Ivclass.period = q.Ivclass.period then
      rotation_of p q
    else None
  in
  match rotation with
  | None -> maybe ~note:"periodic subscripts from different families" common
  | Some rot ->
    (* Express q in p's frame: q(h) = q.values[(h + q.phase) mod n]
       = p.values[(h + q.phase + rot) mod n]. *)
    let q =
      Ivclass.
        {
          q with
          values = Array.copy p.Ivclass.values;
          phase = (q.Ivclass.phase + rot) mod q.Ivclass.period;
        }
    in
    begin
    let values = Array.to_list p.Ivclass.values in
    let consts = List.map Sym.const values in
    let distinct =
      List.for_all Option.is_some consts
      &&
      let cs = List.filter_map Fun.id consts in
      List.length (List.sort_uniq Rat.compare cs) = List.length cs
    in
    if not distinct then
      maybe ~note:"periodic family: initial values not provably distinct" common
    else begin
      (* values[(h+p1) mod p] = values[(h'+p2) mod p] iff
         h - h' = p2 - p1 (mod p). *)
      let period = p.Ivclass.period in
      let shift = ((q.Ivclass.phase - p.Ivclass.phase) mod period + period) mod period in
      let d =
        if shift = 0 then
          (* h = h' (mod p): includes equal iterations. *)
          all_dirs
        else { lt = true; eq = false; gt = true }
      in
      Dependent
        {
          vectors =
            [ List.map (fun l -> if l = p.Ivclass.loop then (l, d) else (l, all_dirs)) common ];
          distance = None;
          holds_after = 0;
          exact = true;
          note =
            Some
              (if shift = 0 then
                 Printf.sprintf "periodic: dependence only when h = h' (mod %d)" period
               else
                 Printf.sprintf
                   "periodic: members differ by %d (mod %d); '=' impossible" shift
                   period);
        }
    end
  end

(* A monotonic family holds within one activation of its loop: there,
   with every common loop outside it at '=', nondecreasing values can
   only coincide moving forward ('=' alone for a strict same def). Two
   activations — some outer common loop at '<' or '>' — may meet at any
   direction. *)
let monotonic_test ~common ~(same_def : bool) (m : Ivclass.monotonic)
    (m' : Ivclass.monotonic) : outcome =
  if m.Ivclass.loop <> m'.Ivclass.loop || m.Ivclass.family <> m'.Ivclass.family
     || m.Ivclass.dir <> m'.Ivclass.dir
     || (m.Ivclass.family = Ivclass.no_family && not same_def)
  then maybe ~note:"monotonic subscripts from different families" common
  else begin
    let strict = same_def && m.Ivclass.strict && m'.Ivclass.strict in
    let d = if strict then eq_dir else { lt = true; eq = true; gt = false } in
    (* Vectors over [outer] with some loop not '=': (=, .., =, <>, *, .., * ). *)
    let rec across = function
      | [] -> []
      | l :: rest ->
        ((l, { all_dirs with eq = false }) :: star rest)
        :: List.map (fun v -> (l, eq_dir) :: v) (across rest)
    in
    let rec split outer = function
      | [] -> [ star common ]
      | l :: inner when l = m.Ivclass.loop ->
        let outer = List.rev outer in
        (List.map (fun o -> (o, eq_dir)) outer @ ((l, d) :: star inner))
        :: List.map (fun v -> v @ star (l :: inner)) (across outer)
      | l :: rest -> split (l :: outer) rest
    in
    Dependent
      {
        vectors = split [] common;
        distance = None;
        holds_after = 0;
        exact = false;
        note =
          Some
            (if same_def && m.Ivclass.strict then
               "strictly monotonic: dependence direction (=)"
             else "monotonic: dependence direction (<=)");
      }
  end

(* --- driver over classifications --- *)

let rec strip_wrap = function
  | Ivclass.Wrap { inner; order; _ } ->
    let c, o = strip_wrap inner in
    (c, o + order)
  | c -> (c, 0)

(* [test ~bounds ~common ?src_def ?dst_def src dst] tests a pair of
   subscript classifications. [src_def]/[dst_def] identify the SSA defs
   (used to recognize same-def monotonic pairs). *)
let test ~(bounds : int -> int option) ~(common : int list)
    ?(src_def : Ir.Instr.Id.t option) ?(dst_def : Ir.Instr.Id.t option)
    ?(sym_range : (Sym.t -> (Extint.t * Extint.t) option) option)
    (src_class : Ivclass.t) (dst_class : Ivclass.t) : outcome =
  let src_c, o1 = strip_wrap src_class in
  let dst_c, o2 = strip_wrap dst_class in
  let wrap_order = Stdlib.max o1 o2 in
  (* The stripped classes hold from iteration [wrap_order] on; as in
     [affine_test], first values this path does not analyze rule
     nothing out. *)
  let with_wrap outcome =
    let note = "wrap-around initial iterations unanalyzed" in
    match outcome with
    | _ when wrap_order = 0 -> outcome
    | Independent -> maybe ~note common
    | Dependent d ->
      Dependent
        {
          vectors = [ star common ];
          distance = None;
          holds_after = Stdlib.max d.holds_after wrap_order;
          exact = false;
          note = Some note;
        }
  in
  match (Affine.of_class src_class, Affine.of_class dst_class) with
  | Some a, Some b -> affine_test ~bounds ~common ?sym_range a b
  | _ -> (
    match (src_c, dst_c) with
    | Ivclass.Periodic p, Ivclass.Periodic q ->
      with_wrap (periodic_test ~common p q)
    | Ivclass.Monotonic m, Ivclass.Monotonic m' ->
      let same_def =
        match (src_def, dst_def) with
        | Some a, Some b -> Ir.Instr.Id.equal a b
        | _ -> false
      in
      with_wrap (monotonic_test ~common ~same_def m m')
    | Ivclass.Invariant s, Ivclass.Periodic p | Ivclass.Periodic p, Ivclass.Invariant s
      -> (
      (* Invariant vs periodic: independent when the invariant is a
         constant missing from a constant value tuple. *)
      match Sym.const s with
      | Some c
        when Array.for_all
               (fun v ->
                 match Sym.const v with
                 | Some v -> not (Rat.equal v c)
                 | None -> false)
               p.Ivclass.values ->
        with_wrap Independent
      | _ -> maybe common)
    | _ -> maybe common)


let pp_vector fmt (v : vector) =
  Format.pp_print_char fmt '(';
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    (fun fmt (l, ds) -> Format.fprintf fmt "L%d:%a" l pp_dirset ds)
    fmt v;
  Format.pp_print_char fmt ')'

let pp_outcome fmt = function
  | Independent -> Format.pp_print_string fmt "independent"
  | Dependent d ->
    Format.pp_print_string fmt "dependent ";
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " | ")
      pp_vector fmt d.vectors;
    (match d.distance with
     | Some [] | None -> ()
     | Some ds ->
       Format.fprintf fmt " distance (%a)"
         (Format.pp_print_list
            ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
            (fun fmt (l, n) -> Format.fprintf fmt "L%d:%d" l n))
         ds);
    if d.holds_after > 0 then Format.fprintf fmt " [after %d iterations]" d.holds_after;
    if not d.exact then Format.fprintf fmt " [conservative]";
    (match d.note with Some n -> Format.fprintf fmt " — %s" n | None -> ())
