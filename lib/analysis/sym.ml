(* Symbolic values: canonical multivariate polynomials with rational
   coefficients over "region constants" — program inputs and instruction
   results that are invariant in the loop under analysis.

   The classifier manipulates initial values and steps symbolically (the
   paper represents an initial value "symbolically if it cannot be
   determined"), so this module provides a small exact polynomial algebra
   with a canonical form: equality of symbolic expressions is structural
   equality of the normal form. Operations the algebra cannot normalize
   (division by a symbol, symbolic exponentiation) are represented by the
   classifier as opaque atoms instead. *)

open Bignum

type atom =
  | Param of Ir.Ident.t (* program input, e.g. "n" *)
  | Def of Ir.Instr.Id.t (* loop-invariant instruction result *)

(* Parameters order by name (so canonical forms — and printing — do not
   depend on global interning order); defs order by instruction id. *)
let atom_compare a b =
  match (a, b) with
  | Param x, Param y -> String.compare (Ir.Ident.name x) (Ir.Ident.name y)
  | Def x, Def y -> Ir.Instr.Id.compare x y
  | Param _, Def _ -> -1
  | Def _, Param _ -> 1

let atom_equal a b = atom_compare a b = 0

(* A monomial maps atoms to positive powers; sorted by atom. *)
type mono = (atom * int) list

let mono_compare (a : mono) (b : mono) =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (xa, pa) :: ra, (xb, pb) :: rb ->
      let c = atom_compare xa xb in
      if c <> 0 then c
      else begin
        let c = Stdlib.compare pa pb in
        if c <> 0 then c else go ra rb
      end
  in
  go a b

(* Terms sorted by monomial, all coefficients nonzero; [] is zero; the
   constant term has the empty monomial. *)
type t = (mono * Rat.t) list

let zero : t = []

let of_rat (c : Rat.t) : t = if Rat.is_zero c then [] else [ ([], c) ]

let of_int n = of_rat (Rat.of_int n)
let one = of_int 1

let atom a : t = [ ([ (a, 1) ], Rat.one) ]
let param x = atom (Param x)
let def id = atom (Def id)

let is_zero (t : t) = t = []

(* [const t] is [Some c] when [t] is the constant [c]. *)
let const (t : t) =
  match t with
  | [] -> Some Rat.zero
  | [ ([], c) ] -> Some c
  | _ -> None

let is_const t = Option.is_some (const t)

(* [const_int t] is [Some n] when [t] is the integer constant [n]
   (fitting a native int). *)
let const_int t =
  match const t with
  | Some c -> Rat.to_int_exact c
  | None -> None

let equal (a : t) (b : t) =
  let rec go a b =
    match (a, b) with
    | [], [] -> true
    | (ma, ca) :: ra, (mb, cb) :: rb ->
      mono_compare ma mb = 0 && Rat.equal ca cb && go ra rb
    | _ -> false
  in
  go a b

let compare (a : t) (b : t) =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (ma, ca) :: ra, (mb, cb) :: rb ->
      let c = mono_compare ma mb in
      if c <> 0 then c
      else begin
        let c = Rat.compare ca cb in
        if c <> 0 then c else go ra rb
      end
  in
  go a b

(* Merge two sorted term lists, combining equal monomials. *)
let add (a : t) (b : t) : t =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (ma, ca) :: ra, (mb, cb) :: rb ->
      let c = mono_compare ma mb in
      if c < 0 then (ma, ca) :: go ra b
      else if c > 0 then (mb, cb) :: go a rb
      else begin
        let s = Rat.add ca cb in
        if Rat.is_zero s then go ra rb else (ma, s) :: go ra rb
      end
  in
  go a b

let scale (c : Rat.t) (t : t) : t =
  if Rat.is_zero c then [] else List.map (fun (m, k) -> (m, Rat.mul c k)) t

let neg t = scale Rat.minus_one t
let sub a b = add a (neg b)

let mono_mul (a : mono) (b : mono) : mono =
  let rec go a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (xa, pa) :: ra, (xb, pb) :: rb ->
      let c = atom_compare xa xb in
      if c < 0 then (xa, pa) :: go ra b
      else if c > 0 then (xb, pb) :: go a rb
      else (xa, pa + pb) :: go ra rb
  in
  go a b

let mul (a : t) (b : t) : t =
  List.fold_left
    (fun acc (ma, ca) ->
      add acc (List.map (fun (mb, cb) -> (mono_mul ma mb, Rat.mul ca cb)) b
               |> List.sort (fun (m1, _) (m2, _) -> mono_compare m1 m2)))
    zero a

let pow (t : t) n =
  if n < 0 then invalid_arg "Sym.pow: negative exponent";
  let rec go acc t n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc t else acc) (mul t t) (n lsr 1)
  in
  go one t n

(* [atoms t] is every atom appearing in [t], without duplicates. *)
let atoms (t : t) =
  List.fold_left
    (fun acc (m, _) ->
      List.fold_left
        (fun acc (a, _) -> if List.exists (atom_equal a) acc then acc else a :: acc)
        acc m)
    [] t
  |> List.rev

(* [eval lookup t] evaluates [t] with atom values from [lookup]; [None]
   if any atom is unknown. *)
let eval (lookup : atom -> Rat.t option) (t : t) : Rat.t option =
  let exception Unknown in
  try
    Some
      (List.fold_left
         (fun acc (m, c) ->
           let term =
             List.fold_left
               (fun acc (a, p) ->
                 match lookup a with
                 | Some v -> Rat.mul acc (Rat.pow v p)
                 | None -> raise Unknown)
               c m
           in
           Rat.add acc term)
         Rat.zero t)
  with Unknown -> None

(* [subst lookup t] replaces atoms by symbolic values where [lookup]
   provides one; other atoms stay. *)
let subst (lookup : atom -> t option) (t : t) : t =
  List.fold_left
    (fun acc (m, c) ->
      let term =
        List.fold_left
          (fun acc (a, p) ->
            let base = match lookup a with Some s -> s | None -> atom a in
            mul acc (pow base p))
          (of_rat c) m
      in
      add acc term)
    zero t

(* [rename f t] replaces every atom [a] of [t] by [f a] and re-sorts
   the factors and terms into canonical form: [f] need not preserve the
   atom order. [f] must be injective, so no two factors or terms merge. *)
let rename (f : atom -> atom) (t : t) : t =
  let rec sorted cmp = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && sorted cmp rest
    | _ -> true
  in
  let resort cmp l = if sorted cmp l then l else List.sort cmp l in
  let by_atom (a, _) (b, _) = atom_compare a b in
  let by_mono (m1, _) (m2, _) = mono_compare m1 m2 in
  List.map
    (fun (m, c) ->
      match m with
      | [] -> (m, c)
      | m -> (resort by_atom (List.map (fun (a, p) -> (f a, p)) m), c))
    t
  |> resort by_mono

(* [degree_in a t] is the highest power of atom [a] in [t]. *)
let degree_in a (t : t) =
  List.fold_left
    (fun acc (m, _) ->
      List.fold_left
        (fun acc (x, p) -> if atom_equal x a then Stdlib.max acc p else acc)
        acc m)
    0 t

(* --- Printing --- *)

let pp_atom fmt = function
  | Param x -> Ir.Ident.pp fmt x
  | Def id -> Ir.Instr.Id.pp fmt id

(* [pp_atom_with names] prints Def atoms through a naming function, so
   "%14" renders as "k2" in classification output. *)
let pp_atom_with names fmt = function
  | Param x -> Ir.Ident.pp fmt x
  | Def id -> Format.pp_print_string fmt (names id)

let pp_mono pp_a fmt (m : mono) =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "*")
    (fun fmt (a, p) ->
      if p = 1 then pp_a fmt a else Format.fprintf fmt "%a^%d" pp_a a p)
    fmt m

let pp_with names fmt (t : t) =
  let pp_a = pp_atom_with names in
  match t with
  | [] -> Format.pp_print_string fmt "0"
  | terms ->
    List.iteri
      (fun i (m, c) ->
        let neg = Rat.sign c < 0 in
        if i = 0 then begin
          if neg then Format.pp_print_string fmt "-"
        end
        else Format.pp_print_string fmt (if neg then " - " else " + ");
        let c = Rat.abs c in
        match m with
        | [] -> Rat.pp fmt c
        | _ ->
          if Rat.equal c Rat.one then pp_mono pp_a fmt m
          else Format.fprintf fmt "%a*%a" Rat.pp c (pp_mono pp_a) m)
      terms

let pp fmt t = pp_with Ir.Instr.Id.to_string fmt t

let to_string t = Format.asprintf "%a" pp t
