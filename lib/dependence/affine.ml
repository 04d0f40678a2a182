(* Affine view of a subscript classification: value = const + sum over
   loops of step_L * h_L, valid from iteration [holds_after] on (the
   wrap-around translation of paper §6: the dependence relation holds
   only after the first k iterations).

   Multiloop induction variables (nested linear tuples) flatten to one
   term per loop; polynomial/geometric classes are not affine and are
   reported as such so the driver can fall back to weaker conclusions. *)

module Sym = Analysis.Sym
module Ivclass = Analysis.Ivclass
open Bignum

type t = {
  terms : (int * Sym.t) list; (* loop id -> per-iteration step; no dups *)
  const : Sym.t; (* value at the all-zeros iteration vector *)
  holds_after : int; (* wrap-around order *)
  wrap_loop : int option; (* the loop the first values belong to *)
  initials : Sym.t list; (* values at h = 0 .. holds_after-1 *)
}

let invariant s =
  { terms = []; const = s; holds_after = 0; wrap_loop = None; initials = [] }

let add_term t loop step =
  let rec go = function
    | [] -> [ (loop, step) ]
    | (l, s) :: rest when l = loop -> (l, Sym.add s step) :: rest
    | x :: rest -> x :: go rest
  in
  { t with terms = go t.terms }

(* [of_class c] is the affine view of a classification, when it has one. *)
let rec of_class (c : Ivclass.t) : t option =
  match c with
  | Ivclass.Invariant s -> Some (invariant s)
  (* A wrap-around below the top level has first values that vary with
     the enclosing terms, which [initials] cannot record: not affine. *)
  | Ivclass.Linear { loop; base; step } -> (
    match of_class base with
    | Some b when b.holds_after = 0 -> Some (add_term b loop step)
    | Some _ | None -> None)
  | Ivclass.Wrap { loop; order; inner; initials } -> (
    (* value(h_L) = inner(h_L - order): shift the constant term; the
       first [order] iterations take the recorded initial values. *)
    match of_class inner with
    | Some a when a.holds_after = 0 ->
      let step_l =
        Option.value ~default:Sym.zero (List.assoc_opt loop a.terms)
      in
      Some
        {
          a with
          const = Sym.sub a.const (Sym.scale (Rat.of_int order) step_l);
          holds_after = order;
          wrap_loop = Some loop;
          initials;
        }
    | Some _ | None -> None)
  | Ivclass.Unknown | Ivclass.Poly _ | Ivclass.Geometric _ | Ivclass.Periodic _
  | Ivclass.Monotonic _ ->
    None

(* [coeff t loop] is the step of [t] in [loop] (zero when absent). *)
let coeff t loop = Option.value ~default:Sym.zero (List.assoc_opt loop t.terms)

(* [loops t] lists the loops the subscript varies in. *)
let loops t = List.map fst t.terms

let pp fmt t =
  Format.fprintf fmt "%a" Sym.pp t.const;
  List.iter (fun (l, s) -> Format.fprintf fmt " + (%a)*h%d" Sym.pp s l) t.terms;
  if t.holds_after > 0 then Format.fprintf fmt " [after %d]" t.holds_after
