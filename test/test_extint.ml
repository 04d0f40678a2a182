(* Extint edge cases: the saturating operations around the infinities
   and the min_int corner. *)

module E = Analysis.Extint

let fin n = E.Fin n

let ext =
  Alcotest.testable
    (fun fmt x -> Format.pp_print_string fmt (E.to_string x))
    E.equal

let test_neg () =
  Alcotest.check ext "neg 5" (fin (-5)) (E.neg (fin 5));
  Alcotest.check ext "neg -inf" E.Pos_inf (E.neg E.Neg_inf);
  Alcotest.check ext "neg +inf" E.Neg_inf (E.neg E.Pos_inf);
  (* -min_int overflows natively; saturating negation goes to +inf. *)
  Alcotest.check ext "neg min_int" E.Pos_inf (E.neg (fin min_int));
  Alcotest.check ext "neg max_int" (fin (-max_int)) (E.neg (fin max_int))

let test_sat_add () =
  Alcotest.check ext "finite" (fin 7) (E.add (fin 3) (fin 4));
  Alcotest.check ext "overflow up" E.Pos_inf (E.add (fin max_int) (fin 1));
  Alcotest.check ext "overflow down" E.Neg_inf
    (E.add (fin min_int) (fin (-1)));
  Alcotest.check ext "inf absorbs" E.Pos_inf (E.add E.Pos_inf (fin (-5)));
  Alcotest.check ext "neg inf absorbs" E.Neg_inf
    (E.add E.Neg_inf (fin max_int));
  Alcotest.check_raises "opposite infinities"
    (Invalid_argument "Extint.add: opposite infinities") (fun () ->
      ignore (E.add E.Pos_inf E.Neg_inf))

let test_mul () =
  Alcotest.check ext "finite" (fin 12) (E.mul (fin 3) (fin 4));
  (* Interval convention: zero annihilates even infinities. *)
  Alcotest.check ext "0 * +inf" E.zero (E.mul E.zero E.Pos_inf);
  Alcotest.check ext "-inf * 0" E.zero (E.mul E.Neg_inf E.zero);
  Alcotest.check ext "inf signs" E.Neg_inf (E.mul E.Pos_inf (fin (-2)));
  Alcotest.check ext "-inf * -inf" E.Pos_inf (E.mul E.Neg_inf E.Neg_inf);
  (* min_int * -1 = max_int + 1: saturates instead of wrapping. *)
  Alcotest.check ext "min_int * -1" E.Pos_inf (E.mul (fin min_int) (fin (-1)));
  Alcotest.check ext "-1 * min_int" E.Pos_inf (E.mul (fin (-1)) (fin min_int));
  Alcotest.check ext "finite overflow" E.Pos_inf
    (E.mul (fin max_int) (fin 2));
  Alcotest.check ext "finite overflow down" E.Neg_inf
    (E.mul (fin max_int) (fin (-2)))

let test_mul_scalar () =
  Alcotest.check ext "exact" (fin (-6)) (E.mul (fin (-2)) (fin 3));
  Alcotest.check ext "scalar 0 kills inf" E.zero (E.mul E.zero E.Pos_inf);
  Alcotest.check ext "flips inf" E.Neg_inf (E.mul (fin (-1)) E.Pos_inf);
  Alcotest.check ext "min_int corner" E.Pos_inf (E.mul (fin (-1)) (fin min_int))

let test_div_scalar () =
  Alcotest.check ext "exact" (fin (-3)) (E.div_scalar (fin 7) (-2));
  Alcotest.check ext "inf / negative flips" E.Neg_inf
    (E.div_scalar E.Pos_inf (-3));
  Alcotest.check ext "min_int / -1" E.Pos_inf (E.div_scalar (fin min_int) (-1))

let suite =
  ( "extint",
    [
      Helpers.case "saturating negation" test_neg;
      Helpers.case "saturating addition" test_sat_add;
      Helpers.case "saturating multiplication" test_mul;
      Helpers.case "scalar multiplication" test_mul_scalar;
      Helpers.case "scalar division" test_div_scalar;
    ] )
