(* The §4.4 multiplication extension: "Multiply operations can also be
   allowed, such as 2*i+i, as long as the initial value of i is known." *)

module Pipeline = Analysis.Pipeline
module Ivclass = Analysis.Ivclass

let mono t name =
  match Pipeline.class_of_name t name with
  | Some (Ivclass.Monotonic m) -> Some (m.Ivclass.dir, m.Ivclass.strict)
  | _ -> None

let test_factorial () =
  (* k = k * i with i = 1, 2, 3, ...: the paper's factorial remark. The
     multiplier's lower bound is 1, so nondecreasing but not strict. *)
  let t =
    Helpers.analyze "k = 1\nL1: for i = 1 to 10 loop\n  k = k * i\nendloop\nA(k) = 1"
  in
  Alcotest.(check (option (pair bool bool))) "factorial monotonic"
    (Some (true, false))
    (Option.map (fun (d, s) -> (d = Ivclass.Increasing, s)) (mono t "k2"))

let test_doubling_positive () =
  (* k = k * 2 under a condition: conditional geometric growth is not an
     IV, but with k0 = 1 > 0 it is strictly increasing. *)
  let t =
    Helpers.analyze
      "k = 1\nL1: loop\n  if ?? then\n    k = k * 2\n  endif\n  A(k) = 1\n  if ?? exit\nendloop"
  in
  Alcotest.(check (option (pair bool bool))) "conditional doubling"
    (Some (true, false))
    (Option.map (fun (d, s) -> (d = Ivclass.Increasing, s)) (mono t "k2"))

let test_doubling_strict_inside () =
  (* Unconditional k = k * 3 + 1 is geometric (the affine path), not
     merely monotonic — the stronger class wins. *)
  let t =
    Helpers.analyze "k = 1\nL1: for i = 1 to 9 loop\n  k = k * 3 + 1\nendloop\nA(k) = 1"
  in
  match Pipeline.class_of_name t "k2" with
  | Some (Ivclass.Geometric _) -> ()
  | Some c -> Alcotest.failf "expected geometric, got %s" (Pipeline.class_to_string t c)
  | None -> Alcotest.fail "k2 missing"

let test_mul_with_add () =
  (* Mixed conditional arms: one multiplies by 2, one adds 5; k0 = 2 > 0:
     strictly increasing. *)
  let t =
    Helpers.analyze
      "k = 2\nL1: loop\n  if ?? then\n    k = k * 2\n  else\n    k = k + 5\n  endif\n  A(k) = 1\n  if k > 500 exit\nendloop"
  in
  Alcotest.(check (option (pair bool bool))) "mul/add arms"
    (Some (true, true))
    (Option.map (fun (d, s) -> (d = Ivclass.Increasing, s)) (mono t "k2"))

let test_zero_init_not_strict () =
  (* k0 = 0: multiplying never moves it, so only nonstrict. *)
  let t =
    Helpers.analyze
      "k = 0\nL1: loop\n  if ?? then\n    k = k * 2\n  else\n    k = k + 1\n  endif\n  A(k) = 1\n  if ?? exit\nendloop"
  in
  Alcotest.(check (option (pair bool bool))) "zero init"
    (Some (true, false))
    (Option.map (fun (d, s) -> (d = Ivclass.Increasing, s)) (mono t "k2"))

let test_negative_init_rejected () =
  (* Multiplying a negative value by 2 decreases it: must stay unknown. *)
  let t =
    Helpers.analyze
      "k = 0 - 5\nL1: loop\n  if ?? then\n    k = k * 2\n  else\n    k = k + 1\n  endif\n  A(k) = 1\n  if ?? exit\nendloop"
  in
  Alcotest.(check (option string)) "negative init" (Some "unknown")
    (Option.map (Pipeline.class_to_string t) (Pipeline.class_of_name t "k2"))

let test_negative_multiplier_rejected () =
  let t =
    Helpers.analyze
      "k = 1\nL1: loop\n  if ?? then\n    k = k * -2\n  else\n    k = k + 1\n  endif\n  A(k) = 1\n  if ?? exit\nendloop"
  in
  Alcotest.(check (option string)) "negative multiplier" (Some "unknown")
    (Option.map (Pipeline.class_to_string t) (Pipeline.class_of_name t "k2"))

let test_oracle_validates () =
  (* The interpreter confirms the monotonicity claims on real runs. *)
  List.iter
    (fun (src, params) -> Helpers.oracle_min ~params src 1)
    [
      ("k = 1\nL1: for i = 1 to 10 loop\n  k = k * i\nendloop\nA(k) = 1", fun _ -> 0);
      ( "k = 2\nL1: loop\n  if ?? then\n    k = k * 2\n  else\n    k = k + 5\n  endif\n  A(k) = 1\n  if k > 500 exit\nendloop",
        fun _ -> 0 );
    ]

let suite =
  ( "monotonic-mul",
    [
      Helpers.case "factorial" test_factorial;
      Helpers.case "conditional doubling" test_doubling_positive;
      Helpers.case "unconditional stays geometric" test_doubling_strict_inside;
      Helpers.case "mul and add arms" test_mul_with_add;
      Helpers.case "zero init nonstrict" test_zero_init_not_strict;
      Helpers.case "negative init rejected" test_negative_init_rejected;
      Helpers.case "negative multiplier rejected" test_negative_multiplier_rejected;
      Helpers.case "oracle validates" test_oracle_validates;
    ] )
