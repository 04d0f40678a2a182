(* Every worked example of the paper, checked against its stated
   classification (DESIGN.md rows F1-F10 and the inline loops). *)

let check = Helpers.check_classes

let test_l1_basic () =
  (* "i = i + k" with invariant k: the canonical basic IV. *)
  check "i = i0\nL1: loop\n  i = i + k\nendloop\nA(i) = 1"
    [ ("i2", "(L1, i0, k)"); ("i3", "(L1, i0 + k, k)") ]

let test_l2_mutual () =
  (* Mutually-defined pair (paper loop L2). *)
  check "j = n\nL2: loop\n  i = j + c\n  j = i + k\nendloop"
    [
      ("j2", "(L2, n, c + k)");
      ("i1", "(L2, c + n, c + k)");
      ("j3", "(L2, c + k + n, c + k)");
    ]

let test_l3_l4_variant_step () =
  (* Inner IV whose step varies in the outer loop (paper L3/L4): still a
     linear IV of the inner loop, with symbolic step i. *)
  let t = Helpers.analyze {|
i = 0
L3: loop
  i = i + 1
  j = i
  L4: loop
    j = j + i
    if ?? exit
  endloop
  if ?? exit
endloop
|} in
  match Analysis.Pipeline.class_of_name t "j3" with
  | Some (Analysis.Ivclass.Linear { step; _ }) ->
    Alcotest.(check bool) "symbolic step" true (not (Analysis.Sym.is_const step))
  | Some c ->
    Alcotest.failf "expected linear, got %s" (Analysis.Pipeline.class_to_string t c)
  | None -> Alcotest.fail "j3 not found"

let test_fig1 () =
  check "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop"
    [ ("j2", "(L7, n, c + k)"); ("i1", "(L7, c + n, c + k)") ]

let test_fig3_conditional_same_offset () =
  (* Fig 3: both arms add 2; the endif phi still defines a linear IV. *)
  check
    "i = 1\nL8: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 2\n  endif\nendloop\nA(i) = 1"
    [ ("i2", "(L8, 1, 2)"); ("i3", "(L8, 3, 2)"); ("i4", "(L8, 3, 2)"); ("i5", "(L8, 3, 2)") ]

let test_fig3_different_offsets_not_linear () =
  (* Different increments per arm: not an IV (monotonic instead). *)
  let t =
    Helpers.analyze
      "i = 1\nL8: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 3\n  endif\nendloop\nA(i) = 1"
  in
  match Analysis.Pipeline.class_of_name t "i2" with
  | Some (Analysis.Ivclass.Monotonic m) ->
    Alcotest.(check bool) "increasing" true (m.Analysis.Ivclass.dir = Analysis.Ivclass.Increasing);
    Alcotest.(check bool) "strict" true m.Analysis.Ivclass.strict
  | Some c -> Alcotest.failf "expected monotonic, got %s" (Analysis.Pipeline.class_to_string t c)
  | None -> Alcotest.fail "i2 not found"

let test_fig4_wraparound () =
  (* k = j; j = i; i = i + 1: j is first-order, k second-order wrap. *)
  check
    "k = 9\nj = 8\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\nendloop"
    [
      ("i2", "(L10, 1, 1)");
      ("j2", "wrap(L10, order 1, [8], (L10, 1, 1))");
      ("k2", "wrap(L10, order 2, [9; 8], (L10, 1, 1))");
    ]

let test_fig4_promotion () =
  (* With initial values matching the sequence, wrap-arounds promote to
     plain IVs (the paper's jl = 0 remark). *)
  check
    "k = -1\nj = 0\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\nendloop"
    [ ("i2", "(L10, 1, 1)"); ("j2", "(L10, 0, 1)"); ("k2", "(L10, -1, 1)") ]

let test_fig5_periodic () =
  check
    "j = 1\nk = 2\nl = 3\nL13: loop\n  t = j\n  j = k\n  k = l\n  l = t\n  A(j) = A(k)\nendloop"
    [
      ("j2", "periodic(L13, period 3, phase 0, [1; 2; 3])");
      ("k2", "periodic(L13, period 3, phase 1, [1; 2; 3])");
      ("l2", "periodic(L13, period 3, phase 2, [1; 2; 3])");
    ]

let test_fig5_wrap_of_periodic () =
  (* t2 is not in the family: it is a wrap-around of a periodic value. *)
  let t =
    Helpers.analyze
      "t = 0\nj = 1\nk = 2\nl = 3\nL13: loop\n  A(t) = 1\n  t = j\n  j = k\n  k = l\n  l = t\nendloop"
  in
  match Analysis.Pipeline.class_of_name t "t2" with
  | Some (Analysis.Ivclass.Wrap { order = 1; inner = Analysis.Ivclass.Periodic _; _ }) -> ()
  | Some c -> Alcotest.failf "expected wrap of periodic, got %s" (Analysis.Pipeline.class_to_string t c)
  | None -> Alcotest.fail "t2 not found"

let test_fig6_monotonic_strict () =
  let t =
    Helpers.analyze
      "k = 0\nL16: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k + 2\n  endif\nendloop\nA(k) = 1"
  in
  List.iter
    (fun name ->
      match Analysis.Pipeline.class_of_name t name with
      | Some (Analysis.Ivclass.Monotonic m) ->
        Alcotest.(check bool) (name ^ " increasing") true
          (m.Analysis.Ivclass.dir = Analysis.Ivclass.Increasing);
        Alcotest.(check bool) (name ^ " strict") true m.Analysis.Ivclass.strict
      | Some c -> Alcotest.failf "%s: expected monotonic, got %s" name (Analysis.Pipeline.class_to_string t c)
      | None -> Alcotest.failf "%s not found" name)
    [ "k2"; "k3"; "k4"; "k5" ]

let test_fig10_mixed_strictness () =
  let t =
    Helpers.analyze
      {|
k = 0
L15: for i = 1 to n loop
  F(k) = A(i)
  if ?? then
    k = k + 1
    B(k) = A(i)
  endif
  G(i) = F(k)
endloop
|}
  in
  let strictness name =
    match Analysis.Pipeline.class_of_name t name with
    | Some (Analysis.Ivclass.Monotonic m) -> Some m.Analysis.Ivclass.strict
    | _ -> None
  in
  Alcotest.(check (option bool)) "k2 nonstrict" (Some false) (strictness "k2");
  Alcotest.(check (option bool)) "k3 strict" (Some true) (strictness "k3");
  Alcotest.(check (option bool)) "k4 nonstrict" (Some false) (strictness "k4")

let test_monotonic_decreasing () =
  let t =
    Helpers.analyze
      "k = 100\nL1: loop\n  if ?? then\n    k = k - 1\n  else\n    k = k - 3\n  endif\nendloop\nA(k) = 1"
  in
  match Analysis.Pipeline.class_of_name t "k2" with
  | Some (Analysis.Ivclass.Monotonic m) ->
    Alcotest.(check bool) "decreasing" true (m.Analysis.Ivclass.dir = Analysis.Ivclass.Decreasing);
    Alcotest.(check bool) "strict" true m.Analysis.Ivclass.strict
  | Some c -> Alcotest.failf "expected monotonic, got %s" (Analysis.Pipeline.class_to_string t c)
  | None -> Alcotest.fail "k2 not found"

let test_mixed_sign_not_monotonic () =
  let t =
    Helpers.analyze
      "k = 0\nL1: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k - 1\n  endif\nendloop\nA(k) = 1"
  in
  Alcotest.(check (option string)) "unknown" (Some "unknown")
    (Option.map (Analysis.Pipeline.class_to_string t) (Analysis.Pipeline.class_of_name t "k2"))

let test_l14_polynomials () =
  (* Loop L14 with the paper's initial values: the table of closed
     forms. j = (h^2+3h+4)/2, k = (h^3+6h^2+23h+24)/6, l = 2^(h+2)-1,
     m = 6*3^h - h - 3 (values of the post-increment definitions). *)
  check
    {|
j = 1
k = 1
l = 1
m = 0
L14: for i = 1 to n loop
  j = j + i
  k = k + j + 1
  l = l * 2 + 1
  m = 3 * m + 2 * i + 1
endloop
|}
    [
      ("i2", "(L14, 1, 1)");
      ("j3", "(L14, 2, 3/2, 1/2)");
      ("k3", "(L14, 4, 23/6, 1, 1/6)");
      ("l3", "(L14, -1 | 4*2^h)");
      ("m3", "(L14, -3, -1 | 6*3^h)");
    ]

let test_l12_flip_flop () =
  check "j = 1\njold = 2\nL12: for iter = 1 to n loop\n  j = 3 - j\n  jold = 3 - jold\nendloop\nA(j) = jold"
    [
      ("j2", "periodic(L12, period 2, phase 0, [1; 2])");
      ("jold2", "periodic(L12, period 2, phase 0, [2; 1])");
      ("j3", "periodic(L12, period 2, phase 0, [2; 1])");
      ("jold3", "periodic(L12, period 2, phase 0, [1; 2])");
    ]

let test_negative_ratio_flip () =
  (* i = -i is periodic with period 2 through the m = -1 rule. *)
  check "i = 5\nL1: for it = 1 to n loop\n  i = 0 - i\nendloop\nA(i) = 1"
    [ ("i2", "periodic(L1, period 2, phase 0, [5; -5])") ]

let test_geometric_exponent () =
  (* 2^i for linear i is a geometric induction variable (our EX rule);
     the loop-carried phi for p is then a wrap-around of it. *)
  let t = Helpers.analyze "p = 0\nL1: for i = 0 to n loop\n  p = 2 ^ i\nendloop\nA(p) = 1" in
  (match Analysis.Pipeline.class_of_name t "p3" with
   | Some (Analysis.Ivclass.Geometric g) ->
     Alcotest.(check string) "ratio" "2" (Bignum.Rat.to_string g.Analysis.Ivclass.ratio)
   | Some c -> Alcotest.failf "expected geometric, got %s" (Analysis.Pipeline.class_to_string t c)
   | None -> Alcotest.fail "p3 not found");
  match Analysis.Pipeline.class_of_name t "p2" with
  | Some (Analysis.Ivclass.Wrap { inner = Analysis.Ivclass.Geometric _; order = 1; _ }) -> ()
  | Some c -> Alcotest.failf "expected wrap of geometric, got %s" (Analysis.Pipeline.class_to_string t c)
  | None -> Alcotest.fail "p2 not found"

let test_division_invariant_only () =
  (* Integer division of an IV is classified only when provably exact. *)
  let t1 = Helpers.analyze "L1: for i = 0 to n loop\n  x = i * 4 / 2\n  A(x) = 1\nendloop" in
  Alcotest.(check (option string)) "exact division halves the step" (Some "(L1, 0, 2)")
    (Option.map (Analysis.Pipeline.class_to_string t1) (Analysis.Pipeline.class_of_name t1 "x1"));
  let t2 = Helpers.analyze "L1: for i = 0 to n loop\n  x = i / 2\n  A(x) = 1\nendloop" in
  Alcotest.(check (option string)) "inexact division unknown" (Some "unknown")
    (Option.map (Analysis.Pipeline.class_to_string t2) (Analysis.Pipeline.class_of_name t2 "x1"))

let test_invariant_classification () =
  let t = Helpers.analyze "c = n + 1\nL1: loop\n  x = c * 2\n  A(x) = 1\n  if ?? exit\nendloop" in
  match Analysis.Pipeline.class_of_name t "x1" with
  | Some (Analysis.Ivclass.Invariant _) -> ()
  | Some c -> Alcotest.failf "expected invariant, got %s" (Analysis.Pipeline.class_to_string t c)
  | None -> Alcotest.fail "x1 not found"

let test_aload_unknown () =
  let t = Helpers.analyze "L1: for i = 1 to n loop\n  x = A(i)\n  B(x) = 1\nendloop" in
  Alcotest.(check (option string)) "array load unknown" (Some "unknown")
    (Option.map (Analysis.Pipeline.class_to_string t) (Analysis.Pipeline.class_of_name t "x1"))

let test_step_zero_collapses () =
  (* An SCC whose net increment is zero is invariant after entry. *)
  check "x = 7\nL1: loop\n  x = x + 1\n  x = x - 1\n  if ?? exit\nendloop\nA(x) = 1"
    [ ("x2", "inv(7)") ]

let suite =
  ( "figures",
    [
      Helpers.case "L1 basic IV" test_l1_basic;
      Helpers.case "L2 mutual pair" test_l2_mutual;
      Helpers.case "L3/L4 variant step" test_l3_l4_variant_step;
      Helpers.case "Fig 1" test_fig1;
      Helpers.case "Fig 3 same offsets" test_fig3_conditional_same_offset;
      Helpers.case "Fig 3 different offsets" test_fig3_different_offsets_not_linear;
      Helpers.case "Fig 4 wrap-around" test_fig4_wraparound;
      Helpers.case "Fig 4 promotion" test_fig4_promotion;
      Helpers.case "Fig 5 periodic" test_fig5_periodic;
      Helpers.case "Fig 5 wrap of periodic" test_fig5_wrap_of_periodic;
      Helpers.case "Fig 6 strict monotonic" test_fig6_monotonic_strict;
      Helpers.case "Fig 10 mixed strictness" test_fig10_mixed_strictness;
      Helpers.case "monotonic decreasing" test_monotonic_decreasing;
      Helpers.case "mixed signs not monotonic" test_mixed_sign_not_monotonic;
      Helpers.case "L14 polynomial/geometric" test_l14_polynomials;
      Helpers.case "L12 flip-flop" test_l12_flip_flop;
      Helpers.case "negation flip-flop" test_negative_ratio_flip;
      Helpers.case "2^i geometric" test_geometric_exponent;
      Helpers.case "integer division" test_division_invariant_only;
      Helpers.case "invariant expressions" test_invariant_classification;
      Helpers.case "array loads unknown" test_aload_unknown;
      Helpers.case "zero net step" test_step_zero_collapses;
    ] )
