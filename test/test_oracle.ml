(* The classification soundness oracle: every non-Unknown classification
   must agree with what the reference interpreter observes, on the whole
   paper corpus and on randomly generated programs. *)

let corpus =
  [
    ( "fig1",
      "j = n\nL7: loop\n  i = j + c\n  j = i + k\n  if ?? exit\nendloop\nA(j) = i" );
    ( "fig3",
      "i = 1\nL8: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 2\n  endif\n  if ?? exit\nendloop\nA(i) = 1" );
    ( "fig4",
      "k = 9\nj = 8\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\n  if i > 30 exit\nendloop" );
    ( "fig5",
      "j = 1\nk = 2\nl = 3\nt = 0\nL13: loop\n  A(t) = 1\n  t = j\n  j = k\n  k = l\n  l = t\n  B(j) = A(k)\n  if ?? exit\nendloop" );
    ( "fig6",
      "k = 0\nL16: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k + 2\n  endif\n  if k > 40 exit\nendloop\nA(k) = 1" );
    ( "fig10",
      "k = 0\nL15: for i = 1 to 25 loop\n  F(k) = A(i)\n  if ?? then\n    C(k) = D(i)\n    k = k + 1\n    B(k) = A(i)\n    E(i) = B(k)\n  endif\n  G(i) = F(k)\nendloop" );
    ( "l14",
      "j = 1\nk = 1\nl = 1\nm = 0\nL14: for i = 1 to 12 loop\n  j = j + i\n  k = k + j + 1\n  l = l * 2 + 1\n  m = 3 * m + 2 * i + 1\nendloop\nA(j) = k + l + m" );
    ( "l12",
      "j = 1\njold = 2\nL12: for iter = 1 to 9 loop\n  j = 3 - j\n  jold = 3 - jold\n  A(j) = jold\nendloop" );
    ( "fig78",
      "k = 0\nL17: loop\n  i = 1\n  L18: loop\n    k = k + 2\n    if i > 20 exit\n    i = i + 1\n  endloop\n  k = k + 2\n  if k > 500 exit\nendloop\nA(k) = 1" );
    ( "fig9",
      "j = 0\nL19: for i = 1 to 10 loop\n  j = j + i\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop\nA(j) = 1" );
    ( "wrap-promotion",
      "k = -1\nj = 0\ni = 1\nL10: loop\n  A(k) = A(j)\n  k = j\n  j = i\n  i = i + 1\n  if i > 25 exit\nendloop" );
    ( "geometric-exp",
      "p = 1\nL1: for i = 0 to 8 loop\n  p = 2 ^ i\n  A(p) = 1\nendloop" );
    ( "decreasing",
      "k = 100\nL1: loop\n  if ?? then\n    k = k - 1\n  else\n    k = k - 3\n  endif\n  if k < 5 exit\nendloop\nA(k) = 1" );
    ( "multi-step",
      "x = 0\nL1: for i = 1 to 15 loop\n  x = x + 2\n  x = x + 3\nendloop\nA(x) = 1" );
    ( "neg-flip",
      "v = 7\nL1: for i = 1 to 9 loop\n  v = 0 - v\n  A(v) = i\nendloop" );
    ( "exact-division",
      "L1: for i = 0 to 20 loop\n  x = i * 6 / 3\n  A(x) = 1\nendloop" );
    ( "three-deep",
      "s = 0\nL1: for i = 1 to 4 loop\n  L2: for j = 1 to 3 loop\n    L3: for k = 1 to 2 loop\n      s = s + 1\n    endloop\n  endloop\nendloop\nA(0) = s" );
    ( "symbolic-steps",
      "i = 0\nL3: loop\n  i = i + 1\n  j = i\n  L4: for x = 1 to 5 loop\n    j = j + i\n  endloop\n  A(j) = 1\n  if i > 12 exit\nendloop" );
    ( "multi-exit-bounded",
      "i = 0\nT: loop\n  i = i + 1\n  if i > 30 exit\n  if ?? exit\n  A(i) = i\nendloop" );
    ( "mixed-strided",
      "a = 0\nb = 100\nL1: for i = 1 to 20 loop\n  a = a + 3\n  b = b - 7\n  A(a) = b\nendloop" );
  ]

let test_corpus () =
  let state = Random.State.make [| 7 |] in
  let rand () = Random.State.bool state in
  let params x =
    match Ir.Ident.name x with "n" -> 17 | "c" -> 3 | "k" -> 5 | _ -> 1
  in
  List.iter
    (fun (name, src) ->
      let checked, failures = Helpers.oracle_check ~params ~rand src in
      (match failures with
       | [] -> ()
       | f :: _ ->
         Alcotest.failf "%s: %d oracle failures, first: %s" name (List.length failures) f);
      if checked = 0 then Alcotest.failf "%s: oracle made no checks" name)
    corpus

let test_corpus_many_seeds () =
  (* Opaque '??' conditions take different paths under different seeds;
     monotonic classifications must hold under all of them. *)
  List.iter
    (fun seed ->
      let state = Random.State.make [| seed |] in
      let rand () = Random.State.bool state in
      List.iter
        (fun (name, src) ->
          let _, failures = Helpers.oracle_check ~rand ~params:(fun _ -> 6) src in
          match failures with
          | [] -> ()
          | f :: _ -> Alcotest.failf "%s (seed %d): %s" name seed f)
        corpus)
    [ 1; 2; 3; 4; 5 ]

(* Monotonic regions whose members do not all move with the header phi:
   an if-join of two family members at different offsets, members the
   back edge can bypass (one with an offset wider than the header's
   least step), and a multiply-region member likewise bypassed. Each
   once claimed a monotonicity the interpreter refutes. *)
let monotonic_offsets =
  [
    ( "join of family members",
      "k = 0\nL1: for i = 1 to 8 loop\n  m = k\n  if i == 2 then\n    m = k - 4\n    k = k - 1\n  endif\n  A(m) = 0\nendloop",
      [ ("m3", "unknown"); ("k3", "monotonic(L1, decreasing, strict)") ] );
    ( "bypassed member",
      "d = 0\nL1: for i = 1 to 6 loop\n  b = d - 4\n  if i > 3 then\n    d = b\n  endif\n  A(b) = 0\nendloop",
      [ ("b1", "monotonic(L1, decreasing)") ] );
    ( "bypassed member with a wide offset",
      "d = 0\nL1: for i = 1 to 6 loop\n  b = d\n  if i == 1 then\n    b = d + 6\n  endif\n  if d > 2 then\n    d = b\n  endif\n  A(b) = 0\nendloop",
      [ ("b3", "unknown"); ("d4", "monotonic(L1, increasing)") ] );
    ( "bypassed multiply member",
      "d = 0\nL1: for i = 1 to 6 loop\n  c = d\n  if i == 1 then\n    c = d * 2 + 4\n  endif\n  if i > 2 then\n    d = d + c\n  endif\nendloop",
      [ ("c3", "unknown"); ("d3", "monotonic(L1, increasing)") ] );
  ]

let test_monotonic_offsets () =
  List.iter
    (fun (name, src, classes) ->
      (match snd (Helpers.oracle_check src) with
       | [] -> ()
       | f :: _ -> Alcotest.failf "%s: %s" name f);
      Helpers.check_classes src classes)
    monotonic_offsets

let prop_random_programs =
  Helpers.qtest ~count:150 "random programs satisfy the oracle" Gen.gen_program
    (fun p ->
      let src = Ir.Ast.to_string p in
      let state = Random.State.make [| Hashtbl.hash src |] in
      let rand () = Random.State.bool state in
      let _, failures = Helpers.oracle_check ~fuel:200_000 ~rand src in
      match failures with
      | [] -> true
      | f :: _ -> QCheck2.Test.fail_reportf "program:\n%s\noracle: %s" src f)

let prop_random_programs_check_coverage =
  (* Guard against the oracle silently checking nothing: across many
     random programs, most must produce at least one checked prediction. *)
  let covered = ref 0 in
  let total = ref 0 in
  let t =
    Helpers.qtest ~count:100 "oracle coverage on random programs" Gen.gen_program
      (fun p ->
        let src = Ir.Ast.to_string p in
        let checked, _ = Helpers.oracle_check ~fuel:200_000 src in
        incr total;
        if checked > 0 then incr covered;
        true)
  in
  let finale =
    Helpers.case "oracle coverage ratio" (fun () ->
        if !total > 0 && !covered * 10 < !total * 5 then
          Alcotest.failf "only %d/%d random programs produced checks" !covered !total)
  in
  (t, finale)

let suite =
  let coverage_prop, coverage_check = prop_random_programs_check_coverage in
  ( "oracle",
    [
      Helpers.case "paper corpus" test_corpus;
      Helpers.case "paper corpus, many seeds" test_corpus_many_seeds;
      prop_random_programs;
      coverage_prop;
      coverage_check;
      Helpers.case "monotonic members off the header's offset" test_monotonic_offsets;
    ] )
