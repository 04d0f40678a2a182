(* `ivtool explain`: golden provenance reports for the paper's figure
   programs. Full-text equality — the report *is* the user-facing
   surface, so its wording and layout are pinned here. *)

let engine () = Service.Engine.create ()

(* The provenance goldens below pin the text before the [== ranges ==]
   section (the ranges surface has its own goldens at the bottom). *)
let before_ranges report =
  let marker = "== ranges ==" in
  let ml = String.length marker and rl = String.length report in
  let rec find i =
    if i + ml > rl then None
    else if String.sub report i ml = marker then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub report 0 i | None -> report

let check_report name ?var src expected =
  match Service.Explain.run ?var (engine ()) src with
  | Ok report ->
    Alcotest.(check string) name expected (before_ranges report);
    Alcotest.(check bool) (name ^ ": has ranges section") true
      (Helpers.contains report "== ranges ==")
  | Error msg -> Alcotest.failf "%s: explain failed: %s" name msg

(* Figure 1: mutual j/i updates through one phi — the basic IV family. *)
let test_fig1 () =
  check_report "fig1"
    "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n"
    "== loop L7 ==\n\
     scr {j2, j3, i1}  shape: single-phi-cycle\n\
    \  rule: cycle length 3 through a single phi, cumulative effect v' = v + d with d loop-invariant => basic IV family (sec 3.1)\n\
    \  j2       (L7, n, c + k)\n\
    \  j3       (L7, c + k + n, c + k)\n\
    \  i1       (L7, c + n, c + k)\n"

(* Figure 3: the same increment on both branches still classifies. *)
let test_fig3 () =
  check_report "fig3"
    "i = 1\nL8: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 2\n  endif\nendloop\nA(i) = 1\n"
    "== loop L8 ==\n\
     scr {i2, i5, i4, i3}  shape: single-phi-cycle\n\
    \  rule: cycle length 4 through a single phi, cumulative effect v' = v + d with d loop-invariant => basic IV family (sec 3.1)\n\
    \  i2       (L8, 1, 2)\n\
    \  i5       (L8, 3, 2)\n\
    \  i4       (L8, 3, 2)\n\
    \  i3       (L8, 3, 2)\n\
     scr {%1}  shape: singleton\n\
    \  rule: random value: unknowable\n\
    \  %1       unknown\n"

(* Figure 4: wrap-around variables k and j trailing the basic IV i. *)
let test_fig4 () =
  check_report "fig4"
    "k = 9\nj = 8\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\nendloop\n"
    "== loop L10 ==\n\
     scr {i2, i3}  shape: single-phi-cycle\n\
    \  rule: cycle length 2 through a single phi, cumulative effect v' = v + d with d loop-invariant => basic IV family (sec 3.1)\n\
    \  i2       (L10, 1, 1)\n\
    \  i3       (L10, 2, 1)\n\
     scr {j2}  shape: lone-header-phi\n\
    \  rule: header phi alone in its region, carried value classified => wrap-around of the carried class, delayed one iteration (sec 4.1)\n\
    \  j2       wrap(L10, order 1, [8], (L10, 1, 1))\n\
     scr {k2}  shape: lone-header-phi\n\
    \  rule: header phi alone in its region, carried value classified => wrap-around of the carried class, delayed one iteration (sec 4.1)\n\
    \  k2       wrap(L10, order 2, [9; 8], (L10, 1, 1))\n\
     scr {%5}  shape: singleton\n\
    \  rule: array load: value not tracked\n\
    \  %5       unknown\n\
     scr {%7}  shape: singleton\n\
    \  rule: array load: value not tracked\n\
    \  %7       unknown\n\
     scr {%8}  shape: singleton\n\
    \  rule: operator algebra on add of classified operands (sec 5.1)\n\
    \  %8       unknown\n\
     scr {%9}  shape: singleton\n\
    \  rule: store passes its value through\n\
    \  %9       unknown\n"

(* Figure 4 filtered to one variable: only j2's SCR is reported. *)
let test_fig4_var () =
  check_report "fig4 j2" ~var:"j2"
    "k = 9\nj = 8\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\nendloop\n"
    "== loop L10 ==\n\
     scr {j2}  shape: lone-header-phi\n\
    \  rule: header phi alone in its region, carried value classified => wrap-around of the carried class, delayed one iteration (sec 4.1)\n\
    \  j2       wrap(L10, order 1, [8], (L10, 1, 1))\n"

(* Figure 5: a three-phi rotation — the periodic family. *)
let test_fig5 () =
  check_report "fig5"
    "j = 1\nk = 2\nl = 3\nL13: loop\n  t = j\n  j = k\n  k = l\n  l = t\n  A(j) = A(k)\nendloop\n"
    "== loop L13 ==\n\
     scr {l2, j2, k2}  shape: phi-cycle\n\
    \  rule: cycle of 3 loop-header phis, carried edges close a rotation with invariant entries => periodic family, period 3 (sec 4.2)\n\
    \  l2       periodic(L13, period 3, phase 2, [1; 2; 3])\n\
    \  j2       periodic(L13, period 3, phase 0, [1; 2; 3])\n\
    \  k2       periodic(L13, period 3, phase 1, [1; 2; 3])\n\
     scr {%13}  shape: singleton\n\
    \  rule: array load: value not tracked\n\
    \  %13      unknown\n\
     scr {%14}  shape: singleton\n\
    \  rule: store passes its value through\n\
    \  %14      unknown\n"

(* Figure 6: differently signed-consistent branches — monotonic. *)
let test_fig6 () =
  check_report "fig6"
    "k = 0\nL16: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k + 2\n  endif\nendloop\nA(k) = 1\n"
    "== loop L16 ==\n\
     scr {k2, k5, k4, k3}  shape: single-phi-cycle\n\
    \  rule: not affine in the phi, but every back-edge path accumulates a consistently signed increment => monotonic family (sec 4.4)\n\
    \  k2       monotonic(L16, increasing, strict)\n\
    \  k5       monotonic(L16, increasing, strict)\n\
    \  k4       monotonic(L16, increasing, strict)\n\
    \  k3       monotonic(L16, increasing, strict)\n\
     scr {%1}  shape: singleton\n\
    \  rule: random value: unknowable\n\
    \  %1       unknown\n"

(* The kitchen-sink loop: polynomial, geometric and algebra rules all
   fire, each naming its closed form and paper section. *)
let test_polynomial_geometric () =
  check_report "poly-geo"
    "j = 1\nk = 1\nl = 1\nm = 0\nL14: for i = 1 to n loop\n  j = j + i\n  k = k + j + 1\n  l = l * 2 + 1\n  m = 3 * m + 2 * i + 1\nendloop\nA(j) = k + l + m\n"
    "== loop L14 ==\n\
     scr {i2, i3}  shape: single-phi-cycle\n\
    \  rule: cycle length 2 through a single phi, cumulative effect v' = v + d with d loop-invariant => basic IV family (sec 3.1)\n\
    \  i2       (L14, 1, 1)\n\
    \  i3       (L14, 2, 1)\n\
     scr {%26}  shape: singleton\n\
    \  rule: operator algebra on mul of classified operands (sec 5.1)\n\
    \  %26      (L14, 2, 2)\n\
     scr {m2, m3, %27, %24}  shape: single-phi-cycle\n\
    \  rule: cumulative effect v' = 3*v + p(h) => geometric with ratio 3 (sec 4.3)\n\
    \  m2       (L14, -2, -1 | 2*3^h)\n\
    \  m3       (L14, -3, -1 | 6*3^h)\n\
    \  %27      (L14, -4, -1 | 6*3^h)\n\
    \  %24      (L14, -6, -3 | 6*3^h)\n\
     scr {l2, l3, %20}  shape: single-phi-cycle\n\
    \  rule: cumulative effect v' = 2*v + p(h) => geometric with ratio 2 (sec 4.3)\n\
    \  l2       (L14, -1 | 2*2^h)\n\
    \  l3       (L14, -1 | 4*2^h)\n\
    \  %20      (L14, -2 | 4*2^h)\n\
     scr {j3, j2}  shape: single-phi-cycle\n\
    \  rule: cumulative effect v' = v + p(h) with deg p = 1, matrix inverted (rank 3) => polynomial degree 2 (sec 4.3)\n\
    \  j3       (L14, 2, 3/2, 1/2)\n\
    \  j2       (L14, 1, 1/2, 1/2)\n\
     scr {k2, k3, %16}  shape: single-phi-cycle\n\
    \  rule: cumulative effect v' = v + p(h) with deg p = 2, matrix inverted (rank 4) => polynomial degree 3 (sec 4.3)\n\
    \  k2       (L14, 1, 7/3, 1/2, 1/6)\n\
    \  k3       (L14, 4, 23/6, 1, 1/6)\n\
    \  %16      (L14, 3, 23/6, 1, 1/6)\n\
     scr {%9}  shape: singleton\n\
    \  rule: relational result is not an integer sequence\n\
    \  %9       unknown\n"

(* --- error paths --- *)

let test_unknown_var () =
  match
    Service.Explain.run ~var:"zz9" (engine ())
      "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n"
  with
  | Ok r -> Alcotest.failf "expected an error, got report:\n%s" r
  | Error msg ->
    Alcotest.(check bool) "names the variable" true (Helpers.contains msg "zz9")

let test_parse_error () =
  match Service.Explain.run (engine ()) "loop loop loop" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

(* Explain must bypass the engine cache: a warm engine still reports. *)
let test_warm_engine () =
  let e = engine () in
  let src = "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n" in
  (match Service.Engine.classify e src with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "priming classify failed: %s" msg);
  match Service.Explain.run e src with
  | Ok report ->
    Alcotest.(check bool) "still reports after a cache hit" true
      (Helpers.contains report "basic IV family (sec 3.1)")
  | Error msg -> Alcotest.failf "explain on warm engine failed: %s" msg

(* Explain classifies afresh without touching the engine's entries: no
   invalidation, and the next classify of the source is a memory hit. *)
let test_explain_keeps_cache () =
  let e = engine () in
  let src = "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n" in
  let classify_tiers () =
    List.find_map
      (fun (a, mem, _, computed) ->
        if a = Service.Engine.Classify then Some (mem, computed) else None)
      (Service.Engine.artifact_stats e)
  in
  ignore (Service.Engine.classify e src);
  let invalidations () = (Service.Engine.cache_stats e).Service.Cache.invalidations in
  let before = invalidations () in
  (match Service.Explain.run e src with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "explain failed: %s" msg);
  Alcotest.(check int) "no invalidation" before (invalidations ());
  ignore (Service.Engine.classify e src);
  Alcotest.(check (option (pair int int))) "classify: one memory hit, one computed"
    (Some (1, 1)) (classify_tiers ())

(* --- the ranges section, text and JSON --- *)

let ranges_src =
  "array A(10)\nL1: for i = 1 to 10 loop\n  A(i) = i\nendloop\n"

(* Full-text golden including the ranges section and the bounds-check
   classification it licenses. *)
let test_ranges_section () =
  match Service.Explain.run (engine ()) ranges_src with
  | Error msg -> Alcotest.failf "explain failed: %s" msg
  | Ok report ->
    Alcotest.(check string) "ranges golden"
      "== loop L1 ==\n\
       scr {i2, i3}  shape: single-phi-cycle\n\
      \  rule: cycle length 2 through a single phi, cumulative effect v' = v + d with d loop-invariant => basic IV family (sec 3.1)\n\
      \  i2       (L1, 1, 1)\n\
      \  i3       (L1, 2, 1)\n\
       scr {%4}  shape: singleton\n\
      \  rule: relational result is not an integer sequence\n\
      \  %4       unknown\n\
       scr {%7}  shape: singleton\n\
      \  rule: store passes its value through\n\
      \  %7       (L1, 1, 1)\n\
       == ranges ==\n\
       ranges: fixpoint after 5 rounds\n\
      \  %4       [0, 1]\n\
      \  %7       [1, 11]  body [1, 10]\n\
      \  i3       [2, 12]  body [2, 11]\n\
      \  i2       [1, 11]  body [1, 10]\n\
      \  A store dim 0: [1, 10] within 1:10 -> eliminated\n\
       bounds checks: 1 eliminated, 0 retained\n"
      report

let test_ranges_json () =
  match Service.Explain.run ~json:true (engine ()) ranges_src with
  | Error msg -> Alcotest.failf "explain --json failed: %s" msg
  | Ok payload -> (
    match Obs.Json.parse_result payload with
    | Error e -> Alcotest.failf "payload is not JSON: %s" e
    | Ok j ->
      Alcotest.(check bool) "has scrs" true (Obs.Json.member "scrs" j <> None);
      Alcotest.(check bool) "has ranges" true
        (Obs.Json.member "ranges" j <> None);
      Alcotest.(check bool) "has bounds" true
        (Obs.Json.member "bounds" j <> None);
      Alcotest.(check bool) "counts one eliminated check" true
        (Helpers.contains payload "\"eliminated\":1"))

let suite =
  ( "explain",
    [
      Helpers.case "fig1 basic IVs" test_fig1;
      Helpers.case "fig3 branch join" test_fig3;
      Helpers.case "fig4 wrap-around" test_fig4;
      Helpers.case "fig4 filtered to j2" test_fig4_var;
      Helpers.case "fig5 periodic rotation" test_fig5;
      Helpers.case "fig6 monotonic" test_fig6;
      Helpers.case "polynomial and geometric" test_polynomial_geometric;
      Helpers.case "unknown variable is an error" test_unknown_var;
      Helpers.case "parse error propagates" test_parse_error;
      Helpers.case "warm engine cache is bypassed" test_warm_engine;
      Helpers.case "engine cache is left intact" test_explain_keeps_cache;
      Helpers.case "ranges section golden" test_ranges_section;
      Helpers.case "ranges JSON payload" test_ranges_json;
    ] )
