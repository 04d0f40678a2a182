(* The analysis driver: SCCP integration (ablation), global class
   resolution, exit-value bookkeeping, and report stability. *)

module Pipeline = Analysis.Pipeline
module Ivclass = Analysis.Ivclass
module Sym = Analysis.Sym

let test_sccp_ablation () =
  (* With constant propagation the computed bound folds and the step is
     the constant 5; without, the step stays symbolic. *)
  let src = "c = 2 + 3\nk = 0\nL1: loop\n  k = k + c\n  if k > 100 exit\nendloop\nA(k) = 1" in
  let with_sccp = Pipeline.analyze ~use_sccp:true (Ir.Ssa.of_source src) in
  (match Pipeline.class_of_name with_sccp "k2" with
   | Some (Ivclass.Linear { step; _ }) ->
     Alcotest.(check (option int)) "constant step" (Some 5) (Sym.const_int step)
   | Some c -> Alcotest.failf "expected linear, got %s" (Pipeline.class_to_string with_sccp c)
   | None -> Alcotest.fail "k2 missing");
  let without = Pipeline.analyze ~use_sccp:false (Ir.Ssa.of_source src) in
  match Pipeline.class_of_name without "k2" with
  | Some (Ivclass.Linear { step; _ }) ->
    Alcotest.(check bool) "symbolic step" true (Sym.const_int step = None)
  | Some c -> Alcotest.failf "expected linear, got %s" (Pipeline.class_to_string without c)
  | None -> Alcotest.fail "k2 missing"

let test_sccp_dead_branch_feeds_init () =
  (* SCCP proves the else-branch dead, so the phi's initial value is the
     constant 1 and the loop IV gets a constant base. *)
  let src = {|
flag = 1
if flag > 0 then
  k = 1
else
  k = 999
endif
L1: loop
  k = k + 1
  if k > 50 exit
endloop
A(k) = 1
|} in
  let t = Helpers.analyze src in
  match Pipeline.class_of_name t "k4" with
  | Some (Ivclass.Linear { base = Ivclass.Invariant b; _ }) ->
    Alcotest.(check (option int)) "constant base via dead-branch pruning" (Some 1)
      (Sym.const_int b)
  | Some c -> Alcotest.failf "expected linear, got %s" (Pipeline.class_to_string t c)
  | None -> Alcotest.fail "k4 missing (naming changed?)"

let test_class_of_outside_loops () =
  let src = "x = n + 1\nA(x) = x" in
  let t = Helpers.analyze src in
  let ssa = t.Pipeline.ssa in
  match Ir.Ssa.def_of_name ssa "x1" with
  | Some id -> (
    match Pipeline.class_of t id with
    | Ivclass.Invariant _ -> ()
    | c -> Alcotest.failf "expected invariant, got %s" (Pipeline.class_to_string t c))
  | None -> Alcotest.fail "x1 missing"

let test_global_class_resolution () =
  (* i - 1 computed inside the inner loop resolves to an outer-loop
     linear IV in the global frame. *)
  let src = {|
L1: for i = 1 to n loop
  L2: for j = 1 to n loop
    A(i - 1, j) = 1
  endloop
endloop
|} in
  let t = Helpers.analyze src in
  let refs = Dependence.Dep_graph.collect_refs t in
  match refs with
  | [ r ] -> (
    match r.Dependence.Dep_graph.subscripts with
    | [ dim1; _ ] -> (
      match dim1 with
      | Ivclass.Linear { base = Ivclass.Invariant b; step; _ } ->
        Alcotest.(check (option int)) "base 0" (Some 0) (Sym.const_int b);
        Alcotest.(check (option int)) "step 1" (Some 1) (Sym.const_int step)
      | c -> Alcotest.failf "expected linear, got %s" (Pipeline.class_to_string t c))
    | _ -> Alcotest.fail "expected two dimensions")
  | _ -> Alcotest.fail "expected one reference"

let test_exit_values_propagate () =
  let src = {|
total = 0
L1: loop
  s = 0
  L2: for i = 1 to 7 loop
    s = s + 3
  endloop
  total = total + s
  if total > 1000 exit
endloop
A(total) = 1
|} in
  let t = Helpers.analyze src in
  (* s's exit value is 21, so total is a linear IV of step 21. *)
  match Pipeline.class_of_name t "total2" with
  | Some (Ivclass.Linear { step; _ }) ->
    Alcotest.(check (option int)) "outer step from inner exit" (Some 21)
      (Sym.const_int step)
  | Some c -> Alcotest.failf "expected linear, got %s" (Pipeline.class_to_string t c)
  | None -> Alcotest.fail "total2 missing"

let test_report_contains_names_and_trips () =
  let t =
    Helpers.analyze
      "j = 0\nL19: for i = 1 to n loop\n  j = j + i\nendloop\nA(j) = 1"
  in
  let report = Pipeline.report_of t in
  let contains needle =
    let nl = String.length needle and rl = String.length report in
    let rec go i = i + nl <= rl && (String.sub report i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report mentions " ^ needle) true (contains needle))
    [ "L19"; "j2"; "trip count n" ]

let suite =
  ( "driver",
    [
      Helpers.case "SCCP ablation" test_sccp_ablation;
      Helpers.case "SCCP dead branches feed initial values" test_sccp_dead_branch_feeds_init;
      Helpers.case "defs outside loops" test_class_of_outside_loops;
      Helpers.case "global class resolution" test_global_class_resolution;
      Helpers.case "inner exit values drive outer steps" test_exit_values_propagate;
      Helpers.case "report format" test_report_contains_names_and_trips;
    ] )
