(* Nested loops (paper §5.3): exit values, multiloop induction variables,
   and the triangular example of Figure 9. *)

module Pipeline = Analysis.Pipeline
module Ivclass = Analysis.Ivclass

let fig78 = {|
k = 0
L17: loop
  i = 1
  L18: loop
    k = k + 2
    if i > 100 exit
    i = i + 1
  endloop
  k = k + 2
endloop
|}

let test_fig78_classification () =
  Helpers.check_classes fig78
    [
      (* Inner loop: multiloop IVs with the outer classification nested
         in the initial value slot (the paper's Fig 8 result). *)
      ("k3", "(L18, (L17, 0, 204), 2)");
      ("k4", "(L18, (L17, 2, 204), 2)");
      ("i2", "(L18, 1, 1)");
      ("i3", "(L18, 2, 1)");
      (* Outer loop: k2 = (L17, 0, 204) and k5 = (L17, 204, 204). *)
      ("k2", "(L17, 0, 204)");
      ("k5", "(L17, 204, 204)");
    ]

let test_fig78_trip_and_exit_values () =
  let t = Helpers.analyze fig78 in
  let ssa = t.Pipeline.ssa in
  let loops = Ir.Ssa.loops ssa in
  let l18 = Option.get (Ir.Loops.find_by_name loops "L18") in
  (* Trip count 100 (the exit test is below k's increment). *)
  Alcotest.(check (option int)) "trip count" (Some 100)
    (Analysis.Trip_count.count_int (Pipeline.trip_count t l18.Ir.Loops.id));
  (* Exit value of k4 is k2 + 202 (k4 executes 101 times, paper's kG);
     exit value of i3 is 101. *)
  let exit_of name =
    match Ir.Ssa.def_of_name ssa name with
    | Some id -> Option.map Analysis.Sym.to_string (Pipeline.exit_value t id)
    | None -> None
  in
  (match Ir.Ssa.def_of_name ssa "k2" with
   | Some k2 ->
     Alcotest.(check (option string)) "k4 exit" (Some (Printf.sprintf "202 + %%%d" k2))
       (exit_of "k4")
   | None -> Alcotest.fail "k2 missing");
  Alcotest.(check (option string)) "i3 exit" (Some "101") (exit_of "i3")

let fig9 = {|
j = 0
L19: for i = 1 to n loop
  j = j + i
  L20: for k = 1 to i loop
    j = j + 1
  endloop
endloop
|}

let test_fig9_quadratic () =
  Helpers.check_classes fig9
    [
      ("j2", "(L19, 0, 1, 1)");
      ("j3", "(L19, 1, 2, 1)");
      ("i2", "(L19, 1, 1)");
      (* Inner loop: linear IVs whose base is the outer quadratic (the
         paper's j4 = (L20, (L19, 1, ...), 1)). *)
      ("j4", "(L20, (L19, 1, 2, 1), 1)");
      ("j5", "(L20, (L19, 2, 2, 1), 1)");
      ("k2", "(L20, 1, 1)");
    ]

let test_fig9_symbolic_trip () =
  let t = Helpers.analyze fig9 in
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  let l20 = Option.get (Ir.Loops.find_by_name loops "L20") in
  let trip = Pipeline.trip_count t l20.Ir.Loops.id in
  (match trip.Analysis.Trip_count.count with
   | Analysis.Trip_count.Symbolic _ -> ()
   | _ -> Alcotest.fail "expected symbolic trip count");
  Alcotest.(check bool) "assumes positive" true trip.Analysis.Trip_count.assumes_positive

let test_three_deep () =
  (* Three levels: the innermost step cascades out to a cubic... here we
     keep all bounds constant so the totals are exact linear nests. *)
  let src = {|
s = 0
L1: for i = 1 to 4 loop
  L2: for j = 1 to 3 loop
    L3: for k = 1 to 2 loop
      s = s + 1
    endloop
  endloop
endloop
A(0) = s
|} in
  let t = Helpers.analyze src in
  (* s increments 2 per L3 activation -> 6 per L2 activation -> 24 total:
     outer classification (L1, 0, 6). *)
  Helpers.check_class t "s2" "(L1, 0, 6)";
  (* And the innermost phi is a multiloop IV nested two deep. *)
  match Pipeline.class_of_name t "s4" with
  | Some (Ivclass.Linear { base = Ivclass.Linear { base = Ivclass.Linear _; _ }; _ }) -> ()
  | Some c -> Alcotest.failf "expected doubly nested linear, got %s" (Pipeline.class_to_string t c)
  | None -> Alcotest.fail "s4 not found"

let test_inner_unknown_poisons_outer () =
  (* A non-countable inner loop makes the outer accumulation unknown. *)
  let src = {|
k = 0
L1: loop
  L2: loop
    k = k + 1
    if ?? exit
  endloop
  A(k) = 1
  if ?? exit
endloop
|} in
  let t = Helpers.analyze src in
  Alcotest.(check (option string)) "outer k unknown" (Some "unknown")
    (Option.map (Pipeline.class_to_string t) (Pipeline.class_of_name t "k2"))

let test_countable_inner_with_outer_invariant_bound () =
  let src = {|
s = 0
L1: for i = 1 to n loop
  L2: for j = 1 to 5 loop
    s = s + 2
  endloop
endloop
A(0) = s
|} in
  Helpers.check_classes src [ ("s2", "(L1, 0, 10)") ]

let test_exit_value_of_conditional_def_absent () =
  (* Defs that do not execute on every iteration have no exit value. *)
  let src = {|
k = 0
L1: loop
  L2: for i = 1 to 10 loop
    if ?? then
      k = i * 2
    endif
  endloop
  A(k) = 1
  if ?? exit
endloop
|} in
  let t = Helpers.analyze src in
  let ssa = t.Pipeline.ssa in
  (* The store inside the conditional is classified (it is i*2, linear in
     L2) but executes on some iterations only: no exit value. *)
  let conditional_def =
    let found = ref None in
    Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
        match i.Ir.Instr.op with
        | Ir.Instr.Binop Ir.Ops.Mul -> found := Some i.Ir.Instr.id
        | _ -> ());
    !found
  in
  match conditional_def with
  | Some id ->
    (match Pipeline.class_of t id with
     | Ivclass.Linear _ -> ()
     | c -> Alcotest.failf "expected linear, got %s" (Pipeline.class_to_string t c));
    Alcotest.(check bool) "no exit value" true (Pipeline.exit_value t id = None)
  | None -> Alcotest.fail "multiply not found"

let suite =
  ( "nested",
    [
      Helpers.case "Fig 7/8 classification" test_fig78_classification;
      Helpers.case "Fig 7/8 trip count and exit values" test_fig78_trip_and_exit_values;
      Helpers.case "Fig 9 quadratic family" test_fig9_quadratic;
      Helpers.case "Fig 9 symbolic trip count" test_fig9_symbolic_trip;
      Helpers.case "three-deep nest" test_three_deep;
      Helpers.case "uncountable inner loop" test_inner_unknown_poisons_outer;
      Helpers.case "countable inner, symbolic outer" test_countable_inner_with_outer_invariant_bound;
      Helpers.case "conditional defs have no exit value" test_exit_value_of_conditional_def_absent;
    ] )
