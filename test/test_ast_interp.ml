(* Cross-validation of the two interpreters: the direct AST interpreter
   and the SSA-level interpreter must observe identical array footprints
   on the same programs — validating lowering + SSA construction against
   the language's direct semantics. *)

let footprints ?(params = fun _ -> 0) ?(seed = 0) src =
  let ast = Ir.Parser.parse src in
  let rand_stream () =
    let state = Random.State.make [| seed |] in
    fun () -> Random.State.bool state
  in
  let st_ast, outcome_ast =
    Ir.Ast_interp.run ~fuel:300_000 ~params ~rand:(rand_stream ()) ast
  in
  let ssa = Ir.Ssa.of_program ast in
  let st_ssa = Ir.Interp.run ~fuel:600_000 ~params ~rand:(rand_stream ()) ssa in
  let ssa_footprint =
    Hashtbl.fold
      (fun (a, idx) v acc -> (Ir.Ident.name a, idx, v) :: acc)
      st_ssa.Ir.Interp.arrays []
    |> List.sort compare
  in
  (Ir.Ast_interp.array_footprint st_ast, outcome_ast, ssa_footprint,
   st_ssa.Ir.Interp.outcome)

let check_equiv ?params ?seed src =
  let ast_fp, ast_out, ssa_fp, ssa_out = footprints ?params ?seed src in
  (match (ast_out, ssa_out) with
   | Ir.Ast_interp.Halted, Ir.Interp.Halted -> ()
   | Ir.Ast_interp.Out_of_fuel, Ir.Interp.Out_of_fuel -> ()
   | Ir.Ast_interp.Trapped a, Ir.Interp.Trapped (b, _) when a = b -> ()
   | _ -> Alcotest.failf "different termination for %S" src);
  if ast_out <> Ir.Ast_interp.Out_of_fuel then
    Alcotest.(check bool) ("same footprint: " ^ src) true (ast_fp = ssa_fp)

let test_corpus () =
  List.iter check_equiv
    [
      "A(0) = 1 + 2 * 3";
      "x = 5\nif x > 3 then A(0) = 1 else A(0) = 2 endif";
      "s = 0\nfor i = 1 to 10 loop\n  s = s + i\nendloop\nA(0) = s";
      "s = 0\nfor i = 10 to 1 by -3 loop\n  s = s + i\nendloop\nA(0) = s";
      "k = 0\nloop\n  k = k + 1\n  A(k) = k * k\n  if k > 6 exit\nendloop";
      "j = 1\nk = 2\nl = 3\nfor it = 1 to 5 loop\n  t = j\n  j = k\n  k = l\n  l = t\n  A(it) = j\nendloop";
      "s = 0\nfor i = 1 to 4 loop\n  for j = 1 to i loop\n    s = s + 1\n  endloop\nendloop\nA(0) = s";
      "A(3) = 7\nx = A(3)\nB(x) = x";
      "iml = n\nfor i = 1 to 6 loop\n  A(i) = A(iml) + 1\n  iml = i\nendloop";
      (* Both stop at the same trap, with the same cells written. *)
      "n = 4611686018427387903\nfor i = n - 2 to n loop\n  A(i) = A(i + 1)\nendloop";
      "x = 0\nfor i = 1 to 4 loop\n  A(i) = 3\n  B(i) = i / x\nendloop";
      "x = 0 - 4611686018427387903 - 1\nA(0) = 1\nA(1) = -x";
    ]

let test_params_and_seeds () =
  let src =
    "k = 0\nfor i = 1 to n loop\n  if ?? then\n    k = k + 1\n    B(k) = A(i)\n  endif\nendloop\nC(0) = k"
  in
  List.iter
    (fun seed ->
      check_equiv ~params:(fun x -> if Ir.Ident.name x = "n" then 12 else 0) ~seed src)
    [ 1; 2; 3; 4 ]

let test_exit_semantics () =
  (* exit leaves only the innermost loop. *)
  check_equiv
    "s = 0\nfor i = 1 to 3 loop\n  L2: loop\n    s = s + 1\n    if s > i exit\n  endloop\n  A(i) = s\nendloop"

let prop_interpreters_agree =
  Helpers.qtest ~count:120 "AST and SSA interpreters agree" Gen.gen_program (fun p ->
      let src = Ir.Ast.to_string p in
      let seed = Hashtbl.hash src in
      let ast_fp, ast_out, ssa_fp, _ = footprints ~seed src in
      if ast_out <> Ir.Ast_interp.Halted then true
      else if ast_fp = ssa_fp then true
      else QCheck2.Test.fail_reportf "footprints differ for:\n%s" src)

let suite =
  ( "ast-interp",
    [
      Helpers.case "corpus equivalence" test_corpus;
      Helpers.case "params and random seeds" test_params_and_seeds;
      Helpers.case "exit semantics" test_exit_semantics;
      prop_interpreters_agree;
    ] )
