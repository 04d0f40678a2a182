(* First-iteration peeling (paper §4.1) and the wrap-around promotion it
   enables. *)

module Pipeline = Analysis.Pipeline

let l9 = "iml = n\nL9: for i = 1 to n loop\n  A(i) = A(iml) + 1\n  iml = i\nendloop"

let test_semantics_for () =
  let ast = Ir.Parser.parse l9 in
  let peeled = Transform.Peel.peel_named "L9" ast in
  List.iter
    (fun n ->
      let params x = if Ir.Ident.name x = "n" then n else 0 in
      Alcotest.(check bool)
        (Printf.sprintf "footprint n=%d" n)
        true
        (Helpers.array_footprint ~params ast = Helpers.array_footprint ~params peeled))
    [ 0; 1; 2; 10 ]

let test_semantics_infinite_loop () =
  let src = "k = 0\nL1: loop\n  k = k + 1\n  A(k) = k\n  if k > 7 exit\nendloop\nB(0) = k" in
  let ast = Ir.Parser.parse src in
  let peeled = Transform.Peel.peel_named "L1" ast in
  Alcotest.(check bool) "footprint equal" true
    (Helpers.array_footprint ast = Helpers.array_footprint peeled)

let test_exit_in_first_iteration () =
  (* An exit that fires during the peeled copy must skip the rest. *)
  let src = "k = 9\nL1: loop\n  if k > 5 exit\n  k = k + 1\n  A(k) = 1\nendloop\nB(0) = k" in
  let ast = Ir.Parser.parse src in
  let peeled = Transform.Peel.peel_named "L1" ast in
  Alcotest.(check bool) "footprint equal" true
    (Helpers.array_footprint ast = Helpers.array_footprint peeled)

let test_promotion_after_peel () =
  (* Before peeling iml is a wrap-around; after, it is promoted to a
     plain IV in the remaining loop (the paper's standard trick). *)
  let t = Helpers.analyze l9 in
  (match Pipeline.class_of_name t "iml2" with
   | Some (Analysis.Ivclass.Wrap { order = 1; _ }) -> ()
   | Some c -> Alcotest.failf "expected wrap before peel, got %s" (Pipeline.class_to_string t c)
   | None -> Alcotest.fail "iml2 missing");
  let peeled = Transform.Peel.peel_named "L9" (Ir.Parser.parse l9) in
  let t' = Pipeline.analyze (Ir.Ssa.of_program peeled) in
  (* In the peeled program the remaining loop's iml phi is linear. *)
  let found_linear = ref false in
  let ssa = t'.Pipeline.ssa in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      if
        Ir.Ssa.phi_var ssa i.Ir.Instr.id
        |> Option.map Ir.Ident.name
        |> ( = ) (Some "iml")
      then
        match Pipeline.class_of t' i.Ir.Instr.id with
        | Analysis.Ivclass.Linear _ -> found_linear := true
        | _ -> ());
  Alcotest.(check bool) "iml promoted to linear IV" true !found_linear

let test_peel_oracle () =
  (* The peeled program still satisfies the classification oracle. *)
  let peeled = Transform.Peel.peel_named "L9" (Ir.Parser.parse l9) in
  let src = Ir.Ast.to_string peeled in
  ignore
    (Helpers.oracle ~params:(fun x -> if Ir.Ident.name x = "n" then 11 else 0) src)

let test_peel_nested_target () =
  (* Peeling an inner loop of a nest. *)
  let src = "s = 0\nL1: for i = 1 to 4 loop\n  L2: for j = 1 to 3 loop\n    s = s + j\n  endloop\nendloop\nA(0) = s" in
  let ast = Ir.Parser.parse src in
  let peeled = Transform.Peel.peel_named "L2" ast in
  Alcotest.(check bool) "footprint equal" true
    (Helpers.array_footprint ast = Helpers.array_footprint peeled)

let prop_peel_preserves_semantics =
  Helpers.qtest ~count:60 "peeling the outer loop preserves semantics" Gen.gen_program
    (fun p ->
      let peeled = Transform.Peel.peel_named "GOUTER" p in
      let seed = Hashtbl.hash (Ir.Ast.to_string p) in
      let footprint ast =
        let state = Random.State.make [| seed |] in
        Helpers.halted_footprint
          ~rand:(fun () -> Random.State.bool state)
          (Ir.Ssa.of_program ast)
      in
      Helpers.preserves (footprint p) (footprint peeled))

let suite =
  ( "peel",
    [
      Helpers.case "for-loop semantics" test_semantics_for;
      Helpers.case "infinite-loop semantics" test_semantics_infinite_loop;
      Helpers.case "exit in first iteration" test_exit_in_first_iteration;
      Helpers.case "wrap-around promotion" test_promotion_after_peel;
      Helpers.case "peeled program satisfies oracle" test_peel_oracle;
      Helpers.case "peeling nested loops" test_peel_nested_target;
      prop_peel_preserves_semantics;
    ] )
