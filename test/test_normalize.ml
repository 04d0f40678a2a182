(* Loop normalization (paper §6.1): semantics preserved, and the
   SSA-based classification is identical before and after — the paper's
   point that this framework "implicitly normalizes all loops". *)

let l23_l24 = {|
L23: for i = 1 to n loop
  L24: for j = i + 1 to n loop
    A(i, j) = A(i - 1, j) + 1
  endloop
endloop
|}

let test_semantics_preserved () =
  let ast = Ir.Parser.parse l23_l24 in
  let normalized = Transform.Normalize.normalize ast in
  let params x = if Ir.Ident.name x = "n" then 7 else 0 in
  Alcotest.(check bool) "same array footprint" true
    (Helpers.array_footprint ~params ast = Helpers.array_footprint ~params normalized)

let test_semantics_preserved_strided () =
  let src = "for i = 2 to 17 by 3 loop\n  A(i) = i * 2\nendloop" in
  let ast = Ir.Parser.parse src in
  let normalized = Transform.Normalize.normalize ast in
  Alcotest.(check bool) "same array footprint" true
    (Helpers.array_footprint ast = Helpers.array_footprint normalized)

let test_negative_step () =
  let src = "for i = 10 to 1 by -2 loop\n  A(i) = i\nendloop" in
  let ast = Ir.Parser.parse src in
  let normalized = Transform.Normalize.normalize ast in
  Alcotest.(check bool) "same array footprint" true
    (Helpers.array_footprint ast = Helpers.array_footprint normalized)

(* Classifications of the array subscripts, as rendered global classes,
   for both versions of the loop nest. *)
let subscript_classes src =
  let t = Helpers.analyze src in
  let g = Dependence.Dep_graph.collect_refs t in
  List.concat_map
    (fun (r : Dependence.Dep_graph.array_ref) ->
      List.map
        (fun c ->
          (* Render with anonymous loop names so ids can differ. *)
          Analysis.Ivclass.to_string_with
            {
              Analysis.Ivclass.loop_name = (fun _ -> "L");
              atom_name = (fun _ -> "s");
            }
            c)
        r.Dependence.Dep_graph.subscripts)
    g

let test_classification_insensitive_to_shape () =
  (* The subscript classifications of the unnormalized and normalized
     nests are the same tuples (the paper's §6.1 conclusion). *)
  let normalized_src =
    Ir.Ast.to_string (Transform.Normalize.normalize (Ir.Parser.parse l23_l24))
  in
  Alcotest.(check (list string))
    "same subscript tuples"
    (subscript_classes l23_l24)
    (subscript_classes normalized_src)

let test_dependence_insensitive_to_shape () =
  let t1 = Helpers.analyze l23_l24 in
  let normalized_src =
    Ir.Ast.to_string (Transform.Normalize.normalize (Ir.Parser.parse l23_l24))
  in
  let t2 = Helpers.analyze normalized_src in
  let dists t =
    List.filter_map
      (fun (e : Dependence.Dep_graph.edge) ->
        match e.Dependence.Dep_graph.outcome with
        | Dependence.Deptest.Dependent d ->
          Option.map (List.map snd) d.Dependence.Deptest.distance
        | Dependence.Deptest.Independent -> None)
      (Dependence.Dep_graph.build t)
  in
  (* Both give the same iteration-space distance vector (1, -1). *)
  Alcotest.(check (list (list int))) "same distances" (dists t1) (dists t2);
  Alcotest.(check (list (list int))) "the triangular vector" [ [ 1; -1 ] ] (dists t1)

let test_index_rewritten () =
  (* After normalization the loop runs from 0 with step 1, and the body
     references i through the affine substitution. *)
  let normalized = Transform.Normalize.normalize (Ir.Parser.parse "for i = 3 to 20 by 2 loop\n  A(i) = 1\nendloop") in
  match normalized.Ir.Ast.stmts with
  | [ Ir.Ast.For { lo = Ir.Ast.Int 0; step = 1; _ } ] -> ()
  | _ -> Alcotest.fail "not normalized"

let test_body_assigning_index_rejected () =
  let ast = Ir.Parser.parse "for i = 1 to 5 loop\n  i = i + 1\nendloop" in
  Alcotest.(check bool) "rejected" true
    (match Transform.Normalize.normalize ast with
     | exception Invalid_argument _ -> true
     | _ -> false)

let prop_random_normalization_preserves_semantics =
  Helpers.qtest ~count:60 "normalization preserves semantics" Gen.gen_program (fun p ->
      (* Deterministic branches only: fix the random stream per program. *)
      let seed = Hashtbl.hash (Ir.Ast.to_string p) in
      let footprint ast =
        let state = Random.State.make [| seed |] in
        Helpers.halted_footprint
          ~rand:(fun () -> Random.State.bool state)
          (Ir.Ssa.of_program ast)
      in
      match Transform.Normalize.normalize p with
      | normalized -> Helpers.preserves (footprint p) (footprint normalized)
      | exception Invalid_argument _ -> true (* body assigns its index *))

let suite =
  ( "normalize",
    [
      Helpers.case "semantics preserved" test_semantics_preserved;
      Helpers.case "strided loop" test_semantics_preserved_strided;
      Helpers.case "negative step" test_negative_step;
      Helpers.case "classification is shape-insensitive" test_classification_insensitive_to_shape;
      Helpers.case "dependences are shape-insensitive" test_dependence_insensitive_to_shape;
      Helpers.case "index rewritten" test_index_rewritten;
      Helpers.case "index assignment rejected" test_body_assigning_index_rejected;
      prop_random_normalization_preserves_semantics;
    ] )
