(* Strength reduction driven by the classification. *)

module Pipeline = Analysis.Pipeline
module SR = Transform.Strength_reduction

let count_muls ssa =
  let n = ref 0 in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.op with Ir.Instr.Binop Ir.Ops.Mul -> incr n | _ -> ());
  !n

(* Run a program's SSA directly (the reduced CFG is only available as a
   mutated Ssa.t). *)
let footprint_of_ssa ?params ssa = Helpers.ssa_footprint ~fuel:500_000 ?params ssa

let reduce_and_compare ?(params = fun _ -> 0) src =
  let before = footprint_of_ssa ~params (Ir.Ssa.of_source src) in
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  let reductions = SR.reduce t in
  (* The rewritten CFG must still be valid SSA. *)
  (match Ir.Ssa.check ssa with
   | [] -> ()
   | errs ->
     Alcotest.failf "SSA broken after reduction: %s"
       (String.concat "; " (List.map Ir.Diag.to_string errs)));
  let after = footprint_of_ssa ~params ssa in
  Alcotest.(check bool) "semantics preserved" true (before = after);
  (reductions, ssa)

let test_basic_reduction () =
  let src = "L1: for i = 0 to 50 loop\n  A(i * 4) = i\nendloop" in
  let muls_before = count_muls (Ir.Ssa.of_source src) in
  let reductions, ssa = reduce_and_compare src in
  Alcotest.(check bool) "reduced something" true (List.length reductions >= 1);
  Alcotest.(check bool) "fewer multiplies in the loop" true
    (count_muls ssa < muls_before)

let test_addressing_expression () =
  (* The motivating case: array address arithmetic i*stride + base. *)
  let src = "L1: for i = 1 to 30 loop\n  A(i * 8 + 3) = A(i * 8 + 2) + 1\nendloop" in
  let reductions, _ = reduce_and_compare src in
  Alcotest.(check bool) "both multiplies reduced" true (List.length reductions >= 1)

let test_nested_reduction () =
  let src =
    "L1: for i = 0 to 10 loop\n  L2: for j = 0 to 10 loop\n    A(j * 11 + i) = i + j\n  endloop\nendloop"
  in
  let reductions, _ = reduce_and_compare src in
  Alcotest.(check bool) "reduced" true (List.length reductions >= 1)

let test_symbolic_base () =
  (* i*2 + n has a symbolic but loop-invariant base: still reducible. *)
  let src = "L1: for i = 0 to 20 loop\n  A(i * 2 + n) = i\nendloop" in
  let params x = if Ir.Ident.name x = "n" then 100 else 0 in
  let reductions, _ = reduce_and_compare ~params src in
  Alcotest.(check bool) "reduced with symbolic base" true (List.length reductions >= 1)

let test_invariant_multiply_untouched () =
  (* n * 4 is invariant: no induction variable to create. *)
  let src = "L1: for i = 0 to 9 loop\n  A(i) = n * 4\nendloop" in
  let reductions, _ = reduce_and_compare src in
  Alcotest.(check int) "nothing reduced" 0 (List.length reductions)

let test_conditional_multiply () =
  (* A multiply inside a conditional is classified linear only when its
     operands are; even so the phi-based rewrite stays correct. *)
  let src =
    "L1: for i = 0 to 20 loop\n  if ?? then\n    A(i * 3) = 1\n  endif\nendloop"
  in
  (* '??' makes footprints depend on the random stream; use a fixed one. *)
  let before =
    let state = Random.State.make [| 3 |] in
    let st =
      Ir.Interp.run ~rand:(fun () -> Random.State.bool state) (Ir.Ssa.of_source src)
    in
    Hashtbl.length st.Ir.Interp.arrays
  in
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  let _ = SR.reduce t in
  let after =
    let state = Random.State.make [| 3 |] in
    let st = Ir.Interp.run ~rand:(fun () -> Random.State.bool state) ssa in
    Hashtbl.length st.Ir.Interp.arrays
  in
  Alcotest.(check int) "same number of cells written" before after

let prop_reduction_preserves_random_programs =
  Helpers.qtest ~count:50 "strength reduction preserves semantics" Gen.gen_program
    (fun p ->
      let src = Ir.Ast.to_string p in
      let seed = Hashtbl.hash src in
      let footprint ssa =
        let state = Random.State.make [| seed |] in
        Helpers.halted_footprint ~fuel:500_000
          ~rand:(fun () -> Random.State.bool state)
          ssa
      in
      let before = footprint (Ir.Ssa.of_source src) in
      let ssa = Ir.Ssa.of_source src in
      let t = Pipeline.analyze ssa in
      let _ = SR.reduce t in
      match Ir.Ssa.check ssa with
      | [] -> Helpers.preserves before (footprint ssa)
      | errs ->
        QCheck2.Test.fail_reportf "SSA broken: %s"
          (String.concat "; " (List.map Ir.Diag.to_string errs)))

let suite =
  ( "strength-reduction",
    [
      Helpers.case "basic reduction" test_basic_reduction;
      Helpers.case "addressing expressions" test_addressing_expression;
      Helpers.case "nested loops" test_nested_reduction;
      Helpers.case "symbolic base" test_symbolic_base;
      Helpers.case "invariant multiplies untouched" test_invariant_multiply_untouched;
      Helpers.case "conditional multiplies" test_conditional_multiply;
      prop_reduction_preserves_random_programs;
    ] )
