(* Wrap-around variables (paper §4.1, loop L9): iml trails the loop index
   by one iteration, except on the first trip where it holds n — the
   idiom that wraps an array around a cylinder.

   The example shows the whole §4.1 story:

     1. the classifier reports iml as a first-order wrap-around of the
        linear IV family of i;
     2. the dependence tester still builds the linear equation, flagging
        the result as holding only after the first iteration;
     3. peeling the first iteration (Transform.Peel) and re-running the
        classifier promotes iml to a plain induction variable — the
        "standard compiler trick" automated end-to-end.

   Run with:  dune exec examples/wraparound.exe *)

let program = {|
iml = n
L9: for i = 1 to n loop
  A(i) = A(iml) + 1
  iml = i
endloop
|}

let () =
  print_endline "--- before peeling ---";
  let ast = Ir.Parser.parse program in
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_program ast) in
  print_string (Analysis.Pipeline.report_of t);
  (match Analysis.Pipeline.class_of_name t "iml2" with
   | Some c -> Printf.printf "iml2 = %s\n" (Analysis.Pipeline.class_to_string t c)
   | None -> ());
  print_endline "--- dependences (note the wrap-around flag) ---";
  let g = Dependence.Dep_graph.build t in
  print_string (Dependence.Dep_graph.to_string t g);

  print_endline "\n--- after peeling the first iteration ---";
  let peeled = Transform.Peel.peel_named "L9" ast in
  print_endline (Ir.Ast.to_string peeled);
  let t' = Analysis.Pipeline.analyze (Ir.Ssa.of_program peeled) in
  print_string (Analysis.Pipeline.report_of t');

  (* Semantic equivalence of the peel: identical array traffic. *)
  let run ast =
    let st =
      Ir.Interp.run ~fuel:100_000
        ~params:(fun x -> if Ir.Ident.name x = "n" then 10 else 0)
        (Ir.Ssa.of_program ast)
    in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.Ir.Interp.arrays []
    |> List.sort compare
  in
  Printf.printf "peeling preserves semantics: %b\n" (run ast = run peeled)
