(* Relaxation codes (paper §4.2): generating new matrix values from old
   ones by flipping a plane index between 1 and 2 every outer iteration.
   Both programming styles from the paper appear below:

     - the rotation style (swap via a temporary), which classifies as a
       periodic family, and
     - the arithmetic style (j = 3 - j), which the classifier recognizes
       as a flip-flop, i.e. a periodic variable of period 2.

   "It is extremely important and useful for the compiler to realize
   that for any fixed value of iter, j and jold have different values" —
   the dependence tester proves exactly that: the plane subscripts never
   collide in the same outer iteration, so the writes of one plane and
   the reads of the other are independent within an iteration and the
   relaxation sweep can be optimized (vectorized / parallelized).

   Run with:  dune exec examples/relaxation.exe *)

let rotation_style = {|
j = 1
jold = 2
L11: for iter = 1 to n loop
  L30: for x = 1 to m loop
    A(jold, x) = A(j, x) + 1
  endloop
  jtemp = jold
  jold = j
  j = jtemp
endloop
|}

let arithmetic_style = {|
j = 1
jold = 2
L12: for iter = 1 to n loop
  L31: for x = 1 to m loop
    A(jold, x) = A(j, x) + 1
  endloop
  j = 3 - j
  jold = 3 - jold
endloop
|}

let analyze_and_report title src =
  Printf.printf "=== %s ===\n" title;
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
  print_string (Analysis.Pipeline.report_of t);
  print_endline "--- dependences on A ---";
  let g = Dependence.Dep_graph.build t in
  (match g with
   | [] -> print_endline "(none: planes proved independent)"
   | edges -> print_string (Dependence.Dep_graph.to_string t edges));
  print_newline ()

let () =
  analyze_and_report "rotation style (periodic family)" rotation_style;
  analyze_and_report "arithmetic style (flip-flop)" arithmetic_style;
  (* The payoff: in both styles the same-iteration ('=' direction on the
     outer loop) dependence between the write plane and the read plane is
     disproved, which is what legalizes optimizing the inner sweep. *)
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source rotation_style) in
  let g = Dependence.Dep_graph.build t in
  let same_outer_iter_possible =
    List.exists
      (fun (e : Dependence.Dep_graph.edge) ->
        e.Dependence.Dep_graph.src.Dependence.Dep_graph.instr
        <> e.Dependence.Dep_graph.dst.Dependence.Dep_graph.instr
        &&
        match e.Dependence.Dep_graph.outcome with
        | Dependence.Deptest.Dependent d -> (
          (* The outermost common loop is the relaxation sweep. *)
          List.exists
            (function (_, ds) :: _ -> ds.Dependence.Deptest.eq | [] -> true)
            d.Dependence.Deptest.vectors)
        | Dependence.Deptest.Independent -> false)
      g
  in
  Printf.printf "same-sweep plane conflict possible: %b\n" same_outer_iter_possible
