(* Vector packing (paper §4.4, loop L15): a conditionally incremented
   counter packs selected elements of A into B. The counter is not an
   induction variable, but the classifier proves it *monotonic* — and
   strictly monotonic at the increment — which is enough to know that
   B's cells are written at most once per loop execution (the write
   subscript takes the '=' direction only), so the pack loop can become
   a PACK intrinsic / parallel prefix.

   Run with:  dune exec examples/packing.exe *)

let program = {|
k = 0
L15: for i = 1 to n loop
  if A(i) > 0 then
    k = k + 1
    B(k) = A(i)
  endif
endloop
|}

let () =
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source program) in
  print_string (Analysis.Pipeline.report_of t);
  print_endline "--- dependences ---";
  let g = Dependence.Dep_graph.build t in
  if g = [] then print_endline "(none)" else print_string (Dependence.Dep_graph.to_string t g);

  (* The store B(k3) uses the strictly monotonic member: no output
     dependence across iterations; each cell written once. *)
  (match Analysis.Pipeline.class_of_name t "k3" with
   | Some (Analysis.Ivclass.Monotonic m) ->
     Printf.printf "\nk3 monotonic: increasing=%b strict=%b\n"
       (m.Analysis.Ivclass.dir = Analysis.Ivclass.Increasing)
       m.Analysis.Ivclass.strict
   | Some c ->
     Printf.printf "\nk3: %s\n" (Analysis.Pipeline.class_to_string t c)
   | None -> print_endline "k3 not found");

  (* Sanity: run the program on concrete data and confirm the packing
     semantics the classifications promise. *)
  let a = Ir.Ident.of_string "A" and b = Ir.Ident.of_string "B" in
  let data = [ 3; -1; 4; 0; 5; -9; 2; -6 ] in
  let arrays = List.mapi (fun i v -> ((a, [ i + 1 ]), v)) data in
  let ssa = t.Analysis.Pipeline.ssa in
  let st =
    Ir.Interp.run ~fuel:10_000 ~arrays
      ~params:(fun x -> if Ir.Ident.name x = "n" then 8 else 0)
      ssa
  in
  let packed =
    List.filter_map
      (fun k -> Hashtbl.find_opt st.Ir.Interp.arrays (b, [ k ]))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Printf.printf "\ninput : %s\npacked: %s\n"
    (String.concat " " (List.map string_of_int data))
    (String.concat " " (List.map string_of_int packed))
