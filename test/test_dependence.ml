(* Dependence testing (paper §6): GCD and Banerjee machinery, direction
   refinement, distances, and the wrap-around / periodic / monotonic
   translations. *)

module Deptest = Dependence.Deptest
module Dep_graph = Dependence.Dep_graph
module Pipeline = Analysis.Pipeline

let edges src = Dep_graph.build (Helpers.analyze src)

let edge_strings src =
  let t = Helpers.analyze src in
  List.map
    (fun (e : Dep_graph.edge) ->
      Format.asprintf "%s %s->%s %a"
        (Dep_graph.kind_to_string e.Dep_graph.kind)
        (Ir.Ident.name e.Dep_graph.src.Dep_graph.array)
        (Ir.Ident.name e.Dep_graph.dst.Dep_graph.array)
        Deptest.pp_outcome e.Dep_graph.outcome)
    (Dep_graph.build t)

let check_edges name src expected =
  Alcotest.(check (list string)) name expected (edge_strings src)

let test_flow_distance_one () =
  check_edges "A(i) = A(i-1)" "L1: for i = 1 to 100 loop\n  A(i) = A(i - 1) + 1\nendloop"
    [ "flow A->A dependent (L0:<) distance (L0:1)" ]

let test_independent_parity () =
  (* Even writes never meet odd reads: the GCD test disproves all. *)
  check_edges "A(2i) vs A(2i+1)" "L1: for i = 1 to 100 loop\n  A(2 * i) = A(2 * i + 1)\nendloop"
    []

let test_same_subscript () =
  (* A(i) read then written in the same iteration only: a same-iteration
     anti dependence, and no loop-carried dependence at all. *)
  check_edges "A(i) = A(i) + 1" "L1: for i = 1 to 100 loop\n  A(i) = A(i) + 1\nendloop"
    [ "anti A->A dependent (L0:=) distance (L0:0)" ]

let test_bounded_distance_exceeds_range () =
  (* Distance 50 inside a 10-iteration loop: independent. *)
  check_edges "far apart" "L1: for i = 1 to 10 loop\n  A(i) = A(i + 50)\nendloop" []

let test_symbolic_bound_conservative () =
  (* With an unknown trip count the same test stays dependent. *)
  let es = edges "L1: for i = 1 to n loop\n  A(i) = A(i + 50)\nendloop" in
  Alcotest.(check bool) "conservative" true (es <> [])

let test_l21_equation () =
  (* The §6 example: subscripts i+... and j-i; our classifier gives the
     lhs (L21,1,1) and rhs (L21,2,1): dependence with distance -1 is
     time-infeasible forward, so only the backward (anti) edge remains. *)
  let src = "i = 0\nj = 3\nL21: loop\n  i = i + 1\n  A(i) = A(j - i)\n  j = j + 2\n  if i > 50 exit\nendloop" in
  let es = edge_strings src in
  Alcotest.(check (list string)) "L21"
    [ "anti A->A dependent (L0:<) distance (L0:1)" ]
    es

let test_l22_periodic_translation () =
  (* '=' on family members becomes '<>' on iterations; with the time
     filter only strictly-forward edges survive. *)
  let src = {|
j = 1
k = 2
l = 3
L22: loop
  A(2 * j) = A(2 * k)
  temp = j
  j = k
  k = l
  l = temp
  if ?? exit
endloop
|} in
  let t = Helpers.analyze src in
  let es = Dep_graph.build t in
  (* write<->read both ways plus the write's own periodic self-output *)
  Alcotest.(check int) "three directed edges" 3 (List.length es);
  List.iter
    (fun (e : Dep_graph.edge) ->
      match e.Dep_graph.outcome with
      | Deptest.Dependent d ->
        let _, ds = List.hd (List.hd d.Deptest.vectors) in
        Alcotest.(check bool) "no same-iteration dependence" false ds.Deptest.eq
      | Deptest.Independent -> Alcotest.fail "edge should be dependent")
    es

let test_periodic_same_member () =
  (* Same member on both sides: dependence only at h = h' (mod p), which
     includes '='. *)
  let src = {|
j = 1
k = 2
L22: loop
  A(j) = A(j) + 1
  t = j
  j = k
  k = t
  if ?? exit
endloop
|} in
  let t = Helpers.analyze src in
  let es = Dep_graph.build t in
  Alcotest.(check bool) "has an eq-direction edge" true
    (List.exists
       (fun (e : Dep_graph.edge) ->
         match e.Dep_graph.outcome with
         | Deptest.Dependent d ->
           List.exists (List.exists (fun (_, ds) -> ds.Deptest.eq)) d.Deptest.vectors
         | Deptest.Independent -> false)
       es)

let test_fig10_monotonic_translation () =
  let src = {|
k = 0
L15: for i = 1 to n loop
  F(k) = A(i)
  if ?? then
    k = k + 1
    B(k) = A(i)
    E(i) = B(k)
  endif
  G(i) = F(k)
endloop
|} in
  let t = Helpers.analyze src in
  let es = Dep_graph.build t in
  let find array kind =
    List.find_opt
      (fun (e : Dep_graph.edge) ->
        Ir.Ident.name e.Dep_graph.src.Dep_graph.array = array
        && e.Dep_graph.kind = kind)
      es
  in
  (* B: strictly monotonic subscript -> '=' only. *)
  (match find "B" Dep_graph.Flow with
   | Some { outcome = Deptest.Dependent d; _ } ->
     let _, ds = List.hd (List.hd d.Deptest.vectors) in
     Alcotest.(check bool) "B eq" true ds.Deptest.eq;
     Alcotest.(check bool) "B no lt" false ds.Deptest.lt
   | _ -> Alcotest.fail "no B flow edge");
  (* F flow: '<='; F anti: '<'. *)
  (match find "F" Dep_graph.Flow with
   | Some { outcome = Deptest.Dependent d; _ } ->
     let _, ds = List.hd (List.hd d.Deptest.vectors) in
     Alcotest.(check bool) "F flow le" true (ds.Deptest.eq && ds.Deptest.lt && not ds.Deptest.gt)
   | _ -> Alcotest.fail "no F flow edge");
  match find "F" Dep_graph.Anti with
  | Some { outcome = Deptest.Dependent d; _ } ->
    let _, ds = List.hd (List.hd d.Deptest.vectors) in
    Alcotest.(check bool) "F anti lt" true (ds.Deptest.lt && not ds.Deptest.eq)
  | _ -> Alcotest.fail "no F anti edge"

let test_fig10_strict_region_and_self_output () =
  (* §5.4's refinement: C(k2) sits inside the conditional, post-dominated
     by the strict update k = k + 1, so its subscript cannot repeat and
     the output self-dependence on C disappears; F(k2) at the top of the
     body keeps its self-output dependence (direction <). *)
  let src = {|
k = 0
L15: for i = 1 to n loop
  F(k) = A(i)
  if ?? then
    C(k) = D(i)
    k = k + 1
    B(k) = A(i)
  endif
endloop
|} in
  let t = Helpers.analyze src in
  let es = Dep_graph.build t in
  let self_output array =
    List.find_opt
      (fun (e : Dep_graph.edge) ->
        e.Dep_graph.kind = Dep_graph.Output
        && e.Dep_graph.src.Dep_graph.instr = e.Dep_graph.dst.Dep_graph.instr
        && Ir.Ident.name e.Dep_graph.src.Dep_graph.array = array)
      es
  in
  Alcotest.(check bool) "C cells written at most once" true (self_output "C" = None);
  Alcotest.(check bool) "B cells written at most once" true (self_output "B" = None);
  (match self_output "F" with
   | Some { outcome = Deptest.Dependent d; _ } ->
     let _, ds = List.hd (List.hd d.Deptest.vectors) in
     Alcotest.(check bool) "F rewrites later cells" true (ds.Deptest.lt && not ds.Deptest.eq)
   | _ -> Alcotest.fail "F self-output edge expected")

let test_strict_region_shape () =
  (* The region is exactly the conditional body (the block holding the
     strict update), not the top of the loop. *)
  let src = {|
k = 0
L15: for i = 1 to n loop
  F(k) = A(i)
  if ?? then
    C(k) = D(i)
    k = k + 1
  endif
endloop
|} in
  let t = Helpers.analyze src in
  let ssa = t.Pipeline.ssa in
  let loops = Ir.Ssa.loops ssa in
  let lp = Option.get (Ir.Loops.find_by_name loops "L15") in
  (* Find the monotonic family (the header phi). *)
  let family = ref None in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      match Pipeline.class_of t i.Ir.Instr.id with
      | Analysis.Ivclass.Monotonic m -> family := Some m.Analysis.Ivclass.family
      | _ -> ());
  match !family with
  | None -> Alcotest.fail "no monotonic family"
  | Some f ->
    let region = Dep_graph.strict_region t lp.Ir.Loops.id f in
    Alcotest.(check bool) "region nonempty" true (not (Ir.Label.Set.is_empty region));
    (* The loop header (where F's store reads k) is not in the region:
       the then-branch may be skipped. *)
    Alcotest.(check bool) "header outside region" false
      (Ir.Label.Set.mem lp.Ir.Loops.header region)

let test_wraparound_flag () =
  let src = "iml = n\nL9: for i = 1 to n loop\n  A(i) = A(iml) + 1\n  iml = i\nendloop" in
  let t = Helpers.analyze src in
  let es = Dep_graph.build t in
  Alcotest.(check bool) "wrap order recorded" true
    (List.exists
       (fun (e : Dep_graph.edge) ->
         match e.Dep_graph.outcome with
         | Deptest.Dependent d -> d.Deptest.holds_after = 1
         | Deptest.Independent -> false)
       es)

let test_2d_distance_vector () =
  let src = {|
L23: for i = 1 to n loop
  L24: for j = i + 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|} in
  let t = Helpers.analyze src in
  match Dep_graph.build t with
  | [ { kind = Dep_graph.Flow; outcome = Deptest.Dependent d; _ } ] ->
    (* Iteration-space distances: (1, -1) for the triangular nest (the
       paper's §6.1: our representation implicitly normalizes). *)
    Alcotest.(check (option (list (pair int int)))) "distance vector"
      (Some [ (0, 1); (1, -1) ])
      d.Deptest.distance
  | es -> Alcotest.failf "expected one flow edge, got %d" (List.length es)

let test_2d_rectangular () =
  let src = {|
L23: for i = 1 to n loop
  L24: for j = 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|} in
  let t = Helpers.analyze src in
  match Dep_graph.build t with
  | [ { kind = Dep_graph.Flow; outcome = Deptest.Dependent d; _ } ] ->
    Alcotest.(check (option (list (pair int int)))) "distance vector"
      (Some [ (0, 1); (1, 0) ])
      d.Deptest.distance
  | es -> Alcotest.failf "expected one flow edge, got %d" (List.length es)

let test_inconsistent_system_independent () =
  (* Dim 1 forces distance 1, dim 2 forces distance 0 on the same loop:
     no solution. *)
  check_edges "coupled contradiction"
    "L1: for i = 1 to 100 loop\n  A(i, i) = A(i - 1, i)\nendloop" []

let test_multidim_same_loop_consistent () =
  check_edges "coupled consistent"
    "L1: for i = 1 to 100 loop\n  A(i, i + 5) = A(i - 1, i + 4)\nendloop"
    [ "flow A->A dependent (L0:<) distance (L0:1)" ]

let test_different_arrays_no_edge () =
  check_edges "different arrays" "L1: for i = 1 to 9 loop\n  A(i) = B(i)\nendloop" []

let test_reads_only_no_edge () =
  check_edges "reads only" "L1: for i = 1 to 9 loop\n  x = A(i) + A(i - 1)\n  C(i) = x\nendloop"
    []

(* --- unit-level checks of the solver pieces --- *)

let test_solve_distance_system () =
  (* d_i = 1; d_i + d_j = 0  ->  d_j = -1. *)
  (match Deptest.solve_distance_system [ ([ (0, 1) ], 1); ([ (0, 1); (1, 1) ], 0) ] with
   | Some ds -> Alcotest.(check (list (pair int int))) "solved" [ (0, 1); (1, -1) ] ds
   | None -> Alcotest.fail "system should be consistent");
  (* Contradiction. *)
  (match Deptest.solve_distance_system [ ([ (0, 1) ], 1); ([ (0, 1) ], 0) ] with
   | None -> ()
   | Some _ -> Alcotest.fail "system should be inconsistent");
  (* Underdetermined: d_i + d_j = 3 pins nothing. *)
  match Deptest.solve_distance_system [ ([ (0, 1); (1, 1) ], 3) ] with
  | Some [] -> ()
  | Some ds -> Alcotest.failf "expected no determined distances, got %d" (List.length ds)
  | None -> Alcotest.fail "consistent system"

(* A monotonic counter under an outer loop: within one L1 iteration the
   F subscripts coincide only moving forward in L2, but F(1) written at
   (i=1, j=3) is read at (i=2, j=1), direction (<, >). *)
let monotonic_counter ~reset =
  Printf.sprintf
    "%sL1: for i = 1 to 3 loop\n%s  L2: for j = 1 to 4 loop\n    if ?? then\n      k = k + 1\n    endif\n    F(k) = F(k) + 1\n  endloop\nendloop"
    (if reset then "" else "k = 0\n")
    (if reset then "  k = 0\n" else "")

let monotonic_union_edges =
  let union =
    "dependent (L0:=, L1:<=) | (L0:<, L1:*) [conservative] — monotonic: dependence direction (<=)"
  in
  [ "anti F->F " ^ union; "flow F->F " ^ union; "output F->F " ^ union ]

let test_monotonic_under_outer_loop () =
  check_edges "k reset in each L1 iteration" (monotonic_counter ~reset:true) monotonic_union_edges;
  check_edges "k set above L1" (monotonic_counter ~reset:false) monotonic_union_edges

let suite =
  ( "dependence",
    [
      Helpers.case "flow distance 1" test_flow_distance_one;
      Helpers.case "gcd independence" test_independent_parity;
      Helpers.case "same subscript" test_same_subscript;
      Helpers.case "distance beyond bounds" test_bounded_distance_exceeds_range;
      Helpers.case "symbolic bounds conservative" test_symbolic_bound_conservative;
      Helpers.case "L21 equation" test_l21_equation;
      Helpers.case "L22 periodic translation" test_l22_periodic_translation;
      Helpers.case "periodic same member" test_periodic_same_member;
      Helpers.case "Fig 10 monotonic translation" test_fig10_monotonic_translation;
      Helpers.case "Fig 10 strict region and self-output" test_fig10_strict_region_and_self_output;
      Helpers.case "strict region shape" test_strict_region_shape;
      Helpers.case "wrap-around flag" test_wraparound_flag;
      Helpers.case "2D triangular distance vector" test_2d_distance_vector;
      Helpers.case "2D rectangular distance vector" test_2d_rectangular;
      Helpers.case "inconsistent coupled system" test_inconsistent_system_independent;
      Helpers.case "consistent coupled system" test_multidim_same_loop_consistent;
      Helpers.case "different arrays" test_different_arrays_no_edge;
      Helpers.case "reads only" test_reads_only_no_edge;
      Helpers.case "distance system solver" test_solve_distance_system;
      Helpers.case "monotonic counter under an outer loop" test_monotonic_under_outer_loop;
    ] )
