(* The transformation clients: DCE, LICM, loop interchange, unimodular
   legality, and parallelization legality. *)

module Pipeline = Analysis.Pipeline

(* The final array cells, when the run halts. *)
let footprint_of_ssa ?params ?(seed = 0) ssa =
  let state = Random.State.make [| seed |] in
  Helpers.halted_footprint ~fuel:500_000 ?params
    ~rand:(fun () -> Random.State.bool state)
    ssa

(* --- DCE --- *)

let test_dce_removes_dead () =
  let src = "x = 1 + 2\ny = x * 3\nA(0) = 5" in
  let ssa = Ir.Ssa.of_source src in
  let removed = Transform.Dce.run (Ir.Ssa.cfg ssa) in
  Alcotest.(check bool) "removed the dead chain" true (removed >= 2);
  Alcotest.(check bool) "still valid SSA" true (Ir.Ssa.check ssa = []);
  Alcotest.(check bool) "semantics" true
    (footprint_of_ssa ssa = Some [ ("A", [ 0 ], 5) ])

let test_dce_keeps_live () =
  let src = "x = 1 + 2\nA(x) = x" in
  let ssa = Ir.Ssa.of_source src in
  let before = footprint_of_ssa (Ir.Ssa.of_source src) in
  let _ = Transform.Dce.run (Ir.Ssa.cfg ssa) in
  Alcotest.(check bool) "semantics" true (footprint_of_ssa ssa = before)

let test_dce_keeps_rand () =
  (* Rand has an observable consumption order: never deleted. *)
  let src = "if ?? then\n  A(0) = 1\nendif\nif ?? then\n  A(1) = 1\nendif" in
  let ssa = Ir.Ssa.of_source src in
  let before = footprint_of_ssa ~seed:5 (Ir.Ssa.of_source src) in
  let _ = Transform.Dce.run (Ir.Ssa.cfg ssa) in
  Alcotest.(check bool) "same random path" true (footprint_of_ssa ~seed:5 ssa = before)

let prop_dce_preserves =
  Helpers.qtest ~count:60 "DCE preserves semantics" Gen.gen_program (fun p ->
      let src = Ir.Ast.to_string p in
      let seed = Hashtbl.hash src in
      let before = footprint_of_ssa ~seed (Ir.Ssa.of_source src) in
      let ssa = Ir.Ssa.of_source src in
      let _ = Transform.Dce.run (Ir.Ssa.cfg ssa) in
      Ir.Ssa.check ssa = [] && Helpers.preserves before (footprint_of_ssa ~seed ssa))

(* --- LICM --- *)

let test_licm_hoists () =
  let src = "L1: for i = 1 to 50 loop\n  x = n * 4 + 2\n  A(i) = x + i\nendloop" in
  let params v = if Ir.Ident.name v = "n" then 3 else 0 in
  let before = footprint_of_ssa ~params (Ir.Ssa.of_source src) in
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  let hoisted = Transform.Licm.hoist t in
  Alcotest.(check bool) "hoisted the invariant chain" true (List.length hoisted >= 2);
  Alcotest.(check bool) "valid SSA" true (Ir.Ssa.check ssa = []);
  Alcotest.(check bool) "semantics" true (footprint_of_ssa ~params ssa = before);
  (* The hoisted instructions now live outside the loop. *)
  let loops = Ir.Ssa.loops ssa in
  let lp = Option.get (Ir.Loops.find_by_name loops "L1") in
  List.iter
    (fun id ->
      Alcotest.(check bool) "outside the loop" false
        (Ir.Label.Set.mem (Ir.Cfg.block_of_instr (Ir.Ssa.cfg ssa) id) lp.Ir.Loops.blocks))
    hoisted

let test_licm_leaves_variant () =
  let src = "L1: for i = 1 to 9 loop\n  A(i) = i * 2\nendloop" in
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  Alcotest.(check int) "nothing hoisted" 0 (List.length (Transform.Licm.hoist t))

let test_licm_no_division () =
  (* A guarded division must not be speculated out of the loop. *)
  let src =
    "L1: for i = 1 to 9 loop\n  if n != 0 then\n    x = 100 / n\n    A(i) = x\n  endif\nendloop"
  in
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  let hoisted = Transform.Licm.hoist t in
  (* With n = 0 the division must never execute. *)
  let _ = footprint_of_ssa ~params:(fun _ -> 0) ssa in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.op with
      | Ir.Instr.Binop Ir.Ops.Div ->
        Alcotest.(check bool) "division not hoisted" false
          (List.exists (Ir.Instr.Id.equal i.Ir.Instr.id) hoisted)
      | _ -> ())

let prop_licm_preserves =
  Helpers.qtest ~count:60 "LICM preserves semantics" Gen.gen_program (fun p ->
      let src = Ir.Ast.to_string p in
      let seed = Hashtbl.hash src in
      let before = footprint_of_ssa ~seed (Ir.Ssa.of_source src) in
      let ssa = Ir.Ssa.of_source src in
      let t = Pipeline.analyze ssa in
      let _ = Transform.Licm.hoist t in
      Ir.Ssa.check ssa = [] && Helpers.preserves before (footprint_of_ssa ~seed ssa))

(* --- interchange --- *)

let triangular = {|
L23: for i = 1 to n loop
  L24: for j = i + 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|}

let rectangular = {|
L23: for i = 1 to n loop
  L24: for j = 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|}

let anti_diagonal = {|
L23: for i = 1 to n loop
  L24: for j = 1 to n loop
    A(i, j) = A(i - 1, j + 1)
  endloop
endloop
|}

let monotonic_counter = {|
k = 0
L1: for i = 1 to 3 loop
  L2: for j = 1 to 4 loop
    if ?? then
      k = k + 1
    endif
    F(k) = F(k) + 1
  endloop
endloop
|}

let test_interchange_legality () =
  (* Rectangular (1,0): legal. Triangular in iteration space (1,-1):
     illegal — the paper's §6.1 example. Anti-diagonal (1,-1): illegal. *)
  Alcotest.(check (option bool)) "rectangular legal" (Some true)
    (Transform.Interchange.legal_for_source rectangular ~outer_name:"L23"
       ~inner_name:"L24");
  Alcotest.(check (option bool)) "triangular illegal" (Some false)
    (Transform.Interchange.legal_for_source triangular ~outer_name:"L23"
       ~inner_name:"L24");
  Alcotest.(check (option bool)) "anti-diagonal illegal" (Some false)
    (Transform.Interchange.legal_for_source anti_diagonal ~outer_name:"L23"
       ~inner_name:"L24");
  (* k never decreases, yet F(1) written at (i=1, j=3) is read at
     (i=2, j=1): direction (<, >), which swapping L1 and L2 reverses. *)
  Alcotest.(check (option bool)) "monotonic counter illegal" (Some false)
    (Transform.Interchange.legal_for_source monotonic_counter ~outer_name:"L1"
       ~inner_name:"L2")

let test_interchange_apply () =
  let ast = Ir.Parser.parse rectangular in
  let swapped = Transform.Interchange.apply ast ~outer_name:"L23" in
  (* The interchanged program computes the same values. *)
  let params x = if Ir.Ident.name x = "n" then 6 else 0 in
  Alcotest.(check bool) "same footprint" true
    (Helpers.array_footprint ~params ast = Helpers.array_footprint ~params swapped);
  (* And the loop order actually changed. *)
  match swapped.Ir.Ast.stmts with
  | [ Ir.Ast.For { name = "L24"; body = [ Ir.Ast.For { name = "L23"; _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "loops not swapped"

let test_interchange_rejects_triangular_bounds () =
  let ast = Ir.Parser.parse triangular in
  Alcotest.(check bool) "refuses dependent bounds" true
    (match Transform.Interchange.apply ast ~outer_name:"L23" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* A statement beside the inner loop makes the nest imperfect: [apply]
   refuses it instead of returning the program unchanged. *)
let test_interchange_rejects_imperfect () =
  let ast =
    Ir.Parser.parse
      {|
L23: for i = 1 to n loop
  B(i) = 0
  L24: for j = 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|}
  in
  Alcotest.(check bool) "refuses an imperfect nest" true
    (match Transform.Interchange.apply ast ~outer_name:"L23" with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- unimodular --- *)

let test_unimodular_legality () =
  let module U = Transform.Unimodular in
  Alcotest.(check bool) "interchange legal on (1,0)" true
    (U.legal U.interchange_2d [ [| 1; 0 |] ]);
  Alcotest.(check bool) "interchange illegal on (1,-1)" false
    (U.legal U.interchange_2d [ [| 1; -1 |] ]);
  (* Skewing by 1 fixes (1,-1): T = interchange * skew(1). *)
  (match U.make_interchangeable [ [| 1; -1 |] ] with
   | Some t ->
     Alcotest.(check bool) "unimodular" true (U.is_unimodular_2d t);
     Alcotest.(check bool) "transformed vector lex-positive" true
       (U.lex_positive (U.apply_vec t [| 1; -1 |]))
   | None -> Alcotest.fail "no skew factor found");
  (* A pure interchange already works for (1,0) so f = 0 suffices and
     the compound matrix is the interchange itself. *)
  match U.make_interchangeable [ [| 1; 0 |] ] with
  | Some t -> Alcotest.(check bool) "no skew needed" true (t = U.interchange_2d)
  | None -> Alcotest.fail "should be transformable"

let test_unimodular_from_dependences () =
  (* End-to-end: distance vectors from the dependence graph of the
     triangular nest feed the unimodular search. *)
  let t = Helpers.analyze triangular in
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  let o = Option.get (Ir.Loops.find_by_name loops "L23") in
  let i = Option.get (Ir.Loops.find_by_name loops "L24") in
  let edges = Dependence.Dep_graph.build t in
  match
    Dependence.Dep_graph.distance_vectors edges [ o.Ir.Loops.id; i.Ir.Loops.id ]
  with
  | Some dvs -> (
    Alcotest.(check bool) "plain interchange illegal" false
      (Transform.Unimodular.legal Transform.Unimodular.interchange_2d dvs);
    match Transform.Unimodular.make_interchangeable dvs with
    | Some _ -> ()
    | None -> Alcotest.fail "skew+interchange should be legal")
  | None -> Alcotest.fail "expected exact distance vectors"

(* --- parallelization --- *)

let test_parallel_relaxation () =
  (* The §4.2 payoff: the inner sweep of the relaxation has no carried
     dependence once the planes are proved disjoint per iteration. *)
  let src = {|
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
|} in
  let t = Helpers.analyze src in
  let results = Transform.Parallelize.parallel_loops t in
  let status name =
    List.find_map
      (fun ((lp : Ir.Loops.loop), ok) ->
        if lp.Ir.Loops.name = name then Some ok else None)
      results
  in
  Alcotest.(check (option bool)) "inner sweep parallel" (Some true) (status "L30");
  Alcotest.(check (option bool)) "outer sweep serial" (Some false) (status "L11")

let test_parallel_pack () =
  (* The §4.4 pack loop: B written through a strictly monotonic
     subscript; A only read. The loop still has the write-read order on
     B in the same iteration, but no carried dependence. *)
  let src = "k = 0\nL15: for i = 1 to n loop\n  if A(i) > 0 then\n    k = k + 1\n    B(k) = A(i)\n  endif\nendloop" in
  let t = Helpers.analyze src in
  let results = Transform.Parallelize.parallel_loops t in
  match results with
  | [ (_, ok) ] -> Alcotest.(check bool) "pack loop parallel" true ok
  | _ -> Alcotest.fail "expected one loop"

let test_serial_recurrence () =
  let src = "L1: for i = 1 to n loop\n  A(i) = A(i - 1) + 1\nendloop" in
  let t = Helpers.analyze src in
  match Transform.Parallelize.parallel_loops t with
  | [ (_, ok) ] -> Alcotest.(check bool) "true recurrence is serial" false ok
  | _ -> Alcotest.fail "expected one loop"

let suite =
  ( "transforms",
    [
      Helpers.case "DCE removes dead code" test_dce_removes_dead;
      Helpers.case "DCE keeps live code" test_dce_keeps_live;
      Helpers.case "DCE keeps the random source" test_dce_keeps_rand;
      prop_dce_preserves;
      Helpers.case "LICM hoists invariants" test_licm_hoists;
      Helpers.case "LICM leaves variants" test_licm_leaves_variant;
      Helpers.case "LICM never speculates division" test_licm_no_division;
      prop_licm_preserves;
      Helpers.case "interchange legality" test_interchange_legality;
      Helpers.case "interchange application" test_interchange_apply;
      Helpers.case "interchange bound check" test_interchange_rejects_triangular_bounds;
      Helpers.case "unimodular legality" test_unimodular_legality;
      Helpers.case "unimodular from dependences" test_unimodular_from_dependences;
      Helpers.case "parallel relaxation sweep" test_parallel_relaxation;
      Helpers.case "parallel pack loop" test_parallel_pack;
      Helpers.case "serial recurrence" test_serial_recurrence;
      Helpers.case "interchange imperfect nest" test_interchange_rejects_imperfect;
    ] )
