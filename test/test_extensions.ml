(* The later-stage features: exit-value materialization (Fig 8),
   direction-vector enumeration, multi-exit maximum trip counts, and the
   DOT renderers. *)

module Pipeline = Analysis.Pipeline
module Trip_count = Analysis.Trip_count
module Deptest = Dependence.Deptest
module Dep_graph = Dependence.Dep_graph

(* --- exit-value materialization (Fig 8) --- *)

let fig78 = {|
k = 0
L17: loop
  i = 1
  L18: loop
    k = k + 2
    if i > 100 exit
    i = i + 1
  endloop
  k = k + 2
  if k > 5000 exit
endloop
A(k) = 1
|}

let footprint ssa = Helpers.ssa_footprint ~fuel:2_000_000 ssa

let test_materialize_fig8 () =
  let before = footprint (Ir.Ssa.of_source fig78) in
  let ssa = Ir.Ssa.of_source fig78 in
  let t = Pipeline.analyze ssa in
  let ms = Transform.Exit_values.materialize t in
  (* The inner loop's k and i have outside uses; at least k must be
     materialized (the paper's k6 = k2 + 202). *)
  Alcotest.(check bool) "materialized something" true (List.length ms >= 1);
  Alcotest.(check bool) "valid SSA" true (Ir.Ssa.check ssa = []);
  Alcotest.(check bool) "semantics preserved" true (footprint ssa = before);
  (* After the rewrite, the outer loop's uses of the inner k are gone:
     re-analysis still classifies the outer accumulation. *)
  let t2 = Pipeline.analyze ssa in
  let found_outer_linear = ref false in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      match Pipeline.class_of t2 i.Ir.Instr.id with
      | Analysis.Ivclass.Linear { step; _ } -> (
        match Analysis.Sym.const_int step with
        | Some 204 -> found_outer_linear := true
        | _ -> ())
      | _ -> ());
  Alcotest.(check bool) "outer (L17, _, 204) family survives" true !found_outer_linear

let test_materialize_simple_sum () =
  let src = "s = 0\nL1: for i = 1 to 10 loop\n  s = s + 2\nendloop\nA(s) = 1" in
  let before = footprint (Ir.Ssa.of_source src) in
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  let ms = Transform.Exit_values.materialize t in
  Alcotest.(check bool) "materialized" true (ms <> []);
  Alcotest.(check bool) "semantics" true (footprint ssa = before);
  (* The store A(s) now reads a closed form, not the loop phi. *)
  Alcotest.(check bool) "A subscript rewritten" true
    (List.for_all
       (fun (m : Transform.Exit_values.materialization) ->
         match m.Transform.Exit_values.replacement with
         | Ir.Instr.Def _ | Ir.Instr.Const _ -> true
         | Ir.Instr.Param _ -> false)
       ms)

let prop_materialize_preserves =
  Helpers.qtest ~count:50 "materialization preserves semantics" Gen.gen_program
    (fun p ->
      let src = Ir.Ast.to_string p in
      let seed = Hashtbl.hash src in
      let run ssa =
        let state = Random.State.make [| seed |] in
        Helpers.halted_footprint ~fuel:500_000
          ~rand:(fun () -> Random.State.bool state)
          ssa
      in
      let before = run (Ir.Ssa.of_source src) in
      let ssa = Ir.Ssa.of_source src in
      let t = Pipeline.analyze ssa in
      let _ = Transform.Exit_values.materialize t in
      Ir.Ssa.check ssa = [] && Helpers.preserves before (run ssa))

(* --- direction-vector enumeration --- *)

let vectors src =
  let t = Helpers.analyze src in
  let edges = Dep_graph.build t in
  let bounds l = Trip_count.count_int (Pipeline.trip_count t l) in
  (* Self-output edges legitimately enumerate the all-equal vector (it is
     excluded at the edge level, not by the enumerator); look at proper
     pairs only. *)
  edges
  |> List.filter (fun (e : Dep_graph.edge) ->
         e.Dep_graph.src.Dep_graph.instr <> e.Dep_graph.dst.Dep_graph.instr)
  |> List.filter_map (fun e -> Dep_graph.direction_vectors_of ~bounds e)

let test_direction_vectors_2d () =
  (* Rectangular A(i,j) = A(i-1,j): the only flow vector is (<, =). *)
  let vs =
    vectors
      "L23: for i = 1 to 50 loop\n  L24: for j = 1 to 50 loop\n    A(i, j) = A(i - 1, j)\n  endloop\nendloop"
  in
  Alcotest.(check bool) "one edge with vectors" true (vs <> []);
  List.iter
    (fun v -> Alcotest.(check bool) "(<, =)" true (v = [ [ `Lt; `Eq ] ]))
    vs

let test_direction_vectors_prune () =
  (* A(i) = A(i): only (=). *)
  let vs = vectors "L1: for i = 1 to 50 loop\n  A(i) = A(i) + 1\nendloop" in
  List.iter (fun v -> Alcotest.(check bool) "(=)" true (v = [ [ `Eq ] ])) vs;
  Alcotest.(check bool) "nonempty" true (vs <> [])

let test_direction_vectors_coupled () =
  (* Skewed access A(i+j) = A(i+j-1): many feasible vectors, including
     (=, <) and (<, >). *)
  let vs =
    vectors
      "L1: for i = 1 to 20 loop\n  L2: for j = 1 to 20 loop\n    A(i + j) = A(i + j - 1)\n  endloop\nendloop"
  in
  Alcotest.(check bool) "has (=, <)" true
    (List.exists (fun v -> List.mem [ `Eq; `Lt ] v) vs);
  Alcotest.(check bool) "has (<, >)" true
    (List.exists (fun v -> List.mem [ `Lt; `Gt ] v) vs);
  Alcotest.(check bool) "never (=, =)" true
    (List.for_all (fun v -> not (List.mem [ `Eq; `Eq ] v)) vs)

(* --- multi-exit maximum trip counts --- *)

let test_max_trip_count () =
  let src =
    "i = 0\nT: loop\n  i = i + 1\n  if i > 100 exit\n  if ?? exit\nendloop\nA(i) = 1"
  in
  let t = Helpers.analyze src in
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  let lp = Option.get (Ir.Loops.find_by_name loops "T") in
  let trip = Pipeline.trip_count t lp.Ir.Loops.id in
  Alcotest.(check (option int)) "exact unknown" None (Trip_count.count_int trip);
  Alcotest.(check (option int)) "bounded by the counted exit" (Some 100)
    (Trip_count.max_count_int trip)

let test_max_trip_feeds_dependence () =
  (* With only an upper bound of 10 iterations, A(i) and A(i+50) still
     cannot collide. *)
  let src =
    "i = 0\nT: loop\n  i = i + 1\n  if i > 10 exit\n  if ?? exit\n  A(i) = A(i + 50)\nendloop"
  in
  let t = Helpers.analyze src in
  Alcotest.(check int) "independent via the bound" 0
    (List.length (Dep_graph.build t))

(* --- DOT output --- *)

let test_dot_renders () =
  let ssa = Ir.Ssa.of_source "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop" in
  let cfg_dot = Ir.Dot.cfg_to_dot (Ir.Ssa.cfg ssa) in
  let ssa_dot = Ir.Dot.ssa_to_dot ssa in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "cfg digraph" true (contains cfg_dot "digraph cfg");
  Alcotest.(check bool) "cfg loop marker" true (contains cfg_dot "loop L7");
  Alcotest.(check bool) "ssa digraph" true (contains ssa_dot "digraph ssa");
  Alcotest.(check bool) "ssa names" true (contains ssa_dot "j2 = PH");
  Alcotest.(check bool) "param leaf" true (contains ssa_dot "n0")

let suite =
  ( "extensions",
    [
      Helpers.case "materialize Fig 8" test_materialize_fig8;
      Helpers.case "materialize a simple sum" test_materialize_simple_sum;
      prop_materialize_preserves;
      Helpers.case "direction vectors (2D)" test_direction_vectors_2d;
      Helpers.case "direction vectors prune" test_direction_vectors_prune;
      Helpers.case "direction vectors coupled" test_direction_vectors_coupled;
      Helpers.case "maximum trip count" test_max_trip_count;
      Helpers.case "maximum trip count feeds dependence" test_max_trip_feeds_dependence;
      Helpers.case "DOT renderers" test_dot_renders;
    ] )
