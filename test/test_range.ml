(* The value-range analysis: fixpoint termination, oracle soundness on
   random programs, the two consumers (range-sharpened dependence
   testing and bounds-check elimination), and the array-declaration
   syntax they lean on. *)

module Pipeline = Analysis.Pipeline
module Range = Analysis.Range
module Interval = Analysis.Interval
module Extint = Analysis.Extint

let ranges_of src =
  let t = Helpers.analyze src in
  (t, Pipeline.range_of t)

(* ---------- the paper-style demo: branch join + loop body ---------- *)

let demo_src =
  "array A(150)\n\
   t = 60\n\
   if ?? then\n\
  \  t = 70\n\
   endif\n\
   L1: for i = 1 to 50 loop\n\
  \  A(i) = A(i + t) + 1\n\
   endloop\n"

let interval_str t r name =
  match Ir.Ssa.def_of_name t.Pipeline.ssa name with
  | None -> "<no such name>"
  | Some id -> Interval.to_string (Range.interval_of r id)

let test_demo_intervals () =
  let t, r = ranges_of demo_src in
  Alcotest.(check string) "t3 joins the branch constants" "[60, 70]"
    (interval_str t r "t3");
  Alcotest.(check string) "i2 spans the trip plus exit" "[1, 51]"
    (interval_str t r "i2")

(* 2 ^ 100 leaves the native range: constant propagation does not fold
   it to the wrapped 0, and the range makes no claim. *)
let test_overflowing_power_is_top () =
  let t, r = ranges_of "x = 2 ^ 100\nA(0) = x\n" in
  Alcotest.(check string) "x1" "[-inf, +inf]" (interval_str t r "x1")

(* The h-range refinement: inside the loop body (below the counted exit
   test) the index never carries its exit value. *)
let test_body_refinement () =
  let t, r = ranges_of demo_src in
  let ssa = t.Pipeline.ssa in
  match Ir.Ssa.def_of_name ssa "i2" with
  | None -> Alcotest.fail "no i2"
  | Some id ->
    (* The store block: where A(i) = ... lives. *)
    let cfg = Ir.Ssa.cfg ssa in
    let store =
      List.find
        (fun label ->
          List.exists
            (fun (i : Ir.Instr.t) ->
              match i.Ir.Instr.op with Ir.Instr.Astore _ -> true | _ -> false)
            (Ir.Cfg.block cfg label).Ir.Cfg.instrs)
        (Ir.Cfg.labels cfg)
    in
    Alcotest.(check string) "body interval excludes the exit value"
      "[1, 50]"
      (Interval.to_string (Range.interval_at r ~block:store id))

(* ---------- range-sharpened dependence testing ---------- *)

let edges ?ranges src =
  let t = Helpers.analyze src in
  let ranges = if ranges = Some true then Some (Pipeline.range_of t) else None in
  Dependence.Dep_graph.build ?ranges t

let test_deps_sharpened () =
  (* Distance t >= 60 exceeds the 49-iteration span: independent with
     ranges, conservatively dependent without. *)
  Alcotest.(check int) "baseline keeps the pair" 2
    (List.length (edges demo_src));
  Alcotest.(check int) "ranges prove independence" 0
    (List.length (edges ~ranges:true demo_src))

(* ---------- bounds-check elimination ---------- *)

let bounds_summary src =
  match Ir.Parser.parse_result src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok prog ->
    let t = Helpers.analyze src in
    (prog, t, Transform.Bounds_elim.analyze (Pipeline.range_of t) t.Pipeline.ssa prog)

let test_bounds_elim () =
  let _, _, s = bounds_summary demo_src in
  Alcotest.(check int) "both checks eliminated" 2
    s.Transform.Bounds_elim.eliminated;
  Alcotest.(check int) "none retained" 0 s.Transform.Bounds_elim.retained

let test_bounds_retained () =
  (* n is a free parameter: A(n + i) cannot be proven in bounds, and a
     tight extent catches the store interval poking past it. *)
  let _, _, s =
    bounds_summary
      "array A(10)\narray B(5)\nL1: for i = 1 to 10 loop\n  A(i) = 1\n  B(i) = 2\n  A(n + i) = 3\nendloop\n"
  in
  Alcotest.(check int) "A(i) alone is proven" 1
    s.Transform.Bounds_elim.eliminated;
  (* B(i) with i in [1,10] over extent 1:5, and the symbolic A(n+i). *)
  Alcotest.(check int) "two checks retained" 2
    s.Transform.Bounds_elim.retained

let test_bounds_undeclared_skipped () =
  let _, _, s =
    bounds_summary "L1: for i = 1 to 4 loop\n  C(i) = i\nendloop\n"
  in
  Alcotest.(check int) "nothing classified" 0
    (s.Transform.Bounds_elim.eliminated + s.Transform.Bounds_elim.retained);
  Alcotest.(check int) "the store was skipped" 1 s.Transform.Bounds_elim.skipped

(* instrument/optimize must agree on the observable footprint — the
   TRN003 differential — and optimize must emit fewer guards. *)
let test_instrument_optimize_agree () =
  let prog, t, s = bounds_summary demo_src in
  let full = Transform.Bounds_elim.instrument prog in
  let opt = Transform.Bounds_elim.optimize (Pipeline.range_of t) t.Pipeline.ssa prog in
  Alcotest.(check bool) "same footprint" true
    (Helpers.array_footprint full = Helpers.array_footprint opt);
  let rec count_ifs stmts =
    List.fold_left
      (fun acc stmt ->
        acc
        +
        match stmt with
        | Ir.Ast.If (_, a, b) -> 1 + count_ifs a + count_ifs b
        | Ir.Ast.For f -> count_ifs f.Ir.Ast.body
        | Ir.Ast.Loop (_, b) -> count_ifs b
        | _ -> 0)
      0 stmts
  in
  Alcotest.(check bool) "optimize drops guards" true
    (count_ifs opt.Ir.Ast.stmts < count_ifs full.Ir.Ast.stmts);
  ignore s

(* ---------- array declaration syntax ---------- *)

let test_decl_parse_roundtrip () =
  let src = "array A(100)\narray B(-5:5, 0:9)\nA(1) = 1\n" in
  let p = Ir.Parser.parse src in
  (match p.Ir.Ast.decls with
   | [ a; b ] ->
     Alcotest.(check string) "A name" "A" (Ir.Ident.name a.Ir.Ast.array);
     Alcotest.(check (list (pair int int))) "A dims" [ (1, 100) ] a.Ir.Ast.dims;
     Alcotest.(check (list (pair int int))) "B dims"
       [ (-5, 5); (0, 9) ]
       b.Ir.Ast.dims
   | l -> Alcotest.failf "expected 2 decls, got %d" (List.length l));
  (* Parse-print-parse is stable. *)
  let printed = Ir.Ast.to_string p in
  Alcotest.(check string) "print-parse stable" printed
    (Ir.Ast.to_string (Ir.Parser.parse printed))

let test_decl_empty_extent_rejected () =
  match Ir.Parser.parse_result "array A(5:1)\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

(* ---------- properties on random programs ---------- *)

(* Widening termination: the fixpoint must land within its stated
   bound on every generated program. *)
let prop_fixpoint_bounded =
  Helpers.qtest ~count:150 "range fixpoint is bounded" Gen.gen_program
    (fun p ->
      let src = Ir.Ast.to_string p in
      let t = Helpers.analyze src in
      let r = Pipeline.range_of t in
      let cap =
        3 + Ir.Cfg.num_instrs (Ir.Ssa.cfg t.Pipeline.ssa) + 8
      in
      if Range.iterations r > cap then
        QCheck2.Test.fail_reportf "program:\n%s\n%d rounds > cap %d" src
          (Range.iterations r) cap
      else true)

(* Soundness: interpret each random program and assert every concrete
   value lies inside its reported interval — zero violations. *)
let prop_ranges_sound =
  Helpers.qtest ~count:150 "random programs satisfy the range oracle"
    Gen.gen_program (fun p ->
      let src = Ir.Ast.to_string p in
      let t = Helpers.analyze src in
      let r = Pipeline.range_of t in
      let state = Random.State.make [| Hashtbl.hash src |] in
      let result =
        Verify.Oracle.check ~fuel:200_000 ~max_diags:4
          ~rand:(fun () -> Random.State.bool state)
          (Verify.Oracle.Ranges r) t
      in
      match result.Verify.Oracle.diags with
      | [] -> true
      | d :: _ ->
        QCheck2.Test.fail_reportf "program:\n%s\nrange oracle: %s" src
          (Ir.Diag.to_string d))

let suite =
  ( "range",
    [
      Helpers.case "branch join and trip intervals" test_demo_intervals;
      Helpers.case "body interval excludes exit value" test_body_refinement;
      Helpers.case "overflowing power is top" test_overflowing_power_is_top;
      Helpers.case "ranges sharpen dependence testing" test_deps_sharpened;
      Helpers.case "bounds checks eliminated" test_bounds_elim;
      Helpers.case "unprovable checks retained" test_bounds_retained;
      Helpers.case "undeclared arrays skipped" test_bounds_undeclared_skipped;
      Helpers.case "instrument and optimize agree" test_instrument_optimize_agree;
      Helpers.case "array declarations parse" test_decl_parse_roundtrip;
      Helpers.case "empty extent rejected" test_decl_empty_extent_rejected;
      prop_fixpoint_bounded;
      prop_ranges_sound;
    ] )
