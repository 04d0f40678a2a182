(* The classical iterative baseline: it finds the textbook cases, misses
   everything the paper's algorithm adds, and needs multiple passes on
   derived chains — the facts the comparison benchmarks rest on. *)

module Baseline = Analysis.Baseline

let run src =
  let cfg = Ir.Lower.lower_source src in
  Baseline.find_all cfg

let result_for src name =
  match List.find_opt (fun ((lp : Ir.Loops.loop), _) -> lp.Ir.Loops.name = name) (run src) with
  | Some (_, r) -> r
  | None -> Alcotest.failf "loop %s not found" name

let has_basic r name =
  List.exists (fun (x, _) -> Ir.Ident.name x = name) r.Baseline.basic

let has_derived r name =
  List.exists (fun (d : Baseline.derived) -> Ir.Ident.name d.Baseline.var = name) r.Baseline.derived

let test_textbook_basic () =
  let r = result_for "i = 0\nT: loop\n  i = i + 4\n  if i > 100 exit\nendloop" "T" in
  Alcotest.(check bool) "finds i" true (has_basic r "i");
  match List.find_opt (fun (x, _) -> Ir.Ident.name x = "i") r.Baseline.basic with
  | Some (_, step) -> Alcotest.(check int) "step" 4 step
  | None -> Alcotest.fail "no i"

let test_textbook_derived () =
  let r =
    result_for "i = 0\nT: loop\n  i = i + 1\n  j = i * 4\n  k = j + 2\n  if i > 9 exit\nendloop" "T"
  in
  Alcotest.(check bool) "finds i" true (has_basic r "i");
  Alcotest.(check bool) "derived j" true (has_derived r "j");
  Alcotest.(check bool) "derived k" true (has_derived r "k");
  (match List.find_opt (fun (d : Baseline.derived) -> Ir.Ident.name d.Baseline.var = "j") r.Baseline.derived with
   | Some d ->
     Alcotest.(check int) "scale" 4 d.Baseline.scale;
     Alcotest.(check int) "offset" 0 d.Baseline.offset
   | None -> Alcotest.fail "no j")

let test_misses_mutual_pair () =
  (* Loop L2 (i = j + c; j = i + k): neither variable is a textbook
     basic IV, so the classical algorithm finds nothing — while the
     SSA-based classifier proves both linear. *)
  let src = "j = 0\nT: loop\n  i = j + 1\n  j = i + 2\n  if j > 50 exit\nendloop" in
  let r = result_for src "T" in
  Alcotest.(check int) "classical finds nothing" 0 (Baseline.iv_count r);
  let t = Helpers.analyze src in
  match Analysis.Pipeline.class_of_name t "j2" with
  | Some (Analysis.Ivclass.Linear _) -> ()
  | _ -> Alcotest.fail "SSA classifier should find the pair"

let test_misses_conditional_same_offset () =
  (* Fig 3: two stores to i disqualify it classically. *)
  let src =
    "i = 1\nT: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 2\n  endif\n  if i > 40 exit\nendloop"
  in
  let r = result_for src "T" in
  Alcotest.(check bool) "classical misses i" false (has_basic r "i");
  let t = Helpers.analyze src in
  match Analysis.Pipeline.class_of_name t "i2" with
  | Some (Analysis.Ivclass.Linear _) -> ()
  | _ -> Alcotest.fail "SSA classifier should find Fig 3"

let test_misses_everything_else () =
  (* Wrap-around, periodic, polynomial: all invisible classically. *)
  let src = {|
j = 1
k = 2
p = 0
i = 0
T: loop
  i = i + 1
  p = p + i
  t = j
  j = k
  k = t
  if i > 10 exit
endloop
|} in
  let r = result_for src "T" in
  Alcotest.(check bool) "finds the basic i" true (has_basic r "i");
  Alcotest.(check bool) "misses polynomial p" false (has_basic r "p" || has_derived r "p");
  Alcotest.(check bool) "misses periodic j" false (has_basic r "j" || has_derived r "j")

let test_iterative_passes_grow_with_chain () =
  (* A reversed chain j5 = j4+1; ...; j1 = i+1 needs one pass per link
     (plus the final no-change pass). *)
  let chain n =
    let body =
      List.init n (fun idx ->
          let k = n - idx in
          if k = 1 then "  j1 = i * 2"
          else Printf.sprintf "  j%d = j%d + 1" k (k - 1))
    in
    Printf.sprintf "i = 0\nT: loop\n  i = i + 1\n%s\n  if i > 5 exit\nendloop"
      (String.concat "\n" body)
  in
  let passes n = (result_for (chain n) "T").Baseline.passes in
  Alcotest.(check bool) "passes grow linearly with the chain" true
    (passes 8 >= 8 && passes 4 >= 4 && passes 8 > passes 4);
  (* All chain members are found eventually. *)
  let r = result_for (chain 6) "T" in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "j%d found" k) true
        (has_derived r (Printf.sprintf "j%d" k)))
    [ 1; 2; 3; 4; 5; 6 ]

let test_invariance_detection () =
  (* j = i * c with c loop-invariant but symbolic: still derived. *)
  let src = "i = 0\nT: loop\n  i = i + 1\n  j = i + 7\n  if i > 5 exit\nendloop" in
  let r = result_for src "T" in
  Alcotest.(check bool) "derived with const offset" true (has_derived r "j")

let test_generality_gap_quantified () =
  (* On Fig 3 + mutual pair + wrap-around combined, count variables each
     analysis proves linear. *)
  let src = {|
j = n
w = 0
T: loop
  i = j + 1
  j = i + 2
  if ?? then
    x = x + 3
  else
    x = x + 3
  endif
  A(w) = x
  w = i
  if ?? exit
endloop
|} in
  let r = result_for src "T" in
  let classical = Baseline.iv_count r in
  let t = Helpers.analyze src in
  let ssa = t.Analysis.Pipeline.ssa in
  let ours = ref 0 in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (ins : Ir.Instr.t) ->
      match Analysis.Pipeline.class_of t ins.Ir.Instr.id with
      | Analysis.Ivclass.Linear _ | Analysis.Ivclass.Wrap _ -> incr ours
      | _ -> ());
  Alcotest.(check int) "classical finds none here" 0 classical;
  Alcotest.(check bool) "ssa classifier finds many" true (!ours >= 5)

let suite =
  ( "baseline",
    [
      Helpers.case "textbook basic IVs" test_textbook_basic;
      Helpers.case "textbook derived IVs" test_textbook_derived;
      Helpers.case "misses mutual pairs" test_misses_mutual_pair;
      Helpers.case "misses Fig 3" test_misses_conditional_same_offset;
      Helpers.case "misses non-linear classes" test_misses_everything_else;
      Helpers.case "iterative pass count" test_iterative_passes_grow_with_chain;
      Helpers.case "invariant offsets" test_invariance_detection;
      Helpers.case "generality gap" test_generality_gap_quantified;
    ] )
