(* SSA construction: phi placement, renaming, naming, pruning, and the
   well-formedness invariants on random programs. *)

let ssa_of src = Ir.Ssa.of_source src

let phis_in ssa label =
  List.filter
    (fun (i : Ir.Instr.t) -> i.Ir.Instr.op = Ir.Instr.Phi)
    (Ir.Cfg.block (Ir.Ssa.cfg ssa) label).Ir.Cfg.instrs

let test_fig1_names () =
  let ssa = ssa_of "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop" in
  (* The names of the paper's Figure 1(b): j2 is the header phi, i2 and
     j3 the body definitions; j2's arguments are n (entry) and j3. *)
  (match Ir.Ssa.def_of_name ssa "j2" with
   | Some id ->
     let instr = Ir.Cfg.find_instr (Ir.Ssa.cfg ssa) id in
     Alcotest.(check bool) "j2 is a phi" true (instr.Ir.Instr.op = Ir.Instr.Phi);
     Alcotest.(check (option string)) "merges variable j" (Some "j")
       (Option.map Ir.Ident.name (Ir.Ssa.phi_var ssa id));
     let args = Array.to_list instr.Ir.Instr.args in
     Alcotest.(check bool) "one arg is the input n" true
       (List.exists
          (fun v ->
            match v with
            | Ir.Instr.Param x -> Ir.Ident.name x = "n"
            | _ -> false)
          args);
     Alcotest.(check bool) "one arg is j3" true
       (match Ir.Ssa.def_of_name ssa "j3" with
        | Some j3 ->
          List.exists
            (fun v -> match v with Ir.Instr.Def a -> a = j3 | _ -> false)
            args
        | None -> false)
   | None -> Alcotest.fail "no j2");
  Alcotest.(check bool) "i1 exists (i's phi is dead and pruned)" true
    (Ir.Ssa.def_of_name ssa "i1" <> None)

let test_if_join_phi () =
  let ssa = ssa_of "x = 0\nif a > 0 then x = 1 else x = 2 endif\ny = x + 1" in
  (* Exactly one phi, at the join, merging x. *)
  let all_phis =
    List.concat_map (fun l -> phis_in ssa l) (Ir.Cfg.labels (Ir.Ssa.cfg ssa))
  in
  Alcotest.(check int) "one phi" 1 (List.length all_phis);
  let phi = List.hd all_phis in
  Alcotest.(check int) "two args" 2 (Array.length phi.Ir.Instr.args);
  Alcotest.(check bool) "args are 1 and 2" true
    (match (phi.Ir.Instr.args.(0), phi.Ir.Instr.args.(1)) with
     | Ir.Instr.Const a, Ir.Instr.Const b -> (a = 1 && b = 2) || (a = 2 && b = 1)
     | _ -> false)

let test_no_phi_for_invariant () =
  (* A variable assigned only before the loop needs no phi. *)
  let ssa = ssa_of "x = 5\nL1: loop\n  y = x + 1\n  if y > 3 exit\nendloop" in
  let loops = Ir.Ssa.loops ssa in
  let header = (Ir.Loops.loop loops 0).Ir.Loops.header in
  let merged =
    List.filter_map (fun (i : Ir.Instr.t) -> Ir.Ssa.phi_var ssa i.Ir.Instr.id)
      (phis_in ssa header)
  in
  Alcotest.(check bool) "no phi for x" false
    (List.exists (fun v -> Ir.Ident.name v = "x") merged)

let test_dead_phi_pruned () =
  (* k, l, t are rotated by pure copies and never otherwise used: the
     whole cycle of phis is dead and must be pruned. *)
  let ssa =
    ssa_of "k = 1\nl = 2\nL1: loop\n  t = k\n  k = l\n  l = t\n  if ?? exit\nendloop"
  in
  let all_phis =
    List.concat_map (fun l -> phis_in ssa l) (Ir.Cfg.labels (Ir.Ssa.cfg ssa))
  in
  Alcotest.(check int) "no phis survive" 0 (List.length all_phis)

let test_load_store_gone () =
  let ssa = ssa_of "x = 1\nL1: loop\n  x = x + 1\n  if x > 9 exit\nendloop\nA(x) = x" in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      match i.Ir.Instr.op with
      | Ir.Instr.Load _ | Ir.Instr.Store _ -> Alcotest.fail "scalar load/store survived"
      | _ -> ())

let test_check_valid_corpus () =
  List.iter
    (fun src ->
      match Ir.Ssa.check (ssa_of src) with
      | [] -> ()
      | errs ->
        Alcotest.failf "invalid SSA for %S: %s" src
          (String.concat "; " (List.map Ir.Diag.to_string errs)))
    [
      "x = 1";
      "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop";
      "k = 0\nL16: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k + 2\n  endif\nendloop";
      "j = 0\nL19: for i = 1 to n loop\n  j = j + i\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop";
      "t = 1\nj = 1\nk = 2\nl = 3\nL13: loop\n  t = j\n  j = k\n  k = l\n  l = t\n  A(j) = k\nendloop";
    ]

let test_fig2_ssa_graph () =
  (* The paper's Figure 2: the SSA graph of Fig 1's loop L7. Nodes are
     the loop's instructions; edges run from operations to operands, so
     the strongly connected region {j2, i, j3} is visible as the cycle
     j2 -> j3 -> i -> j2. *)
  let ssa = ssa_of "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop" in
  let loops = Ir.Ssa.loops ssa in
  let lp = Option.get (Ir.Loops.find_by_name loops "L7") in
  let g = Analysis.Ssa_graph.build ssa lp in
  let nodes = Analysis.Ssa_graph.nodes g in
  Alcotest.(check int) "three vertices" 3 (List.length nodes);
  let id name = Option.get (Ir.Ssa.def_of_name ssa name) in
  let succs name = Analysis.Ssa_graph.successors g (id name) in
  Alcotest.(check (list int)) "j2 -> j3" [ id "j3" ] (succs "j2");
  Alcotest.(check (list int)) "i1 -> j2" [ id "j2" ] (succs "i1");
  Alcotest.(check (list int)) "j3 -> i1" [ id "i1" ] (succs "j3");
  let vertices, edges = Analysis.Ssa_graph.size g in
  Alcotest.(check (pair int int)) "size" (3, 3) (vertices, edges);
  (* The phi is recognized as the loop-header phi. *)
  let phi = Ir.Cfg.find_instr (Ir.Ssa.cfg ssa) (id "j2") in
  Alcotest.(check bool) "header phi" true (Analysis.Ssa_graph.is_header_phi g phi)

let prop_ssa_valid =
  Helpers.qtest ~count:100 "random programs convert to valid SSA" Gen.gen_program
    (fun p ->
      match Ir.Ssa.check (Ir.Ssa.of_program p) with
      | [] -> true
      | errs ->
        QCheck2.Test.fail_reportf "SSA errors: %s"
          (String.concat "; " (List.map Ir.Diag.to_string errs)))

let prop_phi_args_match_preds =
  Helpers.qtest ~count:60 "phi arity equals predecessor count" Gen.gen_program
    (fun p ->
      let ssa = Ir.Ssa.of_program p in
      let cfg = Ir.Ssa.cfg ssa in
      let preds = Ir.Cfg.pred_table cfg in
      let ok = ref true in
      Ir.Cfg.iter_instrs cfg (fun label (i : Ir.Instr.t) ->
          if i.Ir.Instr.op = Ir.Instr.Phi then
            if Array.length i.Ir.Instr.args <> List.length preds.(label) then ok := false);
      !ok)

(* [Ssa.preds] is the table conversion keeps; it must agree with a
   fresh scan of the converted CFG on every block. *)
let preds_agree ssa =
  let cfg = Ir.Ssa.cfg ssa in
  List.for_all
    (fun l -> Ir.Ssa.preds ssa l = Ir.Cfg.predecessors cfg l)
    (Ir.Cfg.labels cfg)

let prop_preds_table =
  Helpers.qtest ~count:100 "Ssa.preds equals Cfg.predecessors" Gen.gen_program
    (fun p -> preds_agree (Ir.Ssa.of_program p))

let test_preds_table_many_nests () =
  Alcotest.(check bool) "64 nests" true (preds_agree (Lazy.force Helpers.nest_ssa))

let suite =
  ( "ssa",
    [
      Helpers.case "figure 1 names" test_fig1_names;
      Helpers.case "if-join phi" test_if_join_phi;
      Helpers.case "no phi for invariants" test_no_phi_for_invariant;
      Helpers.case "dead phis pruned" test_dead_phi_pruned;
      Helpers.case "loads and stores eliminated" test_load_store_gone;
      Helpers.case "corpus passes the checker" test_check_valid_corpus;
      Helpers.case "figure 2 SSA graph" test_fig2_ssa_graph;
      prop_ssa_valid;
      prop_phi_args_match_preds;
      prop_preds_table;
      Helpers.case "Ssa.preds equals Cfg.predecessors on 64 nests"
        test_preds_table_many_nests;
    ] )
