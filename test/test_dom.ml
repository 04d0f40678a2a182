(* Dominator computation, checked on known shapes and against a naive
   O(n^2) dataflow reference on random programs. *)

let lower src = Ir.Lower.lower_source src

(* Reference: iterative set-based dominators. *)
let naive_dominators cfg =
  let n = Ir.Cfg.num_blocks cfg in
  let entry = Ir.Cfg.entry cfg in
  let reach = Ir.Cfg.reachable cfg in
  let preds = Ir.Cfg.pred_table cfg in
  let all = List.init n (fun i -> i) |> List.filter (fun l -> reach.(l)) in
  let doms = Array.make n [] in
  List.iter (fun l -> doms.(l) <- (if l = entry then [ entry ] else all)) all;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          let ps = List.filter (fun p -> reach.(p)) preds.(l) in
          let inter =
            match ps with
            | [] -> []
            | first :: rest ->
              List.fold_left
                (fun acc p -> List.filter (fun d -> List.mem d doms.(p)) acc)
                doms.(first) rest
          in
          let next = l :: List.filter (fun d -> d <> l) inter in
          let next = List.sort_uniq compare next in
          if next <> List.sort_uniq compare doms.(l) then begin
            doms.(l) <- next;
            changed := true
          end
        end)
      all
  done;
  doms

let check_against_naive cfg =
  let dom = Ir.Dom.compute cfg in
  let naive = naive_dominators cfg in
  let reach = Ir.Cfg.reachable cfg in
  List.iter
    (fun l ->
      if reach.(l) then
        List.iter
          (fun d ->
            if reach.(d) then
              Alcotest.(check bool)
                (Printf.sprintf "dominates %d %d" d l)
                (List.mem d naive.(l))
                (Ir.Dom.dominates dom d l))
          (Ir.Cfg.labels cfg))
    (Ir.Cfg.labels cfg)

let test_diamond () =
  let cfg = lower "if a > 0 then x = 1 else x = 2 endif\ny = x" in
  let dom = Ir.Dom.compute cfg in
  let entry = Ir.Cfg.entry cfg in
  (* Entry dominates everything; neither branch dominates the join. *)
  List.iter
    (fun l -> Alcotest.(check bool) "entry dominates" true (Ir.Dom.dominates dom entry l))
    (Ir.Cfg.labels cfg);
  match (Ir.Cfg.block cfg entry).Ir.Cfg.term with
  | Ir.Cfg.Branch (_, t, e) ->
    let join = List.hd (Ir.Cfg.successors cfg t) in
    Alcotest.(check bool) "then !dom join" false (Ir.Dom.strictly_dominates dom t join);
    Alcotest.(check bool) "idom join = entry" true (Ir.Dom.idom dom join = entry);
    (* Both branch blocks have the join in their dominance frontier. *)
    Alcotest.(check bool) "df then" true (Ir.Label.Set.mem join (Ir.Dom.frontier dom t));
    Alcotest.(check bool) "df else" true (Ir.Label.Set.mem join (Ir.Dom.frontier dom e))
  | _ -> Alcotest.fail "expected branch"

let test_loop_frontier () =
  let cfg = lower "L1: loop\n  x = x + 1\n  if x > 3 exit\nendloop" in
  let dom = Ir.Dom.compute cfg in
  let header =
    List.find
      (fun l -> (Ir.Cfg.block cfg l).Ir.Cfg.loop_name = Some "L1")
      (Ir.Cfg.labels cfg)
  in
  (* A loop latch has the header in its dominance frontier. *)
  let latch =
    List.find
      (fun p -> Ir.Dom.dominates dom header p)
      (Ir.Cfg.predecessors cfg header)
  in
  Alcotest.(check bool) "header in df(latch)" true
    (Ir.Label.Set.mem header (Ir.Dom.frontier dom latch));
  (* The header is in its own frontier (it dominates its latch). *)
  Alcotest.(check bool) "header in df(header)" true
    (Ir.Label.Set.mem header (Ir.Dom.frontier dom header))

let test_known_shapes_vs_naive () =
  List.iter
    (fun src -> check_against_naive (lower src))
    [
      "x = 1";
      "if a > 0 then x = 1 endif\ny = 2";
      "L1: loop\n  if x > 1 exit\n  x = x + 1\nendloop";
      "for i = 1 to 3 loop\n  for j = 1 to 2 loop\n    x = x + 1\n  endloop\nendloop";
      "loop\n  if ?? then\n    if x > 2 exit\n  endif\n  x = x + 1\nendloop\ny = 1";
    ]

let prop_random_vs_naive =
  Helpers.qtest ~count:60 "dominators match naive reference" Gen.gen_program
    (fun p ->
      check_against_naive (Ir.Lower.lower p);
      true)

(* [Dom.dominates] answers from dominator-tree numbering; the reference
   walks the idom chain up from [b]. Every reachable pair is compared,
   with [b]'s chain marked once so the 64-nest file stays quadratic. *)
let dominates_matches_chain dom cfg =
  let n = Ir.Cfg.num_blocks cfg in
  let reach = List.filter (Ir.Dom.is_reachable dom) (Ir.Cfg.labels cfg) in
  let on_chain = Array.make n false in
  List.for_all
    (fun b ->
      let rec mark l v =
        on_chain.(l) <- v;
        if Ir.Dom.idom dom l <> l then mark (Ir.Dom.idom dom l) v
      in
      mark b true;
      let ok = List.for_all (fun a -> Ir.Dom.dominates dom a b = on_chain.(a)) reach in
      mark b false;
      ok)
    reach

let prop_dominates_chain =
  Helpers.qtest ~count:100 "dominates equals the idom-chain walk" Gen.gen_program
    (fun p ->
      let ssa = Ir.Ssa.of_program p in
      dominates_matches_chain (Ir.Ssa.dom ssa) (Ir.Ssa.cfg ssa))

let test_dominates_many_nests () =
  let ssa = Lazy.force Helpers.nest_ssa in
  Alcotest.(check bool) "64 nests" true
    (dominates_matches_chain (Ir.Ssa.dom ssa) (Ir.Ssa.cfg ssa))

(* Unreachable blocks keep the chain walk's answers: a query whose
   dominated block is unreachable raises (it has no idom chain), one
   whose dominator is unreachable is false, and equal labels hold. *)
let test_dominates_unreachable () =
  let cfg = lower "i = 0\nL: loop\n  i = i + 1\nendloop\nM: for j = 1 to 10 loop\n  A(j) = j\nendloop" in
  let dom = Ir.Dom.compute cfg in
  let entry = Ir.Cfg.entry cfg in
  let dead =
    List.filter (fun l -> not (Ir.Dom.is_reachable dom l)) (Ir.Cfg.labels cfg)
  in
  Alcotest.(check bool) "has unreachable blocks" true (dead <> []);
  List.iter
    (fun u ->
      Alcotest.(check bool) "reflexive" true (Ir.Dom.dominates dom u u);
      Alcotest.(check bool) "unreachable dominates nothing" false
        (Ir.Dom.dominates dom u entry);
      Alcotest.check_raises "unreachable has no chain"
        (Invalid_argument "index out of bounds") (fun () ->
          ignore (Ir.Dom.dominates dom entry u)))
    dead

let suite =
  ( "dominators",
    [
      Helpers.case "diamond" test_diamond;
      Helpers.case "loop frontier" test_loop_frontier;
      Helpers.case "known shapes vs naive" test_known_shapes_vs_naive;
      prop_random_vs_naive;
      prop_dominates_chain;
      Helpers.case "dominates equals the chain walk on 64 nests"
        test_dominates_many_nests;
      Helpers.case "dominates on unreachable blocks" test_dominates_unreachable;
    ] )
