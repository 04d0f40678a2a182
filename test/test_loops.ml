(* Natural loop detection and the nesting forest. *)

let loops_of src =
  let cfg = Ir.Lower.lower_source src in
  let dom = Ir.Dom.compute cfg in
  (cfg, Ir.Loops.compute cfg dom)

let test_single_loop () =
  let _, loops = loops_of "L1: loop\n  x = x + 1\n  if x > 3 exit\nendloop" in
  Alcotest.(check int) "one loop" 1 (Ir.Loops.num_loops loops);
  let lp = Ir.Loops.loop loops 0 in
  Alcotest.(check string) "name" "L1" lp.Ir.Loops.name;
  Alcotest.(check int) "depth" 1 lp.Ir.Loops.depth;
  Alcotest.(check int) "one latch" 1 (List.length lp.Ir.Loops.latches)

let test_nesting () =
  let _, loops =
    loops_of
      {|
L1: for i = 1 to 3 loop
  L2: for j = 1 to 3 loop
    L3: for k = 1 to 3 loop
      x = x + 1
    endloop
  endloop
  L4: for j2 = 1 to 3 loop
    y = y + 1
  endloop
endloop
|}
  in
  Alcotest.(check int) "four loops" 4 (Ir.Loops.num_loops loops);
  let by_name n = Option.get (Ir.Loops.find_by_name loops n) in
  Alcotest.(check int) "L1 depth" 1 (by_name "L1").Ir.Loops.depth;
  Alcotest.(check int) "L2 depth" 2 (by_name "L2").Ir.Loops.depth;
  Alcotest.(check int) "L3 depth" 3 (by_name "L3").Ir.Loops.depth;
  Alcotest.(check int) "L4 depth" 2 (by_name "L4").Ir.Loops.depth;
  Alcotest.(check (option int)) "L3 parent" (Some (by_name "L2").Ir.Loops.id)
    (by_name "L3").Ir.Loops.parent;
  Alcotest.(check (option int)) "L4 parent" (Some (by_name "L1").Ir.Loops.id)
    (by_name "L4").Ir.Loops.parent;
  (* Containment: L1's blocks include all of L3's. *)
  Alcotest.(check bool) "L1 contains L3" true
    (Ir.Label.Set.subset (by_name "L3").Ir.Loops.blocks (by_name "L1").Ir.Loops.blocks);
  (* Post-order puts children before parents. *)
  let order = List.map (fun lp -> lp.Ir.Loops.name) (Ir.Loops.postorder loops) in
  let pos n = Option.get (List.find_index (String.equal n) order) in
  Alcotest.(check bool) "L3 before L2" true (pos "L3" < pos "L2");
  Alcotest.(check bool) "L2 before L1" true (pos "L2" < pos "L1");
  Alcotest.(check bool) "L4 before L1" true (pos "L4" < pos "L1")

let test_innermost () =
  let cfg, loops =
    loops_of
      "L1: for i = 1 to 3 loop\n  x = x + 1\n  L2: for j = 1 to 3 loop\n    y = y + 1\n  endloop\nendloop"
  in
  let by_name n = Option.get (Ir.Loops.find_by_name loops n) in
  let l2 = by_name "L2" in
  Ir.Label.Set.iter
    (fun b ->
      Alcotest.(check (option int)) "innermost in L2" (Some l2.Ir.Loops.id)
        (Ir.Loops.innermost loops b))
    l2.Ir.Loops.blocks;
  ignore cfg

let test_exit_edges () =
  let cfg, loops =
    loops_of "L1: loop\n  x = x + 1\n  if x > 3 exit\n  if ?? exit\nendloop"
  in
  let lp = Ir.Loops.loop loops 0 in
  let exits = Ir.Loops.exit_edges cfg lp in
  Alcotest.(check int) "two exits" 2 (List.length exits);
  List.iter
    (fun (f, t) ->
      Alcotest.(check bool) "from inside" true (Ir.Loops.contains_block lp f);
      Alcotest.(check bool) "to outside" false (Ir.Loops.contains_block lp t))
    exits

let prop_loops_wellformed =
  Helpers.qtest ~count:60 "loop forest well-formed" Gen.gen_program (fun p ->
      let cfg = Ir.Lower.lower p in
      let dom = Ir.Dom.compute cfg in
      let loops = Ir.Loops.compute cfg dom in
      List.for_all
        (fun (lp : Ir.Loops.loop) ->
          (* Header dominates every block of its loop. *)
          Ir.Label.Set.for_all
            (fun b -> Ir.Dom.dominates dom lp.Ir.Loops.header b)
            lp.Ir.Loops.blocks
          (* Latches are in the loop and branch to the header. *)
          && List.for_all
               (fun latch ->
                 Ir.Label.Set.mem latch lp.Ir.Loops.blocks
                 && List.mem lp.Ir.Loops.header (Ir.Cfg.successors cfg latch))
               lp.Ir.Loops.latches
          (* Parent (when present) strictly contains the loop. *)
          &&
          match lp.Ir.Loops.parent with
          | None -> true
          | Some pid ->
            let parent = Ir.Loops.loop loops pid in
            Ir.Label.Set.subset lp.Ir.Loops.blocks parent.Ir.Loops.blocks
            && parent.Ir.Loops.depth = lp.Ir.Loops.depth - 1)
        (Ir.Loops.all loops))

(* Each loop's parent is the smallest other loop holding its header,
   and each block's innermost loop the smallest loop holding it
   (brute force over every pair). *)
let nesting_is_smallest loops num_blocks =
  let all = Ir.Loops.all loops in
  let size (lp : Ir.Loops.loop) = Ir.Label.Set.cardinal lp.Ir.Loops.blocks in
  let smallest_holding ?except l =
    List.fold_left
      (fun best (lp : Ir.Loops.loop) ->
        if Some lp.Ir.Loops.id = except || not (Ir.Loops.contains_block lp l) then best
        else
          match best with
          | Some (b : Ir.Loops.loop) when size b <= size lp -> best
          | _ -> Some lp)
      None all
    |> Option.map (fun (lp : Ir.Loops.loop) -> lp.Ir.Loops.id)
  in
  List.for_all
    (fun (lp : Ir.Loops.loop) ->
      lp.Ir.Loops.parent = smallest_holding ~except:lp.Ir.Loops.id lp.Ir.Loops.header)
    all
  && List.for_all
       (fun l -> Ir.Loops.innermost loops l = smallest_holding l)
       (List.init num_blocks Fun.id)

let prop_parent_smallest =
  Helpers.qtest ~count:100 "parent is the smallest enclosing loop" Gen.gen_program
    (fun p ->
      let ssa = Ir.Ssa.of_program p in
      nesting_is_smallest (Ir.Ssa.loops ssa) (Ir.Cfg.num_blocks (Ir.Ssa.cfg ssa)))

let test_parent_many_nests () =
  let ssa = Lazy.force Helpers.nest_ssa in
  Alcotest.(check bool) "64 nests" true
    (nesting_is_smallest (Ir.Ssa.loops ssa) (Ir.Cfg.num_blocks (Ir.Ssa.cfg ssa)))

let suite =
  ( "loops",
    [
      Helpers.case "single loop" test_single_loop;
      Helpers.case "nesting forest" test_nesting;
      Helpers.case "innermost lookup" test_innermost;
      Helpers.case "exit edges" test_exit_edges;
      prop_loops_wellformed;
      prop_parent_smallest;
      Helpers.case "parent is the smallest enclosing loop on 64 nests"
        test_parent_many_nests;
    ] )
