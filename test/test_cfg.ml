(* Lowering: AST -> CFG structure. *)

let lower src = Ir.Lower.lower_source src

let test_straightline () =
  let cfg = lower "x = 1\ny = x + 2" in
  Alcotest.(check int) "one block + none extra" 1 (Ir.Cfg.num_blocks cfg);
  let b = Ir.Cfg.block cfg (Ir.Cfg.entry cfg) in
  Alcotest.(check bool) "halts" true (b.Ir.Cfg.term = Ir.Cfg.Halt);
  (* x = 1: one store; y = x + 2: load, add, store. *)
  Alcotest.(check int) "instr count" 4 (List.length b.Ir.Cfg.instrs)

let test_if_shape () =
  let cfg = lower "if a < b then x = 1 else x = 2 endif\ny = x" in
  (* entry, then, else, join. *)
  Alcotest.(check int) "blocks" 4 (Ir.Cfg.num_blocks cfg);
  let entry = Ir.Cfg.entry cfg in
  (match (Ir.Cfg.block cfg entry).Ir.Cfg.term with
   | Ir.Cfg.Branch (_, t, e) ->
     Alcotest.(check bool) "then jumps to join" true
       (Ir.Cfg.successors cfg t = Ir.Cfg.successors cfg e)
   | _ -> Alcotest.fail "expected branch");
  let join =
    match (Ir.Cfg.block cfg entry).Ir.Cfg.term with
    | Ir.Cfg.Branch (_, t, _) -> List.hd (Ir.Cfg.successors cfg t)
    | _ -> assert false
  in
  Alcotest.(check int) "join preds" 2 (List.length (Ir.Cfg.predecessors cfg join))

let test_loop_shape () =
  let cfg = lower "L1: loop\n  x = x + 1\n  if x > 10 exit\nendloop\ny = 1" in
  (* Find the loop header (marked with its source name). *)
  let header =
    List.find
      (fun l -> (Ir.Cfg.block cfg l).Ir.Cfg.loop_name = Some "L1")
      (Ir.Cfg.labels cfg)
  in
  let preds = Ir.Cfg.predecessors cfg header in
  Alcotest.(check int) "header has entry + latch preds" 2 (List.length preds)

let test_for_desugar () =
  let cfg = lower "for i = 1 to 3 loop\n  A(i) = i\nendloop" in
  (* The bound is evaluated once, before the loop: the entry block stores
     both i and the limit temp. *)
  let entry = Ir.Cfg.block cfg (Ir.Cfg.entry cfg) in
  let stores =
    List.filter_map
      (fun (i : Ir.Instr.t) ->
        match i.Ir.Instr.op with Ir.Instr.Store x -> Some (Ir.Ident.name x) | _ -> None)
      entry.Ir.Cfg.instrs
  in
  Alcotest.(check int) "two stores before loop" 2 (List.length stores);
  Alcotest.(check bool) "a limit temp exists" true
    (List.exists (fun s -> String.length s > 5 && String.sub s 0 3 = "L1$") stores
     || List.exists (fun s -> String.contains s '$') stores)

let test_exit_outside_loop_fails () =
  Alcotest.(check bool) "exit outside loop" true
    (match lower "exit" with
     | exception Failure _ -> true
     | _ -> false)

let test_reverse_postorder () =
  let cfg = lower "if a > 0 then x = 1 endif\ny = 2" in
  let order = Ir.Cfg.reverse_postorder cfg in
  Alcotest.(check int) "entry first" (Ir.Cfg.entry cfg) (List.hd order);
  (* RPO visits a block before its (non-back-edge) successors. *)
  let pos = Hashtbl.create 8 in
  List.iteri (fun i l -> Hashtbl.replace pos l i) order;
  List.iter
    (fun l ->
      List.iter
        (fun s ->
          if Hashtbl.mem pos l && Hashtbl.mem pos s then
            Alcotest.(check bool) "topological for acyclic" true
              (Hashtbl.find pos l < Hashtbl.find pos s))
        (Ir.Cfg.successors cfg l))
    order

let test_unreachable_after_exit () =
  (* Statements after an unconditional exit are dropped quietly. *)
  let cfg = lower "loop\n  exit\n  x = 1\nendloop" in
  Alcotest.(check bool) "builds" true (Ir.Cfg.num_blocks cfg > 0)

let test_index_lookup () =
  let cfg = lower "x = 1\ny = x + 2" in
  Ir.Cfg.iter_instrs cfg (fun label (i : Ir.Instr.t) ->
      Alcotest.(check int) "block_of_instr" label
        (Ir.Cfg.block_of_instr cfg i.Ir.Instr.id));
  Alcotest.(check bool) "missing instr" true (Ir.Cfg.find_instr_opt cfg 9999 = None)

(* The block store grows by doubling: after 10k additions labels are
   still dense, every block is reachable by its label, and labels past
   the end (or below zero) still raise. *)
let test_many_blocks () =
  let cfg = Ir.Cfg.create () in
  let n = 10_000 in
  for i = 1 to n do
    let l = Ir.Cfg.add_block cfg in
    if l <> i then Alcotest.failf "block %d got label %d" i l;
    Ir.Cfg.set_term cfg (i - 1) (Ir.Cfg.Jump l)
  done;
  Alcotest.(check int) "num_blocks" (n + 1) (Ir.Cfg.num_blocks cfg);
  Alcotest.(check bool) "labels dense" true
    (Ir.Cfg.labels cfg = List.init (n + 1) Fun.id);
  List.iter
    (fun l ->
      Alcotest.(check int) "block label" l (Ir.Cfg.block cfg l).Ir.Cfg.label)
    (Ir.Cfg.labels cfg);
  Alcotest.(check (list int)) "last preds" [ n - 1 ] (Ir.Cfg.predecessors cfg n);
  Alcotest.(check int) "reverse postorder" (n + 1)
    (List.length (Ir.Cfg.reverse_postorder cfg));
  List.iter
    (fun l ->
      Alcotest.check_raises "out of range" (Invalid_argument "index out of bounds")
        (fun () -> ignore (Ir.Cfg.block cfg l)))
    [ n + 1; n + 2; 2 * n; -1 ]

let suite =
  ( "cfg-lowering",
    [
      Helpers.case "straight line" test_straightline;
      Helpers.case "if shape" test_if_shape;
      Helpers.case "loop shape" test_loop_shape;
      Helpers.case "for desugaring" test_for_desugar;
      Helpers.case "exit outside loop" test_exit_outside_loop_fails;
      Helpers.case "reverse postorder" test_reverse_postorder;
      Helpers.case "unreachable after exit" test_unreachable_after_exit;
      Helpers.case "instruction index" test_index_lookup;
      Helpers.case "10k add_block" test_many_blocks;
    ] )
