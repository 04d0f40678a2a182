(* Trip counts (paper §5.2): the relop normalization table, the
   three-case count formula, and agreement with the interpreter. *)

module Pipeline = Analysis.Pipeline
module Trip_count = Analysis.Trip_count

let trip_of src name =
  let t = Helpers.analyze src in
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  match Ir.Loops.find_by_name loops name with
  | Some lp -> Pipeline.trip_count t lp.Ir.Loops.id
  | None -> Alcotest.failf "loop %s not found" name

let check_count src name expected =
  Alcotest.(check (option int)) (src ^ " count") expected
    (Trip_count.count_int (trip_of src name))

(* The exit-condition table: every relop, exit on the true branch. *)
let test_relop_table () =
  (* "if i OP k exit" after increment; i counts 1,2,3,... *)
  let make op k =
    Printf.sprintf "i = 0\nT: loop\n  i = i + 1\n  if i %s %d exit\nendloop" op k
  in
  (* Stays while NOT (i OP k). *)
  check_count (make ">" 10) "T" (Some 10); (* stays for i=1..10 *)
  check_count (make ">=" 10) "T" (Some 9);
  check_count (make "==" 5) "T" None; (* = is not countable this way *)
  (* i < k exits immediately (i=1 < 10). *)
  check_count (make "<" 10) "T" (Some 0);
  check_count (make "<=" 10) "T" (Some 0);
  (* Decreasing variable against a lower bound. *)
  let dec = "i = 10\nT: loop\n  i = i - 2\n  if i < 3 exit\nendloop" in
  check_count dec "T" (Some 3) (* i = 8, 6, 4 stay; 2 exits *)

let test_exit_on_false_branch () =
  (* 'for' desugars to exit-on-true, but an if/else shape exercises the
     negation row: loop while i <= n. *)
  let src = "i = 1\nT: loop\n  if i <= 5 then\n    i = i + 1\n  else\n    exit\n  endif\nendloop" in
  (* The exit is conditional inside an arm; multiple blocks: count via
     the general machinery only if single exit. *)
  let tc = trip_of src "T" in
  ignore tc (* structure-dependent; just ensure no crash *)

let test_for_loop_counts () =
  check_count "for i = 1 to 10 loop\n  x = x + i\nendloop\nA(0) = x" "L1" (Some 10);
  check_count "for i = 1 to 10 by 3 loop\n  x = x + i\nendloop\nA(0) = x" "L1" (Some 4);
  check_count "for i = 10 to 1 by -2 loop\n  x = x + i\nendloop\nA(0) = x" "L1" (Some 5);
  check_count "for i = 5 to 1 loop\n  x = x + i\nendloop\nA(0) = x" "L1" (Some 0);
  check_count "for i = 3 to 3 loop\n  x = x + i\nendloop\nA(0) = x" "L1" (Some 1)

let test_infinite_and_unknown () =
  let t = trip_of "T: loop\n  x = x + 1\nendloop" "T" in
  Alcotest.(check bool) "no exit = infinite" true
    (t.Trip_count.count = Trip_count.Infinite);
  let t = trip_of "T: loop\n  x = x + 1\n  if ?? exit\nendloop" "T" in
  Alcotest.(check bool) "opaque exit = unknown" true
    (t.Trip_count.count = Trip_count.Unknown_count);
  (* Wrong-direction step runs forever. *)
  let t = trip_of "i = 1\nT: loop\n  i = i + 1\n  if i < 0 exit\nendloop" "T" in
  Alcotest.(check bool) "diverging condition" true
    (t.Trip_count.count = Trip_count.Infinite)

let test_multiple_exits_unknown () =
  let t =
    trip_of "i = 0\nT: loop\n  i = i + 1\n  if i > 10 exit\n  if i > 5 exit\nendloop" "T"
  in
  Alcotest.(check bool) "multi-exit unknown" true
    (t.Trip_count.count = Trip_count.Unknown_count)

let test_symbolic () =
  let t = trip_of "for i = 1 to n loop\n  x = x + 1\nendloop\nA(0) = x" "L1" in
  (match t.Trip_count.count with
   | Trip_count.Symbolic s ->
     Alcotest.(check bool) "count is n" true
       (Analysis.Sym.equal s (Analysis.Sym.param (Ir.Ident.of_string "n")))
   | _ -> Alcotest.fail "expected symbolic count");
  (* Symbolic lower bound too: n .. m. *)
  let t = trip_of "for i = n to m loop\n  x = x + 1\nendloop\nA(0) = x" "L1" in
  match t.Trip_count.count with
  | Trip_count.Symbolic _ -> ()
  | _ -> Alcotest.fail "expected symbolic count for n..m"

(* Property: on randomly chosen constant bounds, the computed count
   matches the interpreter. *)
let prop_counts_match_interpreter =
  Helpers.qtest ~count:120 "trip counts match execution"
    QCheck2.Gen.(triple (int_range (-5) 12) (int_range (-5) 12) (oneofl [ 1; 2; 3; -1; -2 ]))
    (fun (lo, hi, step) ->
      let src =
        Printf.sprintf "s = 0\nT: for i = %d to %d by %d loop\n  s = s + 1\nendloop\nA(0) = s" lo
          hi step
      in
      let computed = Trip_count.count_int (trip_of src "T") in
      let executed =
        let footprint = Helpers.array_footprint (Ir.Parser.parse src) in
        match footprint with
        | [ ("A", [ 0 ], v) ] -> v
        | _ -> 0
      in
      computed = Some executed)

let suite =
  ( "trip-count",
    [
      Helpers.case "relop table" test_relop_table;
      Helpers.case "exit on false branch" test_exit_on_false_branch;
      Helpers.case "for-loop counts" test_for_loop_counts;
      Helpers.case "infinite and unknown" test_infinite_and_unknown;
      Helpers.case "multiple exits" test_multiple_exits_unknown;
      Helpers.case "symbolic counts" test_symbolic;
      prop_counts_match_interpreter;
    ] )
