(* The reference interpreter: semantics of phis (parallel reads on the
   incoming edge), loop iteration counters, arrays, fuel, and parameters. *)

let run ?params ?rand ?arrays ?fuel src =
  Ir.Interp.run ?params ?rand ?arrays ?fuel (Ir.Ssa.of_source src)

let value_of_name st name =
  let ssa = st.Ir.Interp.ssa in
  match Ir.Ssa.value_of_name ssa name with
  | Some v -> Ir.Interp.value st v
  | None -> Alcotest.failf "no value named %s" name

let test_arith () =
  let st = run "x = 2 + 3 * 4\ny = (2 + 3) * 4\nz = 2 ^ 10\nw = -7 / 2\nv = 7 - 2 - 1" in
  Alcotest.(check int) "x" 14 (value_of_name st "x1");
  Alcotest.(check int) "y" 20 (value_of_name st "y1");
  Alcotest.(check int) "z" 1024 (value_of_name st "z1");
  Alcotest.(check int) "w" (-3) (value_of_name st "w1");
  Alcotest.(check int) "v" 4 (value_of_name st "v1")

let test_for_loop_sum () =
  let st = run "s = 0\nfor i = 1 to 10 loop\n  s = s + i\nendloop\nA(0) = s" in
  let a = Ir.Ident.of_string "A" in
  Alcotest.(check (option int)) "sum 1..10" (Some 55)
    (Hashtbl.find_opt st.Ir.Interp.arrays (a, [ 0 ]))

let test_rotation_semantics () =
  (* The L13 rotation: after h iterations, j holds the (h mod 3)-th of
     (1,2,3); phis must read old values in parallel. *)
  let src = {|
j = 1
k = 2
l = 3
t = 0
for it = 1 to 4 loop
  t = j
  j = k
  k = l
  l = t
  A(it) = j
endloop
|} in
  let st = run src in
  let a = Ir.Ident.of_string "A" in
  let got = List.map (fun i -> Hashtbl.find st.Ir.Interp.arrays (a, [ i ])) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "rotation" [ 2; 3; 1; 2 ] got

let test_flip_flop_semantics () =
  let st = run "j = 1\nfor it = 1 to 5 loop\n  j = 3 - j\n  A(it) = j\nendloop" in
  let a = Ir.Ident.of_string "A" in
  let got = List.map (fun i -> Hashtbl.find st.Ir.Interp.arrays (a, [ i ])) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "flip flop" [ 2; 1; 2; 1; 2 ] got

let test_params () =
  let st =
    run ~params:(fun x -> if Ir.Ident.name x = "n" then 21 else 0) "y = n * 2"
  in
  Alcotest.(check int) "param" 42 (value_of_name st "y1")

let test_arrays_preload_and_negative_index () =
  let a = Ir.Ident.of_string "A" in
  let st =
    run ~arrays:[ ((a, [ -3 ]), 99) ] "x = A(-3)\nB(x) = 1"
  in
  Alcotest.(check int) "negative index read" 99 (value_of_name st "x1")

let test_fuel () =
  let st = run ~fuel:50 "loop\n  x = x + 1\nendloop" in
  Alcotest.(check bool) "out of fuel" true (st.Ir.Interp.outcome = Ir.Interp.Out_of_fuel)

let test_loop_iter_counter () =
  (* loop_iter is 0-based and resets on re-entry. *)
  let src = "for i = 1 to 3 loop\n  for j = 1 to 2 loop\n    A(i, j) = 1\n  endloop\nendloop" in
  let ssa = Ir.Ssa.of_source src in
  let loops = Ir.Ssa.loops ssa in
  let inner =
    List.find (fun (lp : Ir.Loops.loop) -> lp.Ir.Loops.depth = 2) (Ir.Loops.all loops)
  in
  let max_h = ref (-1) in
  let resets = ref 0 in
  let last = ref 999 in
  let on_instr st (instr : Ir.Instr.t) _ =
    match instr.Ir.Instr.op with
    | Ir.Instr.Astore _ ->
      let h = Ir.Interp.loop_iter st inner.Ir.Loops.id in
      if h > !max_h then max_h := h;
      if h < !last then incr resets;
      last := h
    | _ -> ()
  in
  let _ = Ir.Interp.run ~on_instr ssa in
  Alcotest.(check int) "max inner h" 1 !max_h;
  Alcotest.(check int) "three activations" 3 !resets

let test_conditional_rand () =
  (* The '??' condition consumes the provided random stream. *)
  let flips = ref [ true; false; true ] in
  let rand () =
    match !flips with
    | [] -> false
    | b :: rest ->
      flips := rest;
      b
  in
  let st =
    run ~rand "k = 0\nfor i = 1 to 3 loop\n  if ?? then\n    k = k + 1\n  endif\nendloop\nA(0) = k"
  in
  let a = Ir.Ident.of_string "A" in
  Alcotest.(check (option int)) "two increments" (Some 2)
    (Hashtbl.find_opt st.Ir.Interp.arrays (a, [ 0 ]))

let trapped st =
  match st.Ir.Interp.outcome with
  | Ir.Interp.Trapped (trap, _) -> Some trap
  | Ir.Interp.Halted | Ir.Interp.Out_of_fuel -> None

let test_division_by_zero () =
  Alcotest.(check bool) "div by zero traps" true
    (trapped (run "x = 1 / 0") = Some Ir.Ops.Zero_divisor)

let test_checked_arithmetic () =
  let overflows f =
    Alcotest.check_raises "overflow" (Ir.Ops.Trap Ir.Ops.Overflow) (fun () -> ignore (f ()))
  in
  Alcotest.(check int) "add ok" 3 (Ir.Ops.add 1 2);
  overflows (fun () -> Ir.Ops.add max_int 1);
  overflows (fun () -> Ir.Ops.add min_int (-1));
  Alcotest.(check int) "mul ok" (-8) (Ir.Ops.mul 2 (-4));
  overflows (fun () -> Ir.Ops.mul max_int 2);
  overflows (fun () -> Ir.Ops.mul min_int (-1));
  Alcotest.(check int) "min_int * 1 ok" min_int (Ir.Ops.mul min_int 1);
  overflows (fun () -> Ir.Ops.sub min_int 1);
  overflows (fun () -> Ir.Ops.neg min_int);
  overflows (fun () -> Ir.Ops.div min_int (-1));
  overflows (fun () -> Ir.Ops.exp 2 62);
  overflows (fun () -> Ir.Ops.exp 2 100);
  Alcotest.(check int) "sub" min_int (Ir.Ops.sub (-max_int) 1);
  Alcotest.(check int) "sub min_int" max_int (Ir.Ops.sub (-1) min_int);
  overflows (fun () -> Ir.Ops.sub 0 min_int);
  Alcotest.(check int) "exp to min_int" min_int (Ir.Ops.exp (-4) 31);
  Alcotest.(check int) "exp 2^61" (1 lsl 61) (Ir.Ops.exp 2 61);
  Alcotest.(check int) "exp (-1)^huge" (-1) (Ir.Ops.exp (-1) max_int);
  Alcotest.(check int) "negative exponent" 0 (Ir.Ops.exp 2 (-1));
  Alcotest.(check int) "truncating" (-3) (Ir.Ops.div (-7) 2)

(* Programs at the edge of the native range (examples/traps): a run
   stops with a trap where it used to wrap and run out of fuel. *)
let test_range_edge_traps () =
  List.iter
    (fun src ->
      Alcotest.(check bool) src true (trapped (run src) = Some Ir.Ops.Overflow))
    [
      "n = 4611686018427387903\nfor i = n - 2 to n loop\n  A(i) = A(i + 1)\nendloop";
      "k = 0 - 4611686018427387903 - 1\nfor i = 1 to 3 loop\n  k = k - 1\n  A(i) = k\nendloop";
      "for i = 0 to 4611686018427387903 by 4611686018427387903 loop\n  A(0) = i\nendloop";
      "x = 2 ^ 100\nA(0) = x";
      "x = 0 - 4611686018427387903 - 1\nA(0) = -x";
    ]

let suite =
  ( "interp",
    [
      Helpers.case "arithmetic" test_arith;
      Helpers.case "for-loop sum" test_for_loop_sum;
      Helpers.case "rotation (parallel phis)" test_rotation_semantics;
      Helpers.case "flip-flop" test_flip_flop_semantics;
      Helpers.case "parameters" test_params;
      Helpers.case "array preload" test_arrays_preload_and_negative_index;
      Helpers.case "fuel" test_fuel;
      Helpers.case "loop iteration counters" test_loop_iter_counter;
      Helpers.case "random conditions" test_conditional_rand;
      Helpers.case "division by zero" test_division_by_zero;
      Helpers.case "checked arithmetic" test_checked_arithmetic;
      Helpers.case "range edge traps" test_range_edge_traps;
    ] )
