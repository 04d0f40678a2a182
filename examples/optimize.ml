(* An optimization pipeline driven entirely by the classification:

     1. LICM      — classification [Invariant] justifies hoisting;
     2. strength reduction — classification [Linear] justifies turning
                    multiplies into add chains (the transformation the
                    paper says IV analysis is classically tied to);
     3. DCE       — sweeps the dead operand chains the rewrite leaves.

   The example verifies the rewritten program against the original with
   the reference interpreter, instruction counts included.

   Run with:  dune exec examples/optimize.exe *)

let program = {|
base = n * 8 + 16
L1: for i = 0 to 99 loop
  x = n * 4
  A(i * 8 + base) = A(i * 8 + base - 8) + x
endloop
|}

let footprint ssa params =
  let st = Ir.Interp.run ~fuel:1_000_000 ~params ssa in
  Hashtbl.fold
    (fun (a, idx) v acc -> (Ir.Ident.name a, idx, v) :: acc)
    st.Ir.Interp.arrays []
  |> List.sort compare

let count_op ssa pred =
  let n = ref 0 in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
      if pred i.Ir.Instr.op then incr n);
  !n

let is_mul = function Ir.Instr.Binop Ir.Ops.Mul -> true | _ -> false

let () =
  let params x = if Ir.Ident.name x = "n" then 5 else 0 in
  let reference = footprint (Ir.Ssa.of_source program) params in

  let ssa = Ir.Ssa.of_source program in
  Printf.printf "multiplies before: %d\n" (count_op ssa is_mul);

  let t = Analysis.Pipeline.analyze ssa in
  let hoisted = Transform.Licm.hoist t in
  Printf.printf "licm hoisted     : %d instructions\n" (List.length hoisted);

  let reduced = Transform.Strength_reduction.reduce t in
  Printf.printf "strength reduced : %d multiplies -> add chains\n" (List.length reduced);

  let removed = Transform.Dce.run (Ir.Ssa.cfg ssa) in
  Printf.printf "dce removed      : %d dead instructions\n" removed;

  Printf.printf "multiplies after : %d\n" (count_op ssa is_mul);

  (match Ir.Ssa.check ssa with
   | [] -> print_endline "ssa after rewrite: valid"
   | errs -> List.iter (fun d -> print_endline (Ir.Diag.to_string d)) errs);

  let optimized = footprint ssa params in
  Printf.printf "semantics preserved: %b\n" (reference = optimized);

  print_endline "\n--- optimized code ---";
  print_endline (Ir.Ssa.to_string ssa)
