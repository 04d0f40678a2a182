(* The triangular-loop example the paper highlights from [EHLP92]
   (Figure 9): the inner loop's bound depends on the outer index, which
   made the generalized induction variable "so difficult" for other
   frameworks — and falls out directly here:

     - the inner loop is countable with a *symbolic* trip count (i),
     - the exit value of j substitutes into the outer cycle,
     - the outer cycle's cumulative effect is to add a linear IV,
     - so j is a *quadratic* family: j2 = (L19, 0, 1, 1), value h^2 + h.

   This example also validates the closed form against the reference
   interpreter for a concrete n.

   Run with:  dune exec examples/triangular.exe *)

let program = {|
j = 0
L19: for i = 1 to n loop
  j = j + i
  L20: for k = 1 to i loop
    j = j + 1
  endloop
endloop
|}

let () =
  let ssa = Ir.Ssa.of_source program in
  let t = Analysis.Pipeline.analyze ssa in
  print_string (Analysis.Pipeline.report_of t);

  (* The quadratic closed form of the outer j. *)
  (match Analysis.Pipeline.class_of_name t "j2" with
   | Some c -> Printf.printf "\nj2 = %s\n" (Analysis.Pipeline.class_to_string t c)
   | None -> ());

  (* Validate: observed j2 values vs h^2 + h for n = 12. *)
  let n = 12 in
  let params x = if Ir.Ident.name x = "n" then n else 0 in
  let target =
    match Ir.Ssa.value_of_name ssa "j2" with
    | Some (Ir.Instr.Def id) -> id
    | _ -> failwith "j2 not found"
  in
  let _, traces =
    Ir.Interp.trace_of ~fuel:100_000 ~params ssa (Ir.Instr.Id.Set.singleton target)
  in
  let obs = Ir.Instr.Id.Map.find target traces in
  let cls = Option.get (Analysis.Pipeline.class_of_name t "j2") in
  let lookup = function
    | Analysis.Sym.Param x -> Some (Bignum.Rat.of_int (params x))
    | Analysis.Sym.Def _ -> None
  in
  let all_match =
    List.for_all
      (fun (h, v) ->
        match Analysis.Ivclass.eval_at lookup cls h with
        | Some p -> Bignum.Rat.equal p (Bignum.Rat.of_int v)
        | None -> false)
      obs
  in
  Printf.printf "closed form matches all %d observations: %b\n" (List.length obs)
    all_match
