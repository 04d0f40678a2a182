(* Quickstart: parse a loop, build SSA, classify every variable, and ask
   questions about specific SSA names.

   Run with:  dune exec examples/quickstart.exe *)

let program = {|
# The paper's running example (Figure 1, loop L7): a mutually-defined
# pair of linear induction variables.
j = n
L7: loop
  i = j + c
  j = i + k
endloop
|}

let () =
  (* Front end: source -> AST -> CFG -> SSA. *)
  let ssa = Ir.Ssa.of_source program in
  print_endline "--- SSA form ---";
  print_endline (Ir.Ssa.to_string ssa);

  (* The analysis driver classifies every loop, inner to outer. *)
  let t = Analysis.Pipeline.analyze ssa in
  print_endline "--- classification report ---";
  print_string (Analysis.Pipeline.report_of t);

  (* Classifications can be looked up by SSA name (the names in the
     report, matching the paper's subscripted figures). *)
  print_endline "--- individual lookups ---";
  List.iter
    (fun name ->
      match Analysis.Pipeline.class_of_name t name with
      | Some c ->
        Printf.printf "%-4s : %s\n" name (Analysis.Pipeline.class_to_string t c)
      | None -> Printf.printf "%-4s : (no such name)\n" name)
    [ "j2"; "i2"; "j3" ];

  (* The classifier's verdicts are closed forms: j2 = n + (c+k)*h.
     Check it against the reference interpreter for n=10, c=2, k=3. *)
  let params x =
    match Ir.Ident.name x with "n" -> 10 | "c" -> 2 | "k" -> 3 | _ -> 0
  in
  let target =
    match Ir.Ssa.value_of_name ssa "j2" with
    | Some (Ir.Instr.Def id) -> id
    | _ -> failwith "j2 not found"
  in
  let _, traces =
    Ir.Interp.trace_of ~fuel:200 ~params ssa (Ir.Instr.Id.Set.singleton target)
  in
  let observed = Ir.Instr.Id.Map.find target traces in
  print_endline "--- j2 observed vs predicted (first 8 iterations) ---";
  let c = Option.get (Analysis.Pipeline.class_of_name t "j2") in
  List.iteri
    (fun i (h, v) ->
      if i < 8 then begin
        let predicted =
          Analysis.Ivclass.eval_at
            (function
              | Analysis.Sym.Param x -> Some (Bignum.Rat.of_int (params x))
              | Analysis.Sym.Def _ -> None)
            c h
        in
        Printf.printf "h=%d observed=%d predicted=%s\n" h v
          (match predicted with
           | Some p -> Bignum.Rat.to_string p
           | None -> "?")
      end)
    observed
