(* Loop interchange for perfect 2-deep nests, with legality decided by
   the dependence graph (paper §6.1: the triangular example's
   iteration-space distance (1, -1) is exactly what makes interchange
   illegal there, while the rectangular variant's (1, 0) permits it). *)

module Dep_graph = Dependence.Dep_graph
module Pipeline = Analysis.Pipeline

(* [apply p ~outer_name] swaps the named perfect nest in the AST.
   @raise Invalid_argument if no loop of that name is a perfect 2-deep
   nest or its bounds are not independent of each other's index. *)
let apply (p : Ir.Ast.program) ~outer_name : Ir.Ast.program =
  let rec uses_var var (e : Ir.Ast.expr) =
    match e with
    | Ir.Ast.Int _ -> false
    | Ir.Ast.Var x -> Ir.Ident.equal x var
    | Ir.Ast.Aref (_, idx) -> List.exists (uses_var var) idx
    | Ir.Ast.Binop (_, a, b) -> uses_var var a || uses_var var b
    | Ir.Ast.Neg a -> uses_var var a
  in
  let not_perfect () =
    invalid_arg ("Interchange.apply: " ^ outer_name ^ " is not a perfect 2-deep nest")
  in
  let swapped = ref false in
  let rec stmt (s : Ir.Ast.stmt) : Ir.Ast.stmt =
    match s with
    | Ir.Ast.For ({ name; body = [ Ir.Ast.For inner ]; _ } as outer)
      when String.equal name outer_name ->
      if
        uses_var outer.Ir.Ast.var inner.Ir.Ast.lo
        || uses_var outer.Ir.Ast.var inner.Ir.Ast.hi
      then
        invalid_arg
          "Interchange.apply: inner bounds depend on the outer index (skew first)";
      swapped := true;
      Ir.Ast.For
        {
          inner with
          Ir.Ast.body =
            [ Ir.Ast.For { outer with Ir.Ast.body = inner.Ir.Ast.body } ];
        }
    | Ir.Ast.For { name; _ } when String.equal name outer_name -> not_perfect ()
    | Ir.Ast.For f -> Ir.Ast.For { f with Ir.Ast.body = List.map stmt f.Ir.Ast.body }
    | Ir.Ast.Loop (n, body) -> Ir.Ast.Loop (n, List.map stmt body)
    | Ir.Ast.If (c, t, e) -> Ir.Ast.If (c, List.map stmt t, List.map stmt e)
    | Ir.Ast.Assign _ | Ir.Ast.Astore _ | Ir.Ast.Exit_if _ -> s
  in
  let p = { p with Ir.Ast.stmts = List.map stmt p.Ir.Ast.stmts } in
  if not !swapped then not_perfect ();
  p

(* [legal_for_source src ~outer_name ~inner_name] is the whole check:
   analyze, build the dependence graph, decide. *)
let legal_for_source src ~outer_name ~inner_name =
  let t = Pipeline.analyze (Ir.Ssa.of_source src) in
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  match
    (Ir.Loops.find_by_name loops outer_name, Ir.Loops.find_by_name loops inner_name)
  with
  | Some o, Some i ->
    Some
      (Dep_graph.permits_interchange (Dep_graph.build t) ~outer:o.Ir.Loops.id
         ~inner:i.Ir.Loops.id)
  | _ -> None
