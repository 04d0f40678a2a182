(* Loop normalization (paper §6.1): rewrite every 'for' loop to run from
   0 with step 1, substituting [i := i' * step + lo] in the body.

   The paper uses this transformation to show an artifact it critiques:
   normalizing L24 changes the distance vector of

       for i = 1 to n { for j = i+1 to n { A(i,j) = A(i-1,j) } }

   from (1, 0) to (1, -1), which blocks loop interchange — while the
   SSA-based classification is insensitive to the loop's textual shape.
   Normalization is provided so the experiment can be reproduced. *)

let counter = ref 0

let fresh_var base =
  incr counter;
  Ir.Ident.of_string (Printf.sprintf "%s_n%d" (Ir.Ident.name base) !counter)

let rec subst_expr var replacement (e : Ir.Ast.expr) : Ir.Ast.expr =
  match e with
  | Ir.Ast.Int _ -> e
  | Ir.Ast.Var x -> if Ir.Ident.equal x var then replacement else e
  | Ir.Ast.Aref (a, idx) -> Ir.Ast.Aref (a, List.map (subst_expr var replacement) idx)
  | Ir.Ast.Binop (op, a, b) ->
    Ir.Ast.Binop (op, subst_expr var replacement a, subst_expr var replacement b)
  | Ir.Ast.Neg a -> Ir.Ast.Neg (subst_expr var replacement a)

let subst_cond var replacement (c : Ir.Ast.cond) : Ir.Ast.cond =
  match c with
  | Ir.Ast.Cmp (op, a, b) ->
    Ir.Ast.Cmp (op, subst_expr var replacement a, subst_expr var replacement b)
  | Ir.Ast.Unknown -> Ir.Ast.Unknown

let rec subst_stmt var replacement (s : Ir.Ast.stmt) : Ir.Ast.stmt =
  match s with
  | Ir.Ast.Assign (x, e) ->
    (* A write to the index inside the body would invalidate the
       substitution; for-loop bodies in this language do not assign their
       index (enforced here). *)
    if Ir.Ident.equal x var then
      invalid_arg "Normalize: loop body assigns its own index";
    Ir.Ast.Assign (x, subst_expr var replacement e)
  | Ir.Ast.Astore (a, idx, e) ->
    Ir.Ast.Astore
      (a, List.map (subst_expr var replacement) idx, subst_expr var replacement e)
  | Ir.Ast.If (c, t, e) ->
    Ir.Ast.If
      ( subst_cond var replacement c,
        List.map (subst_stmt var replacement) t,
        List.map (subst_stmt var replacement) e )
  | Ir.Ast.Loop (name, body) ->
    Ir.Ast.Loop (name, List.map (subst_stmt var replacement) body)
  | Ir.Ast.For f ->
    if Ir.Ident.equal f.Ir.Ast.var var then s
    else
      Ir.Ast.For
        {
          f with
          Ir.Ast.lo = subst_expr var replacement f.Ir.Ast.lo;
          hi = subst_expr var replacement f.Ir.Ast.hi;
          body = List.map (subst_stmt var replacement) f.Ir.Ast.body;
        }
  | Ir.Ast.Exit_if c -> Ir.Ast.Exit_if (subst_cond var replacement c)

(* The value of a bound built from literals. @raise Ir.Ops.Trap when
   evaluating it traps (the loop then traps too). *)
let rec constant (e : Ir.Ast.expr) =
  match e with
  | Ir.Ast.Int n -> Some n
  | Ir.Ast.Neg a -> Option.map Ir.Ops.neg (constant a)
  | Ir.Ast.Binop (op, a, b) -> (
    match (constant a, constant b) with
    | Some x, Some y -> Some (Ir.Ops.eval_binop op x y)
    | _ -> None)
  | Ir.Ast.Var _ | Ir.Ast.Aref _ -> None

(* The bound of a loop with constant bounds, folded: -1 for an empty
   loop, else floor((hi - lo) / step). Folding keeps the normalized loop
   from computing hi - lo, which can leave the native range where the
   loop's own values do not; a loop whose span or last offset
   [bound * step] leaves it is not normalized. *)
let constant_bound lo hi step =
  if (step > 0 && hi < lo) || (step < 0 && hi > lo) then -1
  else
    try
      let bound = Ir.Ops.div (Ir.Ops.sub hi lo) step in
      ignore (Ir.Ops.mul bound step);
      bound
    with Ir.Ops.Trap _ -> invalid_arg "Normalize: loop span leaves the 63-bit range"

(* [normalize_stmt s] normalizes all for loops in [s], innermost last. *)
let rec normalize_stmt (s : Ir.Ast.stmt) : Ir.Ast.stmt =
  match s with
  | Ir.Ast.For { name; var; lo; hi; step; body } ->
    let body = List.map normalize_stmt body in
    let nv = fresh_var var in
    (* i = i' * step + lo *)
    let replacement =
      Ir.Ast.Binop
        (Ir.Ops.Add, Ir.Ast.Binop (Ir.Ops.Mul, Ir.Ast.Var nv, Ir.Ast.Int step), lo)
    in
    let body = List.map (subst_stmt var replacement) body in
    let bound =
      match (constant lo, constant hi) with
      | Some l, Some h -> Ir.Ast.Int (constant_bound l h step)
      | _ | (exception Ir.Ops.Trap _) ->
        (* The new bound is floor((hi - lo) / step); with the language's
           truncating division that is (hi - lo + step)/step - 1, which
           is also correct for empty loops and negative steps. *)
        Ir.Ast.Binop
          ( Ir.Ops.Sub,
            Ir.Ast.Binop
              ( Ir.Ops.Div,
                Ir.Ast.Binop (Ir.Ops.Add, Ir.Ast.Binop (Ir.Ops.Sub, hi, lo), Ir.Ast.Int step),
                Ir.Ast.Int step ),
            Ir.Ast.Int 1 )
    in
    Ir.Ast.For { name; var = nv; lo = Ir.Ast.Int 0; hi = bound; step = 1; body }
  | Ir.Ast.Loop (name, body) -> Ir.Ast.Loop (name, List.map normalize_stmt body)
  | Ir.Ast.If (c, t, e) ->
    Ir.Ast.If (c, List.map normalize_stmt t, List.map normalize_stmt e)
  | Ir.Ast.Assign _ | Ir.Ast.Astore _ | Ir.Ast.Exit_if _ -> s

let normalize (p : Ir.Ast.program) : Ir.Ast.program =
  { p with Ir.Ast.stmts = List.map normalize_stmt p.Ir.Ast.stmts }
