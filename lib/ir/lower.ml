(* Lowering from the structured AST to the tuple-IR CFG.

   Statements lower in source order. Loops produce:

     preheader:  (code before the loop)         jump header
     header:     (start of loop body; phis will be placed here)
     ...body...
     latch:      (end of body)                  jump header
     after:      (code after the loop)

   'for' loops desugar per the paper's §5.2 shape: the bound is evaluated
   once into a compiler temp, the exit test sits at the top of the body,
   and the increment at the bottom, so the loop is countable:

     i = lo; limit = hi
     loop
       if i > limit exit      (or '<' for negative step)
       ...body...
       i = i + step
     endloop *)

type ctx = {
  cfg : Cfg.t;
  mutable current : Label.t option; (* None when the block was terminated *)
  mutable exits : Label.t list; (* innermost-first loop exit targets *)
  mutable limits : int; (* 'for'-loop bound temps minted so far *)
}

let emit ctx op args =
  match ctx.current with
  | None ->
    (* Unreachable code (after an unconditional exit): drop it. *)
    Instr.Const 0
  | Some label -> Instr.Def (Cfg.append ctx.cfg label op args).Instr.id

let rec lower_expr ctx (e : Ast.expr) : Instr.value =
  match e with
  | Ast.Int n -> Instr.Const n
  | Ast.Var x -> emit ctx (Instr.Load x) [||]
  | Ast.Aref (a, idx) ->
    let idx = List.map (lower_expr ctx) idx in
    emit ctx (Instr.Aload a) (Array.of_list idx)
  | Ast.Binop (op, a, b) ->
    let va = lower_expr ctx a in
    let vb = lower_expr ctx b in
    emit ctx (Instr.Binop op) [| va; vb |]
  | Ast.Neg a ->
    let va = lower_expr ctx a in
    emit ctx Instr.Neg [| va |]

let lower_cond ctx (c : Ast.cond) : Instr.value =
  match c with
  | Ast.Cmp (op, a, b) ->
    let va = lower_expr ctx a in
    let vb = lower_expr ctx b in
    emit ctx (Instr.Relop op) [| va; vb |]
  | Ast.Unknown -> emit ctx Instr.Rand [||]

let terminate ctx term =
  match ctx.current with
  | None -> ()
  | Some label ->
    Cfg.set_term ctx.cfg label term;
    ctx.current <- None

let start_block ctx label = ctx.current <- Some label

(* Fresh compiler temps for 'for'-loop bounds; '$' cannot appear in source
   identifiers so there is no capture. The counter lives in the lowering
   context: two lowerings of the same program mint identical names, so
   reports are reproducible however many times a process re-lowers. *)
let limit_temp ctx name =
  ctx.limits <- ctx.limits + 1;
  Ident.of_string (Printf.sprintf "%s$limit%d" name ctx.limits)

let rec lower_stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Assign (x, e) ->
    let v = lower_expr ctx e in
    ignore (emit ctx (Instr.Store x) [| v |])
  | Ast.Astore (a, idx, e) ->
    let idx = List.map (lower_expr ctx) idx in
    let v = lower_expr ctx e in
    ignore (emit ctx (Instr.Astore a) (Array.of_list (idx @ [ v ])))
  | Ast.If (c, then_s, else_s) ->
    let cond = lower_cond ctx c in
    let bt = Cfg.add_block ctx.cfg in
    let be = Cfg.add_block ctx.cfg in
    let join = Cfg.add_block ctx.cfg in
    terminate ctx (Cfg.Branch (cond, bt, be));
    start_block ctx bt;
    lower_stmts ctx then_s;
    terminate ctx (Cfg.Jump join);
    start_block ctx be;
    lower_stmts ctx else_s;
    terminate ctx (Cfg.Jump join);
    start_block ctx join
  | Ast.Exit_if c ->
    let cond = lower_cond ctx c in
    (match ctx.exits with
     | [] -> failwith "Lower: 'exit' outside of any loop"
     | exit_target :: _ ->
       let cont = Cfg.add_block ctx.cfg in
       terminate ctx (Cfg.Branch (cond, exit_target, cont));
       start_block ctx cont)
  | Ast.Loop (name, body) ->
    let header = Cfg.add_block ctx.cfg in
    (Cfg.block ctx.cfg header).Cfg.loop_name <- Some name;
    let after = Cfg.add_block ctx.cfg in
    terminate ctx (Cfg.Jump header);
    start_block ctx header;
    ctx.exits <- after :: ctx.exits;
    lower_stmts ctx body;
    ctx.exits <- List.tl ctx.exits;
    terminate ctx (Cfg.Jump header);
    start_block ctx after
  | Ast.For { name; var; lo; hi; step; body } ->
    let vlo = lower_expr ctx lo in
    ignore (emit ctx (Instr.Store var) [| vlo |]);
    let limit = limit_temp ctx name in
    let vhi = lower_expr ctx hi in
    ignore (emit ctx (Instr.Store limit) [| vhi |]);
    let exit_op = if step > 0 then Ops.Gt else Ops.Lt in
    let desugared_body =
      Ast.Exit_if (Ast.Cmp (exit_op, Ast.Var var, Ast.Var limit))
      :: body
      @ [ Ast.Assign (var, Ast.Binop (Ops.Add, Ast.Var var, Ast.Int step)) ]
    in
    lower_stmt ctx (Ast.Loop (name, desugared_body))

and lower_stmts ctx stmts = List.iter (lower_stmt ctx) stmts

(* [lower program] builds the CFG for a whole program. *)
let lower (p : Ast.program) : Cfg.t =
  let cfg = Cfg.create () in
  let ctx = { cfg; current = Some (Cfg.entry cfg); exits = []; limits = 0 } in
  lower_stmts ctx p.Ast.stmts;
  terminate ctx Cfg.Halt;
  cfg

(* [lower_source src] parses and lowers in one step. *)
let lower_source src = lower (Parser.parse src)
