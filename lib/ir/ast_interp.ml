(* Direct interpreter for the surface AST.

   This is deliberately an *independent* implementation of the language
   semantics: the property tests run random programs through both this
   interpreter and the SSA-level interpreter (AST -> CFG -> SSA ->
   Interp) and require identical observable behaviour, which validates
   the whole lowering and SSA-construction pipeline against the
   language's direct meaning. *)

type state = {
  env : (Ident.t, int) Hashtbl.t;
  arrays : (Ident.t * int list, int) Hashtbl.t;
  params : Ident.t -> int;
  rand : unit -> bool;
  mutable steps : int;
  fuel : int;
}

type outcome = Halted | Out_of_fuel | Trapped of Ops.trap

exception Stop
exception Exit_loop

let lookup st x =
  match Hashtbl.find_opt st.env x with
  | Some v -> v
  | None -> st.params x

let charge st =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then raise Stop

let rec eval st (e : Ast.expr) : int =
  charge st;
  match e with
  | Ast.Int n -> n
  | Ast.Var x -> lookup st x
  | Ast.Aref (a, idx) ->
    let idx = List.map (eval st) idx in
    Option.value ~default:0 (Hashtbl.find_opt st.arrays (a, idx))
  | Ast.Binop (op, a, b) ->
    let va = eval st a in
    let vb = eval st b in
    Ops.eval_binop op va vb
  | Ast.Neg a -> Ops.neg (eval st a)

let eval_cond st (c : Ast.cond) : bool =
  match c with
  | Ast.Cmp (op, a, b) ->
    let va = eval st a in
    let vb = eval st b in
    Ops.eval_relop op va vb
  | Ast.Unknown -> st.rand ()

let rec exec st (s : Ast.stmt) : unit =
  charge st;
  match s with
  | Ast.Assign (x, e) -> Hashtbl.replace st.env x (eval st e)
  | Ast.Astore (a, idx, e) ->
    let idx = List.map (eval st) idx in
    let v = eval st e in
    Hashtbl.replace st.arrays (a, idx) v
  | Ast.If (c, t, e) -> exec_list st (if eval_cond st c then t else e)
  | Ast.Exit_if c -> if eval_cond st c then raise Exit_loop
  | Ast.Loop (_, body) -> (
    try
      while true do
        exec_list st body
      done
    with Exit_loop -> ())
  | Ast.For { var; lo; hi; step; body; _ } -> (
    (* Matches the lowering in Lower: lo then the bound are evaluated
       once, the exit test runs before the body, the increment after. *)
    let lo_v = eval st lo in
    let limit = eval st hi in
    Hashtbl.replace st.env var lo_v;
    try
      while true do
        let i = lookup st var in
        if (step > 0 && i > limit) || (step < 0 && i < limit) then raise Exit_loop;
        exec_list st body;
        Hashtbl.replace st.env var (Ops.add (lookup st var) step)
      done
    with Exit_loop -> ())

and exec_list st stmts = List.iter (exec st) stmts

(* [run program] executes the whole program. *)
let run ?(fuel = 100_000) ?(params = fun _ -> 0) ?(rand = fun () -> false)
    ?(arrays = []) (p : Ast.program) =
  let st =
    {
      env = Hashtbl.create 32;
      arrays =
        (let h = Hashtbl.create 64 in
         List.iter (fun (key, v) -> Hashtbl.replace h key v) arrays;
         h);
      params;
      rand;
      steps = 0;
      fuel;
    }
  in
  let outcome =
    try exec_list st p.Ast.stmts; Halted with
    | Stop -> Out_of_fuel
    | Ops.Trap trap -> Trapped trap
  in
  (st, outcome)

(* [array_footprint st] is the final array state, sorted, for comparison
   with the SSA interpreter. *)
let array_footprint st =
  Hashtbl.fold (fun (a, idx) v acc -> (Ident.name a, idx, v) :: acc) st.arrays []
  |> List.sort compare
