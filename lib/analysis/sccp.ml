(* Sparse conditional constant propagation (Wegman–Zadeck [WZ91]) on the
   SSA-form CFG.

   The paper uses constant propagation to resolve the initial values of
   induction variables ("the initial value coming in from outside the
   loop can often be evaluated and substituted, using an algorithm such
   as constant propagation"); the classification driver feeds this pass's
   results into the symbolic atoms of initial values.

   Standard three-level lattice: Top (no evidence yet), Const n, Bottom
   (overdefined). Phi meets only over executable incoming edges; branch
   conditions with constant values keep the untaken edge dead. *)

type lattice = Top | Const of int | Bottom

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y -> if x = y then Const x else Bottom
  | Bottom, _ | _, Bottom -> Bottom

let lattice_equal a b =
  match (a, b) with
  | Top, Top | Bottom, Bottom -> true
  | Const x, Const y -> x = y
  | (Top | Const _ | Bottom), _ -> false

type result = {
  values : lattice Ir.Instr.Id.Table.t;
  executable_blocks : bool array;
}

(* [value_of result id] is the lattice value of a def. *)
let value_of r id =
  Option.value ~default:Top (Ir.Instr.Id.Table.find_opt r.values id)

(* [const_of result id] is [Some n] when the def is a known constant. *)
let const_of r id =
  match value_of r id with Const n -> Some n | Top | Bottom -> None

let block_executable r l = r.executable_blocks.(l)

let run (ssa : Ir.Ssa.t) : result =
  (* The def-use chains, edge-executability set and worklists are pure
     working state — borrowed from the domain's scratch capsule so a
     batch over many programs reuses one allocation. [values] escapes
     in the result and stays fresh. *)
  Scratch.with_sccp @@ fun scratch ->
  let cfg = Ir.Ssa.cfg ssa in
  let nblocks = Ir.Cfg.num_blocks cfg in
  let preds = Ir.Cfg.pred_table cfg in
  let values : lattice Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 256 in
  let get id = Option.value ~default:Top (Ir.Instr.Id.Table.find_opt values id) in
  let value_of_operand (v : Ir.Instr.value) =
    match v with
    | Ir.Instr.Const n -> Const n
    | Ir.Instr.Param _ -> Bottom (* unknown program input *)
    | Ir.Instr.Def d -> get d
  in
  (* Def-use chains: users of each def, plus blocks whose terminator uses
     the def. *)
  let users = scratch.Scratch.users in
  let branch_users = scratch.Scratch.branch_users in
  let add_user d (i : Ir.Instr.t) =
    let cur = Option.value ~default:[] (Ir.Instr.Id.Table.find_opt users d) in
    Ir.Instr.Id.Table.replace users d (i :: cur)
  in
  Ir.Cfg.iter_instrs cfg (fun _ instr ->
      Array.iter
        (fun (v : Ir.Instr.value) ->
          match v with Ir.Instr.Def d -> add_user d instr | _ -> ())
        instr.Ir.Instr.args);
  List.iter
    (fun l ->
      match (Ir.Cfg.block cfg l).Ir.Cfg.term with
      | Ir.Cfg.Branch (Ir.Instr.Def d, _, _) ->
        let cur = Option.value ~default:[] (Ir.Instr.Id.Table.find_opt branch_users d) in
        Ir.Instr.Id.Table.replace branch_users d (l :: cur)
      | _ -> ())
    (Ir.Cfg.labels cfg);
  (* Edge executability, keyed (from, to). *)
  let edge_exec = scratch.Scratch.edge_exec in
  let block_exec = Array.make nblocks false in
  let flow_work = scratch.Scratch.flow_work in
  let ssa_work = scratch.Scratch.ssa_work in
  let block_of (i : Ir.Instr.t) = Ir.Cfg.block_of_instr cfg i.Ir.Instr.id in
  let rec set_value (i : Ir.Instr.t) v =
    if not (lattice_equal (get i.Ir.Instr.id) v) then begin
      Ir.Instr.Id.Table.replace values i.Ir.Instr.id v;
      List.iter
        (fun u -> Queue.push u ssa_work)
        (Option.value ~default:[] (Ir.Instr.Id.Table.find_opt users i.Ir.Instr.id));
      (* Re-examine branches controlled by this def. *)
      List.iter
        (fun l -> if block_exec.(l) then examine_terminator l)
        (Option.value ~default:[]
           (Ir.Instr.Id.Table.find_opt branch_users i.Ir.Instr.id))
    end
  and examine_terminator l =
    match (Ir.Cfg.block cfg l).Ir.Cfg.term with
    | Ir.Cfg.Jump t -> Queue.push (l, t) flow_work
    | Ir.Cfg.Branch (c, t1, t2) -> (
      match value_of_operand c with
      | Const 0 -> Queue.push (l, t2) flow_work
      | Const _ -> Queue.push (l, t1) flow_work
      | Bottom ->
        Queue.push (l, t1) flow_work;
        Queue.push (l, t2) flow_work
      | Top -> ())
    | Ir.Cfg.Halt -> ()
  in
  (* A fold that traps is not a constant: the run stops there. *)
  let fold f a = match f a with n -> Const n | exception Ir.Ops.Trap _ -> Bottom in
  let eval_instr (i : Ir.Instr.t) =
    let arg k = value_of_operand i.Ir.Instr.args.(k) in
    match i.Ir.Instr.op with
    | Ir.Instr.Binop op -> (
      (* 0 * x = 0 first (monotone: a Const 0 operand can only fall to
         Bottom, which takes the result to Bottom too). *)
      match (op, arg 0, arg 1) with
      | Ir.Ops.Mul, Const 0, _ | Ir.Ops.Mul, _, Const 0 -> Const 0
      | _, Const a, Const b -> fold (Ir.Ops.eval_binop op a) b
      | _, Top, _ | _, _, Top -> Top
      | _, Bottom, _ | _, _, Bottom -> Bottom)
    | Ir.Instr.Relop op -> (
      match (arg 0, arg 1) with
      | Const a, Const b -> Const (if Ir.Ops.eval_relop op a b then 1 else 0)
      | Bottom, _ | _, Bottom -> Bottom
      | Top, _ | _, Top -> Top)
    | Ir.Instr.Neg -> (
      match arg 0 with Const a -> fold Ir.Ops.neg a | x -> x)
    | Ir.Instr.Phi ->
      let l = block_of i in
      let ps = preds.(l) in
      List.fold_left
        (fun acc (k, p) ->
          if Hashtbl.mem edge_exec (p, l) then meet acc (arg k) else acc)
        Top
        (List.mapi (fun k p -> (k, p)) ps)
    | Ir.Instr.Astore _ -> arg (Array.length i.Ir.Instr.args - 1)
    | Ir.Instr.Aload _ | Ir.Instr.Rand -> Bottom
    | Ir.Instr.Load _ | Ir.Instr.Store _ ->
      invalid_arg "Sccp.run: program not in SSA form"
  in
  let visit_block l =
    List.iter (fun (i : Ir.Instr.t) -> set_value i (eval_instr i)) (Ir.Cfg.block cfg l).Ir.Cfg.instrs;
    examine_terminator l
  in
  Queue.push (-1, Ir.Cfg.entry cfg) flow_work;
  let continue = ref true in
  while !continue do
    if not (Queue.is_empty flow_work) then begin
      let from, dest = Queue.pop flow_work in
      let edge_new = from >= 0 && not (Hashtbl.mem edge_exec (from, dest)) in
      if from >= 0 then Hashtbl.replace edge_exec (from, dest) ();
      if not block_exec.(dest) then begin
        block_exec.(dest) <- true;
        visit_block dest
      end
      else if edge_new then
        (* New incoming edge: phis in [dest] may change. *)
        List.iter
          (fun (i : Ir.Instr.t) ->
            if i.Ir.Instr.op = Ir.Instr.Phi then set_value i (eval_instr i))
          (Ir.Cfg.block cfg dest).Ir.Cfg.instrs
    end
    else if not (Queue.is_empty ssa_work) then begin
      let i = Queue.pop ssa_work in
      if block_exec.(block_of i) then set_value i (eval_instr i)
    end
    else continue := false
  done;
  { values; executable_blocks = block_exec }

(* [fold_stats r ssa] counts instructions proved constant and blocks
   proved dead — the headline numbers a compiler would report. *)
let fold_stats r (ssa : Ir.Ssa.t) =
  let cfg = Ir.Ssa.cfg ssa in
  let consts = ref 0 and total = ref 0 in
  Ir.Cfg.iter_instrs cfg (fun l i ->
      if r.executable_blocks.(l) then begin
        incr total;
        match value_of r i.Ir.Instr.id with Const _ -> incr consts | _ -> ()
      end);
  let dead =
    Array.to_list r.executable_blocks |> List.filter (fun x -> not x) |> List.length
  in
  (!consts, !total, dead)
