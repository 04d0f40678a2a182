(* Loop-invariant code motion, driven by the classification: an
   instruction whose class is [Invariant] computes the same value on
   every iteration, so if it is pure, safe to speculate, and its operands
   are available at the preheader, it can be hoisted there.

   Safety notes:
     - division is not hoisted (a guard may be protecting a zero
       divisor);
     - arithmetic that can trap (leaving the native range) is hoisted
       only when every activation of the loop runs it: a constant trip
       count >= 1, and its block on every path to a latch or exit;
     - array loads are not hoisted (stores in the loop may change them;
       the classifier already reports them Unknown);
     - operand availability is checked by requiring every [Def] operand
       to be defined outside the loop or hoisted by this same pass. *)

module Ivclass = Analysis.Ivclass
module Pipeline = Analysis.Pipeline

let hoistable_op ~runs_always (op : Ir.Instr.op) =
  match op with
  | Ir.Instr.Relop _ -> true
  | Ir.Instr.Binop (Ir.Ops.Add | Ir.Ops.Sub | Ir.Ops.Mul) | Ir.Instr.Neg -> runs_always
  | Ir.Instr.Binop (Ir.Ops.Div | Ir.Ops.Exp)
  | Ir.Instr.Phi | Ir.Instr.Aload _ | Ir.Instr.Astore _ | Ir.Instr.Rand
  | Ir.Instr.Load _ | Ir.Instr.Store _ ->
    false

(* [runs_every_activation ssa loop trip block]: every entry into the
   loop executes [block]. *)
let runs_every_activation ssa (loop : Ir.Loops.loop) (trip : Analysis.Trip_count.t) =
  let inside l = Ir.Label.Set.mem l loop.Ir.Loops.blocks in
  match (Analysis.Trip_count.count_int trip, trip.Analysis.Trip_count.exit_block) with
  | Some n, Some counted when n >= 1 ->
    let exits =
      Ir.Label.Set.filter
        (fun l ->
          (not (Ir.Label.equal l counted))
          && not (List.for_all inside (Ir.Cfg.successors (Ir.Ssa.cfg ssa) l)))
        loop.Ir.Loops.blocks
    in
    fun block ->
      List.for_all (Ir.Dom.dominates (Ir.Ssa.dom ssa) block)
        (loop.Ir.Loops.latches @ Ir.Label.Set.elements exits)
  | _ -> fun _ -> false

(* [hoist_loop t loop_id] moves invariant instructions of one loop to its
   preheader; returns the hoisted instruction ids. *)
let hoist_loop (t : Pipeline.analysis) loop_id : Ir.Instr.Id.t list =
  let ssa = t.Pipeline.ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let loop = Ir.Loops.loop (Ir.Ssa.loops ssa) loop_id in
  match (t.Pipeline.by_loop.(loop_id), Codegen.preheader_of cfg loop) with
  | Some r, Some preheader ->
    let hoisted : unit Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 8 in
    let available (v : Ir.Instr.value) =
      match v with
      | Ir.Instr.Const _ | Ir.Instr.Param _ -> true
      | Ir.Instr.Def d ->
        Ir.Instr.Id.Table.mem hoisted d
        || not (Ir.Label.Set.mem (Ir.Cfg.block_of_instr cfg d) loop.Ir.Loops.blocks)
    in
    let runs_always = runs_every_activation ssa loop r.Pipeline.trip in
    let moved = ref [] in
    (* Resolved before the first hoist: each hoist drops the CFG's
       instruction index. *)
    let instrs =
      List.map
        (fun id -> (Ir.Cfg.find_instr cfg id, Ir.Cfg.block_of_instr cfg id))
        (Array.to_list r.Pipeline.nodes)
    in
    (* Process in program order so operand chains hoist together. *)
    List.iter
      (fun ((instr : Ir.Instr.t), block) ->
        let invariant =
          match Ir.Instr.Id.Table.find_opt r.Pipeline.table instr.Ir.Instr.id with
          | Some (Ivclass.Invariant _) -> true
          | _ -> false
        in
        if
          invariant
          && hoistable_op ~runs_always:(runs_always block) instr.Ir.Instr.op
          && Array.for_all available instr.Ir.Instr.args
        then begin
          (* Remove from its block, append to the preheader. *)
          Ir.Cfg.replace_instrs cfg block (fun instrs ->
              List.filter
                (fun (i : Ir.Instr.t) ->
                  not (Ir.Instr.Id.equal i.Ir.Instr.id instr.Ir.Instr.id))
                instrs);
          Ir.Cfg.replace_instrs cfg preheader (fun instrs -> instrs @ [ instr ]);
          Ir.Instr.Id.Table.replace hoisted instr.Ir.Instr.id ();
          moved := instr.Ir.Instr.id :: !moved
        end)
      instrs;
    List.rev !moved
  | _ -> []

(* [hoist t] hoists in every loop, innermost first (so inner-hoisted code
   can cascade out of enclosing loops on a re-analysis). *)
let hoist (t : Pipeline.analysis) : Ir.Instr.Id.t list =
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  List.concat_map
    (fun (lp : Ir.Loops.loop) -> hoist_loop t lp.Ir.Loops.id)
    (Ir.Loops.postorder loops)
