(* Strength reduction driven by the classification — the transformation
   classically tied to induction variable analysis (paper §1).

   Every multiplication in a loop that the classifier proved to be a
   linear induction variable (value = b + s*h with integer-coefficient
   symbolic b, s) is replaced by an addition chain:

     preheader:  t0 = <code for b>
                 ts = <code for s>
     header:     t  = phi(t0, t')
     latches:    t' = t + ts

   and every use of the multiplication reads the phi instead. The
   correctness argument is the classification itself: the multiply's
   value during iteration h equals b + s*h, which is exactly the phi's
   value. The tests validate the rewrite by running the reference
   interpreter on both versions and comparing the full array traffic.

   The latch increment computes one value ahead (b + s*U after the last
   iteration), which may leave the native range and trap: only a
   multiply whose range, covering h up to the trip count U, is finite
   is reduced. *)

module Sym = Analysis.Sym
module Ivclass = Analysis.Ivclass
module Pipeline = Analysis.Pipeline

type reduction = {
  original : Ir.Instr.Id.t; (* the multiply that was replaced *)
  phi : Ir.Instr.Id.t; (* the new induction variable *)
  loop : int;
}

let native = Analysis.Interval.make (Analysis.Extint.Fin min_int) (Analysis.Extint.Fin max_int)

(* [reduce_loop t range loop_id] strength-reduces one loop; returns the list of
   reductions performed. The CFG is modified in place. *)
let reduce_loop (t : Pipeline.analysis) range loop_id : reduction list =
  let ssa = t.Pipeline.ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let loops = Ir.Ssa.loops ssa in
  let loop = Ir.Loops.loop loops loop_id in
  match (t.Pipeline.by_loop.(loop_id), Codegen.preheader_of cfg loop) with
  | Some r, Some preheader ->
    (* Candidate multiplies: classified linear, with integral base and
       step, and genuinely varying (non-invariant). *)
    let candidates =
      List.filter_map
        (fun (instr : Ir.Instr.t) ->
          match instr.Ir.Instr.op with
          | Ir.Instr.Binop Ir.Ops.Mul -> (
            match Ir.Instr.Id.Table.find_opt r.Pipeline.table instr.Ir.Instr.id with
            | Some (Ivclass.Linear { base = Ivclass.Invariant b; step; loop = l })
              when l = loop_id && Codegen.integral b && Codegen.integral step
                   && (not (Sym.is_zero step))
                   && Analysis.Interval.subset
                        (Analysis.Range.interval_of range instr.Ir.Instr.id)
                        native ->
              Some (instr, b, step)
            | _ -> None)
          | _ -> None)
        (List.map (Ir.Cfg.find_instr cfg) (Array.to_list r.Pipeline.nodes))
    in
    List.filter_map
      (fun ((instr : Ir.Instr.t), b, step) ->
        match (Codegen.emit_sym cfg preheader b, Codegen.emit_sym cfg preheader step) with
        | Some init_v, Some step_v ->
          (* phi at the header; increment at each latch. *)
          let header_preds = Ir.Cfg.predecessors cfg loop.Ir.Loops.header in
          let phi =
            Ir.Cfg.prepend cfg loop.Ir.Loops.header Ir.Instr.Phi
              (Array.make (List.length header_preds) (Ir.Instr.Const 0))
          in
          let incr_of : (Ir.Label.t, Ir.Instr.value) Hashtbl.t = Hashtbl.create 4 in
          List.iter
            (fun latch ->
              let add =
                Ir.Cfg.append cfg latch (Ir.Instr.Binop Ir.Ops.Add)
                  [| Ir.Instr.Def phi.Ir.Instr.id; step_v |]
              in
              Hashtbl.replace incr_of latch (Ir.Instr.Def add.Ir.Instr.id))
            loop.Ir.Loops.latches;
          List.iteri
            (fun i p ->
              phi.Ir.Instr.args.(i) <-
                (if Ir.Label.Set.mem p loop.Ir.Loops.blocks then
                   Option.value ~default:(Ir.Instr.Const 0) (Hashtbl.find_opt incr_of p)
                 else init_v))
            header_preds;
          Codegen.rewrite_uses cfg instr.Ir.Instr.id (Ir.Instr.Def phi.Ir.Instr.id);
          (* Drop the multiply itself. *)
          let mul_block = Ir.Cfg.block_of_instr cfg instr.Ir.Instr.id in
          Ir.Cfg.replace_instrs cfg mul_block (fun instrs ->
              List.filter
                (fun (i : Ir.Instr.t) ->
                  not (Ir.Instr.Id.equal i.Ir.Instr.id instr.Ir.Instr.id))
                instrs);
          Some { original = instr.Ir.Instr.id; phi = phi.Ir.Instr.id; loop = loop_id }
        | _ -> None)
      candidates
  | _ -> []

(* [reduce t] strength-reduces every loop (inner loops first); returns
   all reductions. Note: [t]'s classification tables refer to the CFG
   before rewriting; re-analyze if classifications are needed after. *)
let reduce (t : Pipeline.analysis) : reduction list =
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  let range = Pipeline.range_of t in
  List.concat_map
    (fun (lp : Ir.Loops.loop) -> reduce_loop t range lp.Ir.Loops.id)
    (Ir.Loops.postorder loops)
