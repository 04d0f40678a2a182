(* The per-loop SSA graph of the paper's Section 3: vertices are the
   instructions of the loop body (excluding blocks of nested inner loops,
   which the nested driver has already collapsed to their exit values),
   and edges run from each instruction to its operands, so Tarjan's
   algorithm visits operands before the regions that use them. *)

type t = {
  ssa : Ir.Ssa.t;
  loop : Ir.Loops.loop;
  nodes : Ir.Instr.t list; (* directly in this loop, program order *)
  node_set : Ir.Instr.Id.Set.t;
  succs : Ir.Instr.Id.t list Ir.Instr.Id.Table.t; (* operand edges within the graph *)
}

(* [direct_blocks ssa loop] is the blocks of [loop] that are not inside
   any nested inner loop. *)
let direct_blocks (ssa : Ir.Ssa.t) (loop : Ir.Loops.loop) =
  let loops = Ir.Ssa.loops ssa in
  Ir.Label.Set.filter
    (fun l ->
      match Ir.Loops.innermost loops l with
      | Some id -> id = loop.Ir.Loops.id
      | None -> false)
    loop.Ir.Loops.blocks

(* [build ssa loop ~expand] constructs the loop's SSA graph. [expand]
   supplies the symbolic exit value of defs belonging to nested inner
   loops (paper §5.3): an operand edge into a collapsed inner loop is
   redirected to the atoms of its exit value, so cycles that pass through
   an inner loop (e.g. the triangular-loop example, Fig 9) are still
   strongly connected in the outer loop's graph. *)
let build ?(expand = fun _ -> None) (ssa : Ir.Ssa.t) (loop : Ir.Loops.loop) : t =
  let cfg = Ir.Ssa.cfg ssa in
  let blocks = direct_blocks ssa loop in
  let nodes =
    Ir.Label.Set.elements blocks
    |> List.sort Ir.Label.compare
    |> List.concat_map (fun l -> (Ir.Cfg.block cfg l).Ir.Cfg.instrs)
  in
  let node_set =
    List.fold_left
      (fun acc (i : Ir.Instr.t) -> Ir.Instr.Id.Set.add i.Ir.Instr.id acc)
      Ir.Instr.Id.Set.empty nodes
  in
  let in_loop d =
    Ir.Label.Set.mem (Ir.Cfg.block_of_instr cfg d) loop.Ir.Loops.blocks
  in
  let succs = Ir.Instr.Id.Table.create 64 in
  List.iter
    (fun (i : Ir.Instr.t) ->
      let edges_of_value (v : Ir.Instr.value) =
        match v with
        | Ir.Instr.Def d when Ir.Instr.Id.Set.mem d node_set -> [ d ]
        | Ir.Instr.Def d when in_loop d -> (
          (* Inner-loop def: redirect through its exit value's atoms. *)
          match expand d with
          | Some sym ->
            Sym.atoms sym
            |> List.filter_map (fun a ->
                   match a with
                   | Sym.Def d' when Ir.Instr.Id.Set.mem d' node_set -> Some d'
                   | Sym.Def _ | Sym.Param _ -> None)
          | None -> [])
        | Ir.Instr.Def _ | Ir.Instr.Const _ | Ir.Instr.Param _ -> []
      in
      let out =
        Array.to_list i.Ir.Instr.args |> List.concat_map edges_of_value
      in
      Ir.Instr.Id.Table.replace succs i.Ir.Instr.id out)
    nodes;
  { ssa; loop; nodes; node_set; succs }

let nodes t = t.nodes
let mem t id = Ir.Instr.Id.Set.mem id t.node_set

let successors t id =
  Option.value ~default:[] (Ir.Instr.Id.Table.find_opt t.succs id)

(* [is_header_phi t instr] holds for phi instructions placed at the loop
   header — the merge of the loop-carried and loop-entry values. *)
let is_header_phi t (instr : Ir.Instr.t) =
  instr.Ir.Instr.op = Ir.Instr.Phi
  && Ir.Label.equal
       (Ir.Cfg.block_of_instr (Ir.Ssa.cfg t.ssa) instr.Ir.Instr.id)
       t.loop.Ir.Loops.header

(* Counts for the complexity benchmarks: vertices and edges. *)
let size t =
  let edges =
    List.fold_left (fun acc (i : Ir.Instr.t) -> acc + List.length (successors t i.Ir.Instr.id)) 0 t.nodes
  in
  (List.length t.nodes, edges)
