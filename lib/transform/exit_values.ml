(* Exit-value materialization: the literal transformation of the paper's
   Figure 8. When an inner loop is countable, each induction variable's
   value after the loop has a closed form (init + tc·step + the early
   increments); the paper rewrites

       kl = 0                          kl = 0
       L17: loop                       L17: loop
         il = 1                          il = 1
         L18: loop ... endloop           L18: loop ... endloop
         k5 = k4 + 2                     k6 = k2 + 101*2
       endloop                           i4 = i1 + 100*1
                                         k5 = k6 + 2
                                       endloop

   — introducing new names (k6, i4) holding the exit values so that
   references after the inner loop read closed forms instead of the
   loop-carried defs. This pass does exactly that: for every countable
   loop, every classified def with a symbolic exit value and at least one
   use outside the loop gets its exit value computed into the loop's
   (single-predecessor) exit target, and the outside uses are redirected.

   The paper's §5.4 remarks that gated SSA's loop-exit eta functions
   would provide these names for free; this pass is the "proper
   engineering ... low-cost insertion" alternative it mentions. *)

module Sym = Analysis.Sym
module Pipeline = Analysis.Pipeline

type materialization = {
  original : Ir.Instr.Id.t; (* the loop-carried def *)
  replacement : Ir.Instr.value; (* the closed-form exit value *)
  loop : int;
}

(* The uses of [d] lexically outside [loop]. *)
let has_outside_use cfg (loop : Ir.Loops.loop) d =
  let found = ref false in
  Ir.Cfg.iter_instrs cfg (fun label instr ->
      if not (Ir.Label.Set.mem label loop.Ir.Loops.blocks) then
        Array.iter
          (fun (v : Ir.Instr.value) ->
            match v with
            | Ir.Instr.Def x when Ir.Instr.Id.equal x d -> found := true
            | _ -> ())
          instr.Ir.Instr.args);
  List.iter
    (fun l ->
      if not (Ir.Label.Set.mem l loop.Ir.Loops.blocks) then
        match (Ir.Cfg.block cfg l).Ir.Cfg.term with
        | Ir.Cfg.Branch (Ir.Instr.Def x, _, _) when Ir.Instr.Id.equal x d ->
          found := true
        | _ -> ())
    (Ir.Cfg.labels cfg);
  !found

(* The single block outside the loop that its counted exit jumps to,
   when it has no other predecessors (no edge splitting needed). *)
let exit_target cfg (loop : Ir.Loops.loop) exit_block =
  match (Ir.Cfg.block cfg exit_block).Ir.Cfg.term with
  | Ir.Cfg.Branch (_, t1, t2) -> (
    let outside = List.filter (fun l -> not (Ir.Loops.contains_block loop l)) [ t1; t2 ] in
    match outside with
    | [ target ] -> (
      match Ir.Cfg.predecessors cfg target with
      | [ p ] when Ir.Label.equal p exit_block -> Some target
      | _ -> None)
    | _ -> None)
  | _ -> None

(* [materialize_loop t loop_id] rewrites one countable loop. *)
let materialize_loop (t : Pipeline.analysis) loop_id : materialization list =
  let ssa = t.Pipeline.ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let loop = Ir.Loops.loop (Ir.Ssa.loops ssa) loop_id in
  let trip = Pipeline.trip_count t loop_id in
  match trip.Analysis.Trip_count.exit_block with
  | None -> []
  | Some exit_block -> (
    match exit_target cfg loop exit_block with
    | None -> []
    | Some target ->
      let candidates =
        match t.Pipeline.by_loop.(loop_id) with
        | None -> []
        | Some r ->
          List.filter_map
            (fun d ->
              match Pipeline.exit_value t d with
              | Some sym
                when Codegen.integral sym
                     && has_outside_use cfg loop d
                     (* Atoms must be available outside the loop. *)
                     && List.for_all
                          (fun (a : Sym.atom) ->
                            match a with
                            | Sym.Param _ -> true
                            | Sym.Def a ->
                              not
                                (Ir.Label.Set.mem
                                   (Ir.Cfg.block_of_instr cfg a)
                                   loop.Ir.Loops.blocks))
                          (Sym.atoms sym) ->
                Some (d, sym)
              | _ -> None)
            (Array.to_list r.Pipeline.nodes)
      in
      List.filter_map
        (fun (d, sym) ->
          (* emit_sym appends; the uses being replaced may already live in
             the target block, so move the freshly emitted instructions to
             the block's front (it has a single predecessor and no phis). *)
          let before = List.length (Ir.Cfg.block cfg target).Ir.Cfg.instrs in
          match Codegen.emit_sym cfg target sym with
          | Some v ->
            Ir.Cfg.replace_instrs cfg target (fun instrs ->
                let rec split i acc = function
                  | rest when i = 0 -> (List.rev acc, rest)
                  | x :: rest -> split (i - 1) (x :: acc) rest
                  | [] -> (List.rev acc, [])
                in
                let original, emitted = split before [] instrs in
                emitted @ original);
            Codegen.rewrite_uses_outside cfg loop d v;
            Some { original = d; replacement = v; loop = loop_id }
          | None -> None)
        candidates)

(* [materialize t] rewrites every countable loop, inner first. *)
let materialize (t : Pipeline.analysis) : materialization list =
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  List.concat_map
    (fun (lp : Ir.Loops.loop) -> materialize_loop t lp.Ir.Loops.id)
    (Ir.Loops.postorder loops)
