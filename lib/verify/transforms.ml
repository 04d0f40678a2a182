(* Transform validators: structural re-verification plus a differential
   interpretation against the untransformed program. *)

module Diag = Ir.Diag

type result = { diags : Ir.Diag.t list; transforms : int; cells : int }

(* How a run under a fixed input valuation and '??' stream ended: its
   final array contents when it halted. *)
type run = Cells of (string * int list * int) list | Trapped of Ir.Ops.trap | Out_of_fuel

let footprint ~fuel ~params ~seed ssa =
  let state = Random.State.make [| seed |] in
  let st =
    Ir.Interp.run ~fuel ~params ~rand:(fun () -> Random.State.bool state) ssa
  in
  match st.Ir.Interp.outcome with
  | Ir.Interp.Out_of_fuel -> Out_of_fuel
  | Ir.Interp.Trapped (trap, _) -> Trapped trap
  | Ir.Interp.Halted ->
    Cells
      (Hashtbl.fold
         (fun (a, idx) v acc -> (Ir.Ident.name a, idx, v) :: acc)
         st.Ir.Interp.arrays []
      |> List.sort compare)

let show_cell (a, idx, v) =
  Printf.sprintf "%s(%s)=%d" a (String.concat "," (List.map string_of_int idx)) v

let check ?(fuel = 200_000) ?(seed = 7) ?(params = fun _ -> 0)
    (p : Ir.Ast.program) : result =
  let diags = ref [] in
  let transforms = ref 0 in
  let cells = ref 0 in
  let add d = diags := d :: !diags in
  let footprint = footprint ~fuel ~params ~seed in
  let base = footprint (Ir.Ssa.of_program p) in
  (* Structural diagnostics after a rewrite keep their codes but name
     the transform as origin, so `error[SSA004] licm (...)` reads as
     "LICM broke dominance". *)
  let structural name ssa =
    List.iter
      (fun (d : Diag.t) -> add { d with Diag.origin = name })
      (Structural.check_cfg ~origin:name (Ir.Ssa.cfg ssa)
      @ Ir.Ssa.check ssa)
  in
  (* Only runs where the reference program halts are compared: a trap
     in the rewritten program alone is then a divergence too. *)
  let compare_runs name ~code ~diverged reference rewritten =
    match (reference, rewritten) with
    | Cells before, Cells after ->
      cells := !cells + List.length before;
      if before <> after then begin
        let extra = List.filter (fun c -> not (List.mem c before)) after in
        let missing = List.filter (fun c -> not (List.mem c after)) before in
        add (Diag.v ~code ~origin:name "%s" (diverged extra missing))
      end
    | Cells _, Trapped trap ->
      add
        (Diag.v ~code ~origin:name
           "the rewritten program traps (%s) where the reference halts"
           (Ir.Ops.trap_to_string trap))
    | Trapped trap, _ ->
      add
        (Diag.v ~severity:Diag.Info ~code:"TRN000" ~origin:name
           "differential skipped: the original trapped (%s)"
           (Ir.Ops.trap_to_string trap))
    | Out_of_fuel, _ | Cells _, Out_of_fuel ->
      add
        (Diag.v ~severity:Diag.Info ~code:"TRN000" ~origin:name
           "differential skipped: out of fuel under this valuation")
  in
  let differential name ssa =
    compare_runs name ~code:"TRN002" base (footprint ssa)
      ~diverged:(fun extra missing ->
        Printf.sprintf
          "array footprint diverges from the untransformed program (%d cells \
           changed, e.g. %s)"
          (List.length extra + List.length missing)
          (match (extra, missing) with
           | c :: _, _ -> show_cell c
           | [], c :: _ -> "missing " ^ show_cell c
           | [], [] -> "reordered"))
  in
  let validate name apply =
    incr transforms;
    match
      let ssa = Ir.Ssa.of_program p in
      apply ssa;
      ssa
    with
    | ssa ->
      structural name ssa;
      differential name ssa
    | exception e ->
      add
        (Diag.v ~code:"TRN001" ~origin:name "transform raised: %s"
           (Printexc.to_string e))
  in
  validate "dce" (fun ssa -> ignore (Transform.Dce.run (Ir.Ssa.cfg ssa)));
  validate "licm" (fun ssa ->
      ignore (Transform.Licm.hoist (Analysis.Pipeline.analyze ssa)));
  validate "strength" (fun ssa ->
      ignore (Transform.Strength_reduction.reduce (Analysis.Pipeline.analyze ssa)));
  (* Normalization rewrites the AST, not the CFG; a body assigning its
     own index is documented to be rejected, which is not a finding. *)
  incr transforms;
  (match Transform.Normalize.normalize p with
   | p' ->
     let ssa = Ir.Ssa.of_program p' in
     structural "normalize" ssa;
     differential "normalize" ssa
   | exception Invalid_argument msg ->
     add
       (Diag.v ~severity:Diag.Info ~code:"TRN000" ~origin:"normalize"
          "normalization skipped: %s" msg)
   | exception e ->
     add
       (Diag.v ~code:"TRN001" ~origin:"normalize" "transform raised: %s"
          (Printexc.to_string e)));
  (* Bounds-check elimination. The differential here is not against the
     untransformed program (guards legitimately suppress out-of-bounds
     stores) but between the fully-checked and the optimized-checked
     programs: if elimination ever drops a guard that would have fired,
     the optimized footprint gains a store the fully-checked program
     suppressed (TRN003). *)
  incr transforms;
  (match
     let ssa = Ir.Ssa.of_program p in
     let t = Analysis.Pipeline.analyze ssa in
     let r = Analysis.Pipeline.range_of t in
     let full = Transform.Bounds_elim.instrument p in
     let opt = Transform.Bounds_elim.optimize r ssa p in
     (full, opt)
   with
   | full, opt ->
     let ssa_opt = Ir.Ssa.of_program opt in
     structural "bounds" ssa_opt;
     compare_runs "bounds" ~code:"TRN003"
       (footprint (Ir.Ssa.of_program full))
       (footprint ssa_opt)
       ~diverged:(fun extra missing ->
         Printf.sprintf
           "optimized-checked footprint diverges from fully-checked (%d cells \
            differ): an eliminated bounds check would have fired"
           (List.length extra + List.length missing))
   | exception e ->
     add
       (Diag.v ~code:"TRN001" ~origin:"bounds" "transform raised: %s"
          (Printexc.to_string e)));
  { diags = List.rev !diags; transforms = !transforms; cells = !cells }
