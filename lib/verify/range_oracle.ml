(* The range-analysis soundness oracle.

   Differential partner of [Oracle]: interpret the program and, after
   every instruction execution, assert the computed value lies inside
   the interval the range analysis reported for that def — both the
   full interval (RNG001) and the body-refined interval at the def's
   own block (RNG002). Only non-top intervals count as checks, so the
   note distinguishes "clean" from "vacuous". *)

module Pipeline = Analysis.Pipeline
module Range = Analysis.Range
module Interval = Analysis.Interval
module Diag = Ir.Diag

type result = {
  diags : Ir.Diag.t list;
  checked : int;
  vars : int;
  max_h : int;
  out_of_fuel : bool;
}

let check ?(iters = max_int) ?(fuel = 50_000) ?(max_diags = 16)
    ?(params = fun _ -> 0) ?(rand = fun () -> false) ?(arrays = []) ?(tag = "")
    (t : Pipeline.analysis) (r : Range.t) : result =
  let ssa = t.Pipeline.ssa in
  let loops = Ir.Ssa.loops ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let suffix = if tag = "" then "" else Printf.sprintf " [%s]" tag in
  let diags = ref [] in
  let ndiags = ref 0 in
  let report d =
    incr ndiags;
    if !ndiags <= max_diags then diags := d :: !diags
  in
  let seen : unit Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let checked = ref 0 in
  let max_h = ref 0 in
  let on_instr st (instr : Ir.Instr.t) v =
    let id = instr.Ir.Instr.id in
    let label = Ir.Cfg.block_of_instr cfg id in
    let within_iters =
      match Ir.Loops.innermost loops label with
      | None -> true
      | Some lp ->
        let h = Ir.Interp.loop_iter st lp in
        if h > !max_h then max_h := h;
        h < iters
    in
    if within_iters then begin
      let full = Range.interval_of r id in
      (* The def's own block is a use site of itself: when it executes
         below a counted exit test, the final-iteration exclusion
         applies to the fresh value too. *)
      let site = Range.interval_at r ~block:label id in
      if not (Interval.is_top full && Interval.is_top site) then begin
        Ir.Instr.Id.Table.replace seen id ();
        incr checked;
        let name () = Ir.Ssa.primary_name ssa id in
        if not (Interval.mem v full) then
          report
            (Diag.v ~loc:(Diag.Var (name ())) ~code:"RNG001" ~origin:"ranges"
               "observed %d outside interval %s%s" v (Interval.to_string full)
               suffix)
        else if not (Interval.mem v site) then
          report
            (Diag.v ~loc:(Diag.Var (name ())) ~code:"RNG002" ~origin:"ranges"
               "observed %d outside body-refined interval %s%s" v
               (Interval.to_string site) suffix)
      end
    end
  in
  let st = Ir.Interp.run ~fuel ~on_instr ~params ~rand ~arrays ssa in
  {
    diags = List.rev !diags;
    checked = !checked;
    vars = Ir.Instr.Id.Table.length seen;
    max_h = !max_h;
    out_of_fuel = st.Ir.Interp.outcome = Ir.Interp.Out_of_fuel;
  }
