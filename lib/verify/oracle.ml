(* The interpreter oracles.

   This is the production home of the differential check the test suite
   pioneered (test/helpers.ml delegates here): interpret, and at each
   instruction execution compare the observed value against what the
   analysis claimed for that def. One harness owns the run — fuel,
   inputs, the per-loop iteration cap, the tallies and the diagnostic
   cap — and an observer owns the claim: the classification (evaluated
   at the current iteration number using the *live* environment for
   symbolic atoms — atoms are invariant in the loop, so their current
   values are the activation's values) or the reported interval. *)

module Pipeline = Analysis.Pipeline
module Ivclass = Analysis.Ivclass
module Sym = Analysis.Sym
module Range = Analysis.Range
module Interval = Analysis.Interval
module Diag = Ir.Diag

type observer = Classes | Ranges of Range.t

type result = {
  diags : Ir.Diag.t list;
  checked : int;
  vars : int;
  max_h : int;
  out_of_fuel : bool;
}

type mono_state = { mutable last_act : int; mutable last_v : int option }

(* The classification observer: [count] records one compared
   prediction for a def at iteration [h] of loop [lp]; [fail] reports a
   broken one under a code and message. *)
let observe_class ~params ~count ~fail (t : Pipeline.analysis) =
  let mono : mono_state Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  fun st id lp h v ->
    let lookup (a : Sym.atom) =
      match a with
      | Sym.Param x -> Some (Bignum.Rat.of_int (params x))
      | Sym.Def d -> Some (Bignum.Rat.of_int (Ir.Interp.value st (Ir.Instr.Def d)))
    in
    match Pipeline.class_of t id with
    | Ivclass.Unknown -> ()
    | Ivclass.Monotonic m ->
      count id h;
      let ms =
        match Ir.Instr.Id.Table.find_opt mono id with
        | Some ms -> ms
        | None ->
          let ms = { last_act = -1; last_v = None } in
          Ir.Instr.Id.Table.add mono id ms;
          ms
      in
      (* Monotonicity holds within one loop activation. *)
      let act = Ir.Interp.loop_activation st lp in
      if act <> ms.last_act then ms.last_v <- None;
      (match ms.last_v with
       | Some prev ->
         let ok =
           match (m.Ivclass.dir, m.Ivclass.strict) with
           | Ivclass.Increasing, true -> v > prev
           | Ivclass.Increasing, false -> v >= prev
           | Ivclass.Decreasing, true -> v < prev
           | Ivclass.Decreasing, false -> v <= prev
         in
         if not ok then
           fail id ~code:"ORA002" ~origin:"oracle"
             (Printf.sprintf "monotonicity violated at h=%d (%d then %d)" h prev v)
       | None -> ());
      ms.last_act <- act;
      ms.last_v <- Some v
    | cls -> (
      let iter_of outer = Some (Ir.Interp.loop_iter st outer) in
      match Ivclass.eval_at_nest lookup iter_of cls h with
      | Some predicted ->
        count id h;
        if not (Bignum.Rat.equal predicted (Bignum.Rat.of_int v)) then
          fail id ~code:"ORA001" ~origin:"oracle"
            (Printf.sprintf "h=%d predicted %s, observed %d" h
               (Bignum.Rat.to_string predicted)
               v)
      | None -> ())

(* The range observer: both the full interval (RNG001) and the
   body-refined interval at the def's own block (RNG002). Only non-top
   intervals count as checks, so the note distinguishes "clean" from
   "vacuous". *)
let observe_range ~count ~fail r id block h v =
  let full = Range.interval_of r id in
  (* The def's own block is a use site of itself: when it executes
     below a counted exit test, the final-iteration exclusion applies
     to the fresh value too. *)
  let site = Range.interval_at r ~block id in
  if not (Interval.is_top full && Interval.is_top site) then begin
    count id h;
    if not (Interval.mem v full) then
      fail id ~code:"RNG001" ~origin:"ranges"
        (Printf.sprintf "observed %d outside interval %s" v (Interval.to_string full))
    else if not (Interval.mem v site) then
      fail id ~code:"RNG002" ~origin:"ranges"
        (Printf.sprintf "observed %d outside body-refined interval %s" v
           (Interval.to_string site))
  end

let check ?(iters = max_int) ?(fuel = 50_000) ?(max_diags = 16)
    ?(params = fun _ -> 0) ?(rand = fun () -> false) ?(arrays = []) ?(tag = "")
    observer (t : Pipeline.analysis) : result =
  let ssa = t.Pipeline.ssa in
  let loops = Ir.Ssa.loops ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let suffix = if tag = "" then "" else Printf.sprintf " [%s]" tag in
  let diags = ref [] in
  let ndiags = ref 0 in
  let fail id ~code ~origin msg =
    incr ndiags;
    if !ndiags <= max_diags then
      diags :=
        Diag.v ~loc:(Diag.Var (Ir.Ssa.primary_name ssa id)) ~code ~origin "%s%s" msg
          suffix
        :: !diags
  in
  let seen : unit Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let checked = ref 0 in
  let max_h = ref 0 in
  let deepen h = if h > !max_h then max_h := h in
  let count id h =
    Ir.Instr.Id.Table.replace seen id ();
    incr checked;
    deepen h
  in
  let observe_class = observe_class ~params ~count ~fail t in
  let observe_range = observe_range ~count ~fail in
  (* The observers differ in coverage: a classification is a claim
     about loop iterations, and its note reports the deepest one
     compared; an interval is a claim about every def, and its note
     reports the deepest iteration interpreted. *)
  let on_instr st (instr : Ir.Instr.t) v =
    let id = instr.Ir.Instr.id in
    let block = Ir.Cfg.block_of_instr cfg id in
    match (Ir.Loops.innermost loops block, observer) with
    | None, Classes -> ()
    | None, Ranges r -> observe_range r id block 0 v
    | Some lp, Classes ->
      let h = Ir.Interp.loop_iter st lp in
      if h < iters then observe_class st id lp h v
    | Some lp, Ranges r ->
      let h = Ir.Interp.loop_iter st lp in
      deepen h;
      if h < iters then observe_range r id block h v
  in
  let st = Ir.Interp.run ~fuel ~on_instr ~params ~rand ~arrays ssa in
  {
    diags = List.rev !diags;
    checked = !checked;
    vars = Ir.Instr.Id.Table.length seen;
    max_h = !max_h;
    out_of_fuel = st.Ir.Interp.outcome = Ir.Interp.Out_of_fuel;
  }
