(* The classification soundness oracle.

   This is the production home of the differential check the test suite
   pioneered (test/helpers.ml delegates here): interpret, and at each
   instruction execution evaluate the instruction's classification at
   the current iteration number using the *live* environment for
   symbolic atoms — atoms are invariant in the loop, so their current
   values are the activation's values. *)

module Pipeline = Analysis.Pipeline
module Ivclass = Analysis.Ivclass
module Sym = Analysis.Sym
module Diag = Ir.Diag

type result = {
  diags : Ir.Diag.t list;
  checked : int;
  vars : int;
  max_h : int;
  out_of_fuel : bool;
}

type mono_state = { mutable last_act : int; mutable last_v : int option }

let check ?(iters = max_int) ?(fuel = 50_000) ?(max_diags = 16)
    ?(params = fun _ -> 0) ?(rand = fun () -> false) ?(arrays = []) ?(tag = "")
    (t : Pipeline.analysis) : result =
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
  let mono : mono_state Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let seen : unit Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let checked = ref 0 in
  let max_h = ref 0 in
  let on_instr st (instr : Ir.Instr.t) v =
    let id = instr.Ir.Instr.id in
    let label = Ir.Cfg.block_of_instr cfg id in
    match Ir.Loops.innermost loops label with
    | None -> ()
    | Some lp ->
      let h = Ir.Interp.loop_iter st lp in
      if h < iters then begin
        let lookup (a : Sym.atom) =
          match a with
          | Sym.Param x -> Some (Bignum.Rat.of_int (params x))
          | Sym.Def d ->
            Some (Bignum.Rat.of_int (Ir.Interp.value st (Ir.Instr.Def d)))
        in
        let name () = Ir.Ssa.primary_name ssa id in
        let cls = Pipeline.class_of t id in
        match cls with
        | Ivclass.Unknown -> ()
        | Ivclass.Monotonic m ->
          Ir.Instr.Id.Table.replace seen id ();
          incr checked;
          if h > !max_h then max_h := h;
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
               report
                 (Diag.v ~loc:(Diag.Var (name ())) ~code:"ORA002" ~origin:"oracle"
                    "monotonicity violated at h=%d (%d then %d)%s" h prev v suffix)
           | None -> ());
          ms.last_act <- act;
          ms.last_v <- Some v
        | cls -> (
          let iter_of outer = Some (Ir.Interp.loop_iter st outer) in
          match Ivclass.eval_at_nest lookup iter_of cls h with
          | Some predicted ->
            (* The interpreter computes in native (wrapping) integers
               while the classifier is exact; past this magnitude the
               comparison is meaningless (overflow is unspecified). *)
            let overflow_bound = Bignum.Rat.of_int (1 lsl 55) in
            if Bignum.Rat.compare (Bignum.Rat.abs predicted) overflow_bound >= 0
            then ()
            else begin
              Ir.Instr.Id.Table.replace seen id ();
              incr checked;
              if h > !max_h then max_h := h;
              if not (Bignum.Rat.equal predicted (Bignum.Rat.of_int v)) then
                report
                  (Diag.v ~loc:(Diag.Var (name ())) ~code:"ORA001" ~origin:"oracle"
                     "h=%d predicted %s, observed %d%s" h
                     (Bignum.Rat.to_string predicted)
                     v suffix)
            end
          | None -> ())
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
