(* Shared code generation: materialize a symbolic polynomial as
   straight-line tuple IR at the end of a block. Used by strength
   reduction (initial values and steps) and by exit-value
   materialization (the paper's Fig 8 k6/i4 insertions). *)

module Sym = Analysis.Sym
open Bignum

(* [emit_sym cfg block s] appends instructions computing [s]; [None] when
   a coefficient is not an integer (fractional closed forms have no
   integer-arithmetic program). Atoms must dominate [block]. *)
let emit_sym (cfg : Ir.Cfg.t) block (s : Sym.t) : Ir.Instr.value option =
  let emit op args = Ir.Instr.Def (Ir.Cfg.append cfg block op args).Ir.Instr.id in
  let atom_value (a : Sym.atom) =
    match a with
    | Sym.Param x -> Ir.Instr.Param x
    | Sym.Def d -> Ir.Instr.Def d
  in
  let term (mono, coeff) =
    match Rat.to_int_exact coeff with
    | None -> None
    | Some c ->
      let factors =
        List.concat_map (fun (a, p) -> List.init p (fun _ -> atom_value a)) mono
      in
      let product =
        match factors with
        | [] -> Ir.Instr.Const c
        | first :: rest ->
          let m =
            List.fold_left
              (fun acc v -> emit (Ir.Instr.Binop Ir.Ops.Mul) [| acc; v |])
              first rest
          in
          if c = 1 then m else emit (Ir.Instr.Binop Ir.Ops.Mul) [| Ir.Instr.Const c; m |]
      in
      Some product
  in
  let rec sum acc = function
    | [] -> Some acc
    | t :: rest -> (
      match term t with
      | None -> None
      | Some v -> sum (emit (Ir.Instr.Binop Ir.Ops.Add) [| acc; v |]) rest)
  in
  match (s : (Sym.mono * Rat.t) list) with
  | [] -> Some (Ir.Instr.Const 0)
  | first :: rest -> (
    match term first with
    | None -> None
    | Some v -> sum v rest)

(* [integral s] holds when every coefficient is an integer. *)
let integral (s : Sym.t) =
  List.for_all
    (fun ((_, c) : Sym.mono * Rat.t) -> Option.is_some (Rat.to_int_exact c))
    (s : (Sym.mono * Rat.t) list)

(* [rewrite_uses cfg old_id new_v] redirects every use (instructions and
   branch conditions). *)
let rewrite_uses cfg old_id new_v =
  Ir.Cfg.iter_instrs cfg (fun _ instr ->
      instr.Ir.Instr.args <-
        Array.map
          (fun (v : Ir.Instr.value) ->
            match v with
            | Ir.Instr.Def d when Ir.Instr.Id.equal d old_id -> new_v
            | v -> v)
          instr.Ir.Instr.args);
  List.iter
    (fun l ->
      let b = Ir.Cfg.block cfg l in
      match b.Ir.Cfg.term with
      | Ir.Cfg.Branch (Ir.Instr.Def d, t1, t2) when Ir.Instr.Id.equal d old_id ->
        b.Ir.Cfg.term <- Ir.Cfg.Branch (new_v, t1, t2)
      | _ -> ())
    (Ir.Cfg.labels cfg)

(* [rewrite_uses_outside cfg loop old_id new_v] redirects only the uses
   lexically outside [loop] (exit-value substitution). *)
let rewrite_uses_outside cfg (loop : Ir.Loops.loop) old_id new_v =
  Ir.Cfg.iter_instrs cfg (fun label instr ->
      if not (Ir.Label.Set.mem label loop.Ir.Loops.blocks) then
        instr.Ir.Instr.args <-
          Array.map
            (fun (v : Ir.Instr.value) ->
              match v with
              | Ir.Instr.Def d when Ir.Instr.Id.equal d old_id -> new_v
              | v -> v)
            instr.Ir.Instr.args);
  List.iter
    (fun l ->
      if not (Ir.Label.Set.mem l loop.Ir.Loops.blocks) then begin
        let b = Ir.Cfg.block cfg l in
        match b.Ir.Cfg.term with
        | Ir.Cfg.Branch (Ir.Instr.Def d, t1, t2) when Ir.Instr.Id.equal d old_id ->
          b.Ir.Cfg.term <- Ir.Cfg.Branch (new_v, t1, t2)
        | _ -> ()
      end)
    (Ir.Cfg.labels cfg)

(* The unique block outside the loop jumping to its header. *)
let preheader_of cfg (loop : Ir.Loops.loop) =
  let preds = Ir.Cfg.predecessors cfg loop.Ir.Loops.header in
  match List.filter (fun p -> not (Ir.Label.Set.mem p loop.Ir.Loops.blocks)) preds with
  | [ p ] -> Some p
  | _ -> None
