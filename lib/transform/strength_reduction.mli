(** Strength reduction driven by the classification (the transformation
    classically tied to induction variable analysis, paper §1): every
    multiply proved [Linear] with integer-coefficient base and step, and
    with a range bounded on both sides, is replaced by a fresh phi + add
    chain, justified directly by the closed form. The CFG is rewritten
    in place. *)

type reduction = {
  original : Ir.Instr.Id.t;  (** the replaced multiply *)
  phi : Ir.Instr.Id.t;  (** the new induction variable *)
  loop : int;
}

(** [reduce t] rewrites every loop, inner first. The analysis in [t]
    refers to the pre-rewrite CFG; re-analyze for further passes. *)
val reduce : Analysis.Pipeline.analysis -> reduction list
