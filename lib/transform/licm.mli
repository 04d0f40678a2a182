(** Loop-invariant code motion driven by the classification: pure,
    speculation-safe instructions classified [Invariant] move to the
    loop preheader (division and array loads never move). *)

(** [hoist_loop t loop_id] hoists in one loop; returns the moved ids. *)
val hoist_loop : Analysis.Pipeline.analysis -> int -> Ir.Instr.Id.t list

(** [hoist t] hoists in every loop, innermost first. *)
val hoist : Analysis.Pipeline.analysis -> Ir.Instr.Id.t list
