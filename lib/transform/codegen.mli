(** Shared code generation for the rewriting passes. *)

module Sym = Analysis.Sym

(** [emit_sym cfg block s] appends instructions computing the symbolic
    polynomial [s] at the end of [block]; [None] when a coefficient is
    not an integer. The atoms must dominate [block]. *)
val emit_sym : Ir.Cfg.t -> Ir.Label.t -> Sym.t -> Ir.Instr.value option

(** [integral s]: every coefficient is an integer. *)
val integral : Sym.t -> bool

(** [rewrite_uses cfg old_id v] redirects every use (instruction operands
    and branch conditions). *)
val rewrite_uses : Ir.Cfg.t -> Ir.Instr.Id.t -> Ir.Instr.value -> unit

(** [rewrite_uses_outside cfg loop old_id v] redirects only uses lexically
    outside [loop]. *)
val rewrite_uses_outside :
  Ir.Cfg.t -> Ir.Loops.loop -> Ir.Instr.Id.t -> Ir.Instr.value -> unit

(** [preheader_of cfg loop] is the unique block outside [loop] that
    jumps to its header, if there is exactly one. *)
val preheader_of : Ir.Cfg.t -> Ir.Loops.loop -> Ir.Label.t option
