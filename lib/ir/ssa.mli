(** SSA construction over the tuple IR (Cytron et al.): phi placement on
    iterated dominance frontiers, renaming by a dominator-tree walk,
    dead-phi pruning, and the human-readable SSA names ("j2", "k3", ...)
    that match the paper's figures.

    After conversion, scalar Load/Store instructions are gone: every use
    refers directly to its unique reaching definition, a literal, or a
    symbolic program input [Param x] (a variable read before any
    assignment, rendered "x0"). *)

type t

val cfg : t -> Cfg.t

(** [preds t label] is {!Cfg.predecessors} of the converted CFG, read
    from the table conversion built once (sorted by label — the order
    phi arguments follow). *)
val preds : t -> Label.t -> Label.t list

val dom : t -> Dom.t
val loops : t -> Loops.t

(** [phi_var t id] is the source variable a phi merges. *)
val phi_var : t -> Instr.Id.t -> Ident.t option

(** [names_of t id] is the SSA names assigned to a def (a def stored to
    several variables carries several names). *)
val names_of : t -> Instr.Id.t -> string list

(** [value_of_name t name] resolves an SSA name ("j2"), a bare variable
    name ("n" — the program input), or "x0" (input for x). *)
val value_of_name : t -> string -> Instr.value option

(** [def_of_name t name] is the instruction id behind an SSA name, when
    the name denotes an instruction result. *)
val def_of_name : t -> string -> Instr.Id.t option

(** [primary_name t id] is the first SSA name of a def, or "%id". *)
val primary_name : t -> Instr.Id.t -> string

val pp_value : t -> Format.formatter -> Instr.value -> unit

(** [convert cfg] converts in place (the CFG is mutated) and returns the
    SSA view. *)
val convert : Cfg.t -> t

val of_source : string -> t
val of_program : Ast.program -> t

(** [check t] verifies SSA well-formedness (phi arity = predecessor
    count; every use dominated by its definition; phi arguments dominate
    their predecessor edges); returns structured violations ([SSA001]..
    [SSA005]), empty when valid. *)
val check : t -> Diag.t list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
