(** The per-loop SSA graph of the paper's §3: vertices are the loop's
    direct instructions (nested inner loops are collapsed to their exit
    values), edges run from operations to operands. *)

type t

(** [build ssa loop ~expand] constructs the graph. [expand] supplies the
    symbolic exit value of inner-loop defs (§5.3): an operand edge into a
    collapsed inner loop is redirected to its exit value's atoms, so
    cycles through inner loops (Fig 9) stay strongly connected. *)
val build : ?expand:(Ir.Instr.Id.t -> Sym.t option) -> Ir.Ssa.t -> Ir.Loops.loop -> t

(** Nodes in program order. *)
val nodes : t -> Ir.Instr.t list

val mem : t -> Ir.Instr.Id.t -> bool
val successors : t -> Ir.Instr.Id.t -> Ir.Instr.Id.t list

(** [is_header_phi t instr]: a phi at the loop header (the merge of
    loop-carried and loop-entry values). *)
val is_header_phi : t -> Ir.Instr.t -> bool

(** (vertices, edges), for the complexity benchmarks. *)
val size : t -> int * int
