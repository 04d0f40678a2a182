(** Loop interchange for perfect 2-deep nests, with legality decided by
    the dependence graph (paper §6.1: the triangular nest's
    iteration-space distance (1, -1) is exactly what blocks it). *)

(** [apply p ~outer_name] swaps the named perfect nest.
    @raise Invalid_argument if no loop of that name is a perfect 2-deep
    nest (a statement beside the inner loop, say) or the inner bounds
    depend on the outer index (skew first). *)
val apply : Ir.Ast.program -> outer_name:string -> Ir.Ast.program

(** [legal_for_source src ~outer_name ~inner_name] is the whole check;
    [None] when the loops are not found. *)
val legal_for_source :
  string -> outer_name:string -> inner_name:string -> bool option
