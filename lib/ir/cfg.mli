(** Control-flow graph over the tuple IR.

    The CFG is mutable while being built (by {!Lower}, by SSA
    construction, and by the rewriting transformations); analyses treat
    it as frozen. Block labels and instruction ids are dense integers. *)

type terminator =
  | Jump of Label.t
  | Branch of Instr.value * Label.t * Label.t  (** cond <> 0 ? then : else *)
  | Halt

type block = {
  label : Label.t;
  mutable instrs : Instr.t list;  (** in execution order *)
  mutable term : terminator;
  mutable loop_name : string option;
      (** on loop-header blocks: the source label of the loop *)
}

type t

(** [create ()] is a CFG holding only an empty entry block. *)
val create : unit -> t

val entry : t -> Label.t
val block : t -> Label.t -> block
val num_blocks : t -> int
val labels : t -> Label.t list

(** [add_block t] appends a fresh empty block and returns its label. *)
val add_block : t -> Label.t

val fresh_instr_id : t -> Instr.Id.t

(** [instr_id_bound t] exceeds every instruction id allocated so far. *)
val instr_id_bound : t -> int

(** [append t label op args] creates an instruction at the end of the
    block (before its terminator). *)
val append : t -> Label.t -> Instr.op -> Instr.value array -> Instr.t

(** [prepend t label op args] creates an instruction at the start of the
    block (phi insertion). *)
val prepend : t -> Label.t -> Instr.op -> Instr.value array -> Instr.t

val set_term : t -> Label.t -> terminator -> unit

val successors : t -> Label.t -> Label.t list

(** [predecessors t label]: deduplicated, sorted by label — the order phi
    arguments follow. *)
val predecessors : t -> Label.t -> Label.t list

(** [pred_table t] is predecessors for every block at once. *)
val pred_table : t -> Label.t list array

(** [index t] is the id -> (block, instruction) cache (rebuilt after
    mutation). *)
val index : t -> (Label.t * Instr.t) Instr.Id.Table.t

(** @raise Not_found if the instruction was deleted or never existed. *)
val find_instr : t -> Instr.Id.t -> Instr.t

val find_instr_opt : t -> Instr.Id.t -> Instr.t option

(** [block_of_instr t id] is the label of the containing block.
    @raise Not_found if the instruction does not exist. *)
val block_of_instr : t -> Instr.Id.t -> Label.t

val iter_instrs : t -> (Label.t -> Instr.t -> unit) -> unit
val fold_instrs : t -> ('a -> Label.t -> Instr.t -> 'a) -> 'a -> 'a
val num_instrs : t -> int

(** [replace_instrs t label f] maps a block's instruction list (used for
    deletion and insertion by the transformation passes). *)
val replace_instrs : t -> Label.t -> (Instr.t list -> Instr.t list) -> unit

(** Reverse postorder over reachable blocks (forward analyses iterate in
    this order). *)
val reverse_postorder : t -> Label.t list

(** [reachable t] marks blocks reachable from the entry. *)
val reachable : t -> bool array

val pp_terminator : Format.formatter -> terminator -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
