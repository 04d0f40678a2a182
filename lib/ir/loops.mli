(** Natural loops and the loop-nesting forest. Loops sharing a header
    are merged; the induction-variable driver walks the forest in
    post-order ("from the inner loops outward", paper §5.3). *)

type loop = {
  id : int;
  header : Label.t;
  name : string;  (** source label when available, else "L@<header>" *)
  blocks : Label.Set.t;
  latches : Label.t list;  (** in-loop sources of back edges *)
  mutable parent : int option;
  mutable loop_children : int list;
  mutable depth : int;  (** 1 for outermost *)
}

type t

(** [compute ?preds cfg dom]; [preds] is [Cfg.pred_table cfg] when the
    caller already holds it. *)
val compute : ?preds:Label.t list array -> Cfg.t -> Dom.t -> t

val loop : t -> int -> loop
val num_loops : t -> int
val roots : t -> int list
val all : t -> loop list

(** [innermost t label] is the innermost loop containing the block. *)
val innermost : t -> Label.t -> int option

val contains_block : loop -> Label.t -> bool

(** [find_by_name t name] finds a loop by source label (e.g. "L18"). *)
val find_by_name : t -> string -> loop option

(** Post-order over the forest: inner loops before their parents. *)
val postorder : t -> loop list

(** [exit_edges cfg loop] is the list of (from, to) edges leaving the
    loop. *)
val exit_edges : Cfg.t -> loop -> (Label.t * Label.t) list

(** [instrs cfg loop] is every instruction in the loop's blocks. *)
val instrs : Cfg.t -> loop -> Instr.t list

val pp : Format.formatter -> t -> unit
