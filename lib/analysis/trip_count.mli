(** Trip counts of countable loops (paper §5.2): the loop-exit comparison
    is normalized to "exit when margin <= 0", the margin classified, and
    for a linear sequence (L, i, s) the count is 0 / ceil(i / -s) /
    infinite by the sign table. *)

open Bignum

type count =
  | Finite of Bigint.t
  | Symbolic of Sym.t  (** exact count, assuming it is positive *)
  | Infinite
  | Unknown_count

type t = {
  count : count;
  max_count : count;
      (** an upper bound on the trips (from the earliest countable exit
          of a multi-exit loop — the paper's "maximum trip count");
          equals [count] when the count is exact *)
  exit_block : Ir.Label.t option;  (** the single counted exit branch *)
  assumes_positive : bool;  (** symbolic count: zero trips not ruled out *)
}

val unknown : t

(** [rename ~sym ~label t] relabels [t] for another numbering of the
    same program: symbolic counts through [sym], the exit block through
    [label]. *)
val rename : sym:(Sym.t -> Sym.t) -> label:(Ir.Label.t -> Ir.Label.t) -> t -> t
val pp_count : Format.formatter -> count -> unit
val pp : Format.formatter -> t -> unit

(** [pp_with names] renders symbolic counts through an SSA-name resolver. *)
val pp_with : (Ir.Instr.Id.t -> string) -> Format.formatter -> t -> unit

(** [compute ctx] finds the trip count of [ctx]'s loop from its
    classification table. *)
val compute : Classify.ctx -> t

(** [count_sym t] is the count as a symbolic value, when exact. *)
val count_sym : t -> Sym.t option

(** [count_int t] is the count as a native int, when finite. *)
val count_int : t -> int option

(** [max_count_int t] is a native-int upper bound, when one is known. *)
val max_count_int : t -> int option
