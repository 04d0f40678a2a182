(** Analysis units: the partition of a program's top-level statement
    list into loop nests and residual straight-line runs.

    A [Nest] unit is one top-level statement containing at least one
    loop (an [if] wrapping loops counts, and may carry several outermost
    loops); a [Straight] unit is a maximal run of loop-free top-level
    statements. Units partition the statement list in order, so every
    loop-forest root belongs to the unit whose statement lowered its
    header ({!Cfg.stmt_starts}) — how the incremental pipeline layer
    maps units onto loop ids (see [Analysis.Pipeline] and
    docs/INCREMENTAL.md). *)

type kind = Nest | Straight

type unit_ = {
  index : int;  (** position in the partition, 0-based *)
  kind : kind;
  first : int;  (** index of the first top-level stmt (0-based) *)
  last : int;  (** inclusive *)
  stmts : Ast.stmt list;  (** the slice itself *)
  free : string list;  (** scalars read before any local write, sorted *)
  defined : string list;  (** scalars written by the unit, sorted *)
  arrays : string list;  (** arrays loaded or stored, sorted *)
}

val kind_to_string : kind -> string

(** [partition p] splits [p]'s top-level statements into units, in
    program order. Every statement belongs to exactly one unit. *)
val partition : Ast.program -> unit_ list

val pp : Format.formatter -> unit_ -> unit
val to_string : unit_ -> string
