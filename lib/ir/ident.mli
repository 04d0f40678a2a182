(** Source-level identifiers (variable and array names).

    Identifiers are interned: [of_string] returns the same value for the
    same name, so comparisons are integer comparisons. The intern table
    is process-global and domain-safe: parallel parses of different
    programs share it. *)

type t

(** [of_string name] interns [name]. *)
val of_string : string -> t

(** [name t] is the source spelling. *)
val name : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Tables keyed by the interned id (no string hashing). *)
module Tbl : Hashtbl.S with type key = t

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
