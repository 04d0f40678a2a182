(** Dominator tree (Cooper–Harvey–Kennedy) and dominance frontiers
    (Cytron et al.), the substrate for phi placement and for the
    above/below-the-exit-test reasoning of paper §5.2-5.3. *)

type t

(** [compute ?preds cfg]; [preds] is [Cfg.pred_table cfg] when the
    caller already holds it. *)
val compute : ?preds:Label.t list array -> Cfg.t -> t

(** [idom t l] is the immediate dominator ([l] itself for the entry). *)
val idom : t -> Label.t -> Label.t

val children : t -> Label.t -> Label.t list
val frontier : t -> Label.t -> Label.Set.t
val reverse_postorder : t -> Label.t list
val is_reachable : t -> Label.t -> bool

(** [dominates t a b] — reflexive, O(1).
    @raise Invalid_argument if [b] is unreachable and differs from [a]. *)
val dominates : t -> Label.t -> Label.t -> bool

val strictly_dominates : t -> Label.t -> Label.t -> bool
val pp : Format.formatter -> t -> unit
