(** The range-analysis soundness oracle: interpret and assert every
    computed value lies inside the interval the range analysis reported
    for its def — the full interval (RNG001) and the body-refined
    interval at the def's own block (RNG002). Top intervals are not
    counted as checks. *)

type result = {
  diags : Ir.Diag.t list;
  checked : int;  (** non-top interval memberships asserted *)
  vars : int;  (** distinct defs with at least one check *)
  max_h : int;
  out_of_fuel : bool;
}

(** [check t r] interprets under [params]/[rand] with [fuel], bounding
    per-loop checks at [iters] (like {!Oracle.check}); [tag] suffixes
    diagnostics so multi-run reports stay distinguishable. *)
val check :
  ?iters:int ->
  ?fuel:int ->
  ?max_diags:int ->
  ?params:(Ir.Ident.t -> int) ->
  ?rand:(unit -> bool) ->
  ?arrays:((Ir.Ident.t * int list) * int) list ->
  ?tag:string ->
  Analysis.Pipeline.analysis ->
  Analysis.Range.t ->
  result
