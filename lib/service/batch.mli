(** Batch analysis: a corpus of named sources, fanned out over a
    {!Pool}, memoized by an {!Engine}.

    Results come back in input order, so a batch run's concatenated
    output is byte-identical whatever the worker count. *)

type item = { name : string; source : string }

(** [report engine ~artifacts item] renders the requested artifacts for
    one item: a single artifact is returned bare; several are
    concatenated under [-- classify --]-style headers. The first
    analysis error wins. [pool] is lent to the engine for unit-level
    fan-out — coordinator contexts only, never from inside a pool
    task. *)
val report :
  ?pool:Pool.pool ->
  Engine.t ->
  artifacts:Engine.artifact list ->
  item ->
  (string, string) result

(** [run ~domains ~engine ~artifacts items] analyzes every item and
    returns per-item reports in input order. [passes] (default 1)
    repeats the whole batch; later passes are served from the cache and
    the reports of the last pass are returned. [timeout_s] is the
    cooperative per-item timeout (see {!Pool}). Worker crashes and
    timeouts surface as [Error] for their item only.

    Every pass fans out through {!Pool.run}: on [pool] when given
    ([domains] is then ignored), otherwise on a temporary pool of
    [domains] workers that spans every pass ([domains = 1] spawns
    nothing and runs inline). The pool is also lent to the engine, so
    each item's per-unit classification walk fans out — analysis units,
    not files, are the scheduled tasks. *)
val run :
  ?timeout_s:float ->
  ?passes:int ->
  ?pool:Pool.pool ->
  domains:int ->
  engine:Engine.t ->
  artifacts:Engine.artifact list ->
  item list ->
  (item * (string, string) result) list
