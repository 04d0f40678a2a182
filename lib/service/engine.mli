(** The memoizing analysis engine.

    An engine owns one {!Cache} and one {!Obs.Instrument} registry and
    serves the repository's analyses over raw source text. The source
    text is digested once per request, and that digest names the
    source's one cache entry: a record holding its
    {!Analysis.Pipeline} instance, every report rendered for it or
    promoted from the disk store, the passes the engine computes itself
    (the dependence report and the verify parts of checked mode) and
    what the store holds for it. Each request forces exactly the
    pipeline passes its artifact needs — a [trip] request never runs
    range analysis or dependence testing. The other entries are unit
    artifacts, keyed by unit digest and shared across sources. The
    registry holds all of the engine's accounting:
    [pass.hits/misses{pass=…}] and [artifact.served{artifact=…,tier=…}]
    counters, registered at {!create} (see {!pass_stats},
    {!artifact_stats}).

    Phase timings ([phase.parse], [phase.ssa], [phase.classify],
    [phase.deps], …) are recorded in the registry on the miss path, and
    {!Pool.tick} is called between passes so pooled tasks honor
    cooperative timeouts. One engine may be shared by all domains of a
    {!Pool}. *)

type options = {
  use_sccp : bool;
  check_iters : int;
      (** the oracle's per-loop iteration bound N for checked mode *)
  use_ranges : bool;
      (** range-sharpen dependence testing and run the range oracle in
          checked mode (the [--no-ranges] baseline turns this off) *)
}

val default_options : options
(** [{ use_sccp = true; check_iters = 100; use_ranges = true }] *)

type artifact = Classify | Deps | Trip | Check | Ranges

val artifact_to_string : artifact -> string
val artifact_of_string : string -> artifact option

type t

(** [create ~capacity ~options ~store ()] — [capacity] bounds the
    memory cache (default 256 entries: one per resident source, plus
    the unit artifacts). [store] layers a persistent disk tier under
    it, one entry per source holding its rendered artifacts as
    sections. When the memory tier misses, the source's entry is read
    (once per resident source: a source evicted from the cache reads it
    again) and every section is promoted into the source's record; a
    request that renders a section the entry lacks republishes it with
    that section added. A restarted process — or a sibling process
    sharing the same store — starts warm. Structured values (pipelines,
    unit artifacts, verify parts) stay memory-only: they embed
    process-local interned identifiers. See docs/STORE.md. *)
val create :
  ?capacity:int -> ?options:options -> ?store:Store.Disk.t -> unit -> t

val options : t -> options
val metrics : t -> Obs.Instrument.t
val cache_stats : t -> Cache.stats

(** The attached disk store, if any. *)
val store : t -> Store.Disk.t option

(** Attach ([Some]) or detach ([None]) the disk tier at runtime — the
    serve-mode [PERSIST] verb. Each resident source reads the new
    store's entry once, or publishes its reports there on its next
    render. Requests in flight keep whichever store they already
    probed. *)
val set_store : t -> Store.Disk.t option -> unit

(** The pipeline instance of [src]'s record (creating the record, with
    an unforced pipeline, on first sight). Exposed for introspection and
    tests. *)
val pipeline : t -> string -> Analysis.Pipeline.t

(** The memoized whole-program analysis (forces through promotion).
    [Error] carries the parse (or SSA-construction) diagnostic; errors
    are cached too, so a corpus with a malformed member does not
    re-parse it on every batch pass.

    On every entry point below, [?pool] lends the engine a domain pool:
    when a Classify miss must analyze more than one unit, the per-unit
    walks fan out across its workers. Only pass a pool from a
    coordinator context — never from inside a pool task (nested [run]
    would deadlock). *)
val analyze :
  ?pool:Pool.pool -> t -> string -> (Analysis.Pipeline.analysis, string) result

(** [render t artifact src] is the memoized text report, forcing only
    the passes the artifact needs. Each render looks the source's
    record up once. A Classify miss runs unit-at-a-time
    through the shared unit-artifact cache: unchanged units (keyed by
    their exact {!Analysis.Pipeline.unit_info} digest) are reused, and
    each unit counts one [unit_classify] hit or miss in
    {!pass_stats}. *)
val render : ?pool:Pool.pool -> t -> artifact -> string -> (string, string) result

(** [renders t artifacts src] renders each artifact in order, as
    {!render} does, and stops at the first error. With a store
    attached, it then publishes the source's entry once, when this
    request rendered a section the store does not hold yet; the
    sections rendered before an error are published too. [render] is
    [renders] of one artifact. *)
val renders :
  ?pool:Pool.pool -> t -> artifact list -> string -> (string list, string) result

val classify : t -> string -> (string, string) result
val deps : t -> string -> (string, string) result
val trip : t -> string -> (string, string) result

(** The rendered per-def interval table ([render t Ranges src]). *)
val ranges : t -> string -> (string, string) result

(** [diff t old_src new_src] analyzes [old_src] (warming the unit
    cache), then [new_src] through it, and renders one line per
    analysis unit (loop-forest root) saying whether its artifact was reused or
    re-analyzed, and why ([ivtool diff]). *)
val diff : ?pool:Pool.pool -> t -> string -> string -> (string, string) result

(** [reanalyze t src] — the serve-mode REANALYZE verb: classify [src]
    through the unit layer and prepend a unit-reuse summary line to the
    classification report. With a warm unit cache, only the units whose
    digests changed are recomputed. *)
val reanalyze : ?pool:Pool.pool -> t -> string -> (string, string) result

(** [check t src] is checked mode as a structured report: the three
    verify passes ([verify_ir], [verify_class], [verify_trans]) forced
    through the source's record, which keeps each part so
    [passes]/STATS show it. The
    rendered equivalent is [render t Check src]. When the structural
    part finds errors the report carries only that part: a broken IR is
    not interpreted or transformed. *)
val check : t -> string -> (Verify.Check.report, string) result

(** [invalidate t src] drops [src]'s record (under the engine's
    options): its pipeline, reports, dependence report, verify parts
    and store state. Returns how many entries were removed: 1, or 0
    when the source is not resident. Unit artifacts stay: other sources
    may share them. *)
val invalidate : t -> string -> int

(** Drop every cache entry and reset the cache statistics and every
    instrument of the registry (the accounting counters included). *)
val clear : t -> unit

(** [(pass, hits, misses)] per pipeline pass, in topological order.
    A hit means a request needed the pass and found it already forced;
    a miss means the request ran it. *)
val pass_stats : t -> (string * int * int) list

(** [(artifact, mem, disk, computed)] per artifact kind: how many
    {!render} requests were served from the memory tier (LRU hit,
    including pipeline-level hits), from the disk store, or freshly
    computed. All zeros until the first render. *)
val artifact_stats : t -> (artifact * int * int * int) list

(** Cache statistics, the store line (when a store is attached), and
    then from one registry snapshot: the nonzero per-artifact tier
    lines and per-pass hit/miss lines with hit rates, followed by the
    dump of every other instrument — the [STATS] payload. *)
val stats_report : t -> string

(** Prometheus text-format (0.0.4) exposition of everything the engine
    knows: cache/store tiers, a current-process GC snapshot, and the
    whole registry — per-pass hit/miss counters
    ([iv_pass_hits_total{pass="…"}]), per-artifact tier counters, phase
    wall/GC, pool per-domain telemetry. Backs serve [METRICS] and
    `ivtool metrics`. *)
val prometheus_report : t -> string

(** [passes_report t src] — the pass DAG for [src] (the [ivtool
    passes] body). Columns: pass, forced/lazy status, owner ([store]
    when the pass's artifact was served from the disk tier and the
    pass was therefore never run, [engine] for
    {!Analysis.Pipeline.engine_forced} passes, [pipeline] otherwise),
    inputs. The header line shows the source digest, the engine's base
    cache key. *)
val passes_report : t -> string -> string
