(** GC/allocation profiling: [Gc.quick_stat] deltas scoped to a span of
    work, recorded into an {!Instrument} registry.

    [quick_stat] is cheap and, on OCaml 5, domain-local for minor-heap
    counters — sampling inside a pool worker attributes allocation to
    that worker's domain. Major-heap counters are process-global:
    per-domain deltas of those over-attribute concurrent work, so
    per-domain analysis should lead with [minor_words].

    Deltas become counters named [<prefix>.minor_words],
    [<prefix>.promoted_words], [<prefix>.major_words],
    [<prefix>.minor_gcs], [<prefix>.major_gcs] (plus a process-wide
    [gc.heap_words] gauge), optionally labeled via
    {!Instrument.labeled} — so STATS, Prometheus and [--profile] all
    see them with no extra plumbing. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

(** A [Gc.quick_stat] reading (allocation totals for the calling
    domain, process-wide major-heap figures). *)
val sample : unit -> sample

type delta = {
  d_minor_words : int;
  d_promoted_words : int;
  d_major_words : int;
  d_minor_gcs : int;
  d_major_gcs : int;
  d_heap_words : int;  (** heap level at the end sample, not a delta *)
}

(** [delta before after] — component-wise difference, clamped at 0. *)
val delta : sample -> sample -> delta

(** The registry handles {!record} writes: the [<prefix>.<field>]
    counters, with [labels] appended to each name via
    {!Instrument.labeled}, and the [gc.heap_words] gauge. Names are
    built once; all five counters and the gauge are registered on the
    first {!record}, so every series of the prefix exists from then on
    (at zero until a delta reaches it). *)
type recorder

val recorder :
  ?labels:(string * string) list -> Instrument.t -> prefix:string -> recorder

(** Bump the recorder's counters by the delta's fields and set the
    [gc.heap_words] gauge. *)
val record : recorder -> delta -> unit

(** The nonzero fields of a delta as span attributes
    ([minor_words], [promoted_words], [major_words], [minor_gcs],
    [major_gcs]) — attach with {!Trace.add_attrs}. *)
val attrs : delta -> (string * Trace.attr) list

(** [time m name f] is {!Instrument.time} plus a GC delta recorded
    under the same [name] prefix — wall clock into the [name]
    histogram, allocation into [name.minor_words] etc. Records even if
    [f] raises. *)
val time : Instrument.t -> string -> (unit -> 'a) -> 'a

(** Render the per-pass wall/alloc/GC table from a registry: one row
    per [phase.<pass>] histogram joined with its sibling GC counters,
    sorted by total wall time descending, with a totals row and the
    current [gc.heap_words] gauge. The [--profile] surface. *)
val phase_table : Instrument.t -> string
