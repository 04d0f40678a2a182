(** A bounded, thread-safe, in-memory LRU cache.

    Entries are kept in recency order; inserting into a full cache
    evicts the least-recently-used entry. Every operation is guarded by
    a mutex, so one cache instance may be shared by all the domains of a
    {!Pool}. Hit, miss, eviction and insertion counts are maintained for
    the engine's STATS and METRICS reports. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

(** [create ~capacity ()] makes an empty cache holding at most
    [capacity] entries (default 256). [capacity] is clamped to ≥ 1. *)
val create : ?capacity:int -> unit -> ('k, 'v) t

val capacity : ('k, 'v) t -> int
val size : ('k, 'v) t -> int

(** [find c k] is the cached value, bumping [k] to most-recent. Counts
    one hit or one miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add c k v] inserts or replaces [k], making it most-recent, evicting
    the LRU entry if the cache was full. Does not touch hit/miss. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** [find_or_add c k f] returns the cached value for [k], or computes
    [f ()], inserts it and returns it. The lock is released while [f]
    runs, so two domains racing on the same absent key may both compute;
    the first insertion wins and the loser's value is returned from its
    own computation (still counted as one miss each). *)
val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** [invalidate c k] removes [k] if present; returns whether it was. *)
val invalidate : ('k, 'v) t -> 'k -> bool

(** Remove every entry (counted as invalidations, not evictions). *)
val clear : ('k, 'v) t -> unit

val stats : ('k, 'v) t -> stats
val reset_stats : ('k, 'v) t -> unit

(** Render [stats] as a one-line summary, e.g.
    ["hits=3 misses=2 hit_rate=0.60 evictions=0 size=2/256"]. *)
val stats_to_string : stats -> string
