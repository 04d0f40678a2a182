(** The metrics registry: counters, gauges and latency histograms.

    Instruments are created (or looked up) by name under the registry
    lock; all operations are thread-safe. Counters and gauges are
    single atomics, so an update through a resolved handle takes no
    lock. Latency histograms bucket samples into powers of two of
    microseconds, so percentile estimates are deterministic (no
    sampling). The service engine keeps all its accounting here; its
    [STATS] reply renders one {!snapshot} through {!dump_views}. *)

type t

type counter
type gauge
type histogram

(** A fresh, empty registry. *)
val create : unit -> t

(** [counter t name] finds or registers a monotonic counter. *)
val counter : t -> string -> counter

val incr : ?by:int -> counter -> unit
val count : counter -> int

(** [gauge t name] finds or registers a last-value-wins gauge. *)
val gauge : t -> string -> gauge

val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** [histogram t name] finds or registers a latency histogram
    (samples in seconds). *)
val histogram : t -> string -> histogram

val observe : histogram -> float -> unit

(** [time t name f] runs [f] and records its wall-clock duration in the
    histogram [name]. The sample is recorded even if [f] raises. *)
val time : t -> string -> (unit -> 'a) -> 'a

(** Number of samples a histogram has seen. *)
val samples : histogram -> int

(** Quantile in seconds from the power-of-two buckets; [None] when the
    histogram is empty. [q <= 0.0] (and NaN, conservatively: maximum)
    returns the exact recorded minimum, [q >= 1.0] the exact recorded
    maximum; in between, the answer is a bucket's upper edge clamped
    into [min, max] — always reproducible for the same samples. *)
val quantile : histogram -> float -> float option

(** Mean sample in seconds; [None] when empty. *)
val mean : histogram -> float option

(** Sum of all samples, in seconds. *)
val sum : histogram -> float

(** [labeled name [(k, v); …]] renders the conventional
    [name{k="v",…}] instrument name. Registering under such names is
    how per-domain / per-pass breakdowns are encoded in the flat
    registry; {!Export_prom} splits the block back off and re-emits it
    as Prometheus labels. Values escape backslash, double quote and
    newline. *)
val labeled : string -> (string * string) list -> string

(** A point-in-time copy of one instrument: histograms carry their
    populated log2 buckets as [(upper edge in seconds, count)] pairs in
    increasing-edge order. *)
type view =
  | V_counter of int
  | V_gauge of int
  | V_histogram of {
      v_count : int;
      v_sum : float;  (** seconds *)
      v_min : float;
      v_max : float;
      v_buckets : (float * int) list;
    }

(** Every instrument's current value, sorted by name. *)
val snapshot : t -> (string * view) list

(** Render instrument copies, one line each in the given order:
    counters as [name value], gauges as [name value (gauge)], histograms
    as [name count=… mean=… p50=… p90=… max=…]. Times are integer
    microseconds, rounded half away from zero — byte-stable for the
    same recorded samples. *)
val dump_views : (string * view) list -> string

(** [dump t] = [dump_views (snapshot t)]. *)
val dump : t -> string

(** Forget every instrument's value (instruments stay registered). *)
val reset : t -> unit

(** Seconds rendered as integer microseconds, rounded half away from
    zero — the byte-stable rendering [dump] uses. *)
val us_string : float -> string
