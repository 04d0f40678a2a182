(** The persistent, content-addressed artifact store.

    One store is a directory tree shared by any number of concurrent
    readers and writers — N [ivtool serve] processes, batch runs and CI
    jobs all pointed at the same [--store] root. Entries are keyed by a
    stable {!Hash.Fnv} content digest and an artifact [kind]; the entry
    for digest [abcdef…] lives at [root/ab/cdef….kind] — a two-hex-digit
    shard directory keeps any one directory small when a fleet shares
    one store.

    Publication is crash-safe and racy-writer-safe: an entry is written
    in full to a hidden temp file in its shard and then [rename]d into
    place, so readers only ever see absent or complete files. Two
    writers racing on one key both publish deterministically identical
    bytes; the last rename wins. Entries are {!Frame}-framed, so a read
    that does find garbage (torn by an unclean filesystem, corrupted,
    foreign, or written by another format version) is {e rejected} and
    counted, never propagated: the caller recomputes.

    All operations are non-raising: I/O failures surface as misses
    (reads) or counted errors (writes). Counters are atomics, safe
    across the domains of a pool. *)

type t

type stats = {
  hits : int;  (** reads that returned a validated payload *)
  misses : int;  (** reads that found nothing usable (includes rejects) *)
  puts : int;  (** entries published *)
  put_errors : int;  (** writes that failed (disk full, permissions …) *)
  rejects_corrupt : int;
      (** truncated / trailing / checksum failures, malformed section tables *)
  rejects_version : int;  (** entries from another format version *)
  rejects_foreign : int;  (** bad magic or wrong-kind entries *)
}

(** [open_store ~root ()] creates [root] (and missing parents) if
    needed and returns a handle. [Error] when [root] exists but is not
    a directory, or cannot be created. *)
val open_store : root:string -> unit -> (t, string) result

val root : t -> string

(** [entry_path t ~kind key] — where [key]'s entry lives ([ab/cdef….kind]
    under the root). Exposed for tests and tooling. *)
val entry_path : t -> kind:string -> Hash.Fnv.t -> string

(** [get t ~kind key] reads and validates one entry. [None] on absent,
    unreadable, or rejected entries (rejects are counted by category in
    {!stats}). *)
val get : t -> kind:string -> Hash.Fnv.t -> string option

(** [put t ~kind key payload] publishes one entry atomically
    (write-to-temp + rename). Failures are counted, not raised. *)
val put : t -> kind:string -> Hash.Fnv.t -> string -> unit

(** [get_table t ~kind key] reads an entry whose payload is a
    {!Frame.encode_table} section table. A valid frame holding a
    malformed table counts as [rejects_corrupt] and a miss. *)
val get_table : t -> kind:string -> Hash.Fnv.t -> (string * string) list option

(** [put_table t ~kind key sections] publishes [sections] as one entry
    ({!Frame.encode_table}), atomically like {!put}. *)
val put_table : t -> kind:string -> Hash.Fnv.t -> (string * string) list -> unit

val stats : t -> stats

(** One line, [hits=… misses=… hit_rate=… puts=… put_errors=… rejects=…]
    (rejects summed over the three categories) — the [STATS] store
    line. *)
val stats_to_string : stats -> string

(** [usage t] scans the tree: [(entries, payload_file_bytes)]. Stale
    temp files are not counted as entries. *)
val usage : t -> int * int

type gc_report = {
  scanned : int;  (** entries examined *)
  scanned_bytes : int;
  deleted : int;  (** entries removed (or, dry run, would-be removed) *)
  deleted_bytes : int;
  kept : int;
  kept_bytes : int;
  stale_temps : int;  (** leftover temp files from crashed writers removed *)
}

(** [gc ?dry_run ?max_age_s ?max_bytes t ()] applies the size/age
    policy: entries older than [max_age_s] (by mtime) are deleted, then
    the oldest surviving entries are deleted until the store holds at
    most [max_bytes]. Omitted bounds don't apply. Temp files older than
    ten minutes are always swept (crashed writers). With [dry_run]
    nothing is removed; the report says what would have been. Safe to
    run concurrently with readers and writers: deletion of an entry a
    reader is mid-open on is an ordinary miss on their side. *)
val gc :
  ?dry_run:bool -> ?max_age_s:float -> ?max_bytes:int -> t -> unit -> gc_report

val gc_report_to_string : gc_report -> string
