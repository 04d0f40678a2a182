(** A parallel batch engine on OCaml 5 domains.

    A {!pool} spawns its workers once ({!create}) and parks them between
    batches. [run pool f tasks] runs [f] over [tasks] on the pool's workers
    and returns one {!outcome} per task {e in input order} — results are
    deterministic regardless of worker count or scheduling.

    Failure isolation: an exception escaping one task is captured as
    [Failed] for that task only; the rest of the batch proceeds.

    Timeouts are cooperative — domains cannot be killed. When
    [timeout_s] is given, each task gets a per-domain deadline;
    long-running task code (the analysis engine does this between
    pipeline phases) calls {!tick}, which raises {!Timeout} once the
    deadline has passed, and the task is reported as [Timed_out]. A task
    that never ticks simply cannot time out. *)

exception Timeout

type 'b outcome =
  | Done of 'b
  | Failed of string  (** the escaping exception, printed *)
  | Timed_out of float  (** elapsed seconds when the task gave up *)

(** [tick ()] raises {!Timeout} if the current task's deadline has
    passed. A no-op outside a pool task or when no timeout was set. *)
val tick : unit -> unit

(** [Done x -> Ok x], otherwise [Error message]. *)
val to_result : 'b outcome -> ('b, string) result

(** A sensible worker count for this machine: the domain's recommended
    parallelism, capped at [cap] (default 8). *)
val default_domains : ?cap:int -> unit -> int

(** {2 The pool}

    Spawning per job would dominate small corpora; a {!pool} spawns its
    workers once, so repeated batch passes and serve-mode requests reuse
    the same domains. *)

type pool

(** [create ~domains ()] spawns [domains - 1] worker domains (the
    submitter is worker 0). [domains] defaults to {!default_domains},
    and is clamped to ≥ 1 ([create ~domains:1] spawns nothing; {!run}
    then executes on the calling domain). [metrics] observes the
    spawn/join cost here and in {!shutdown}, and becomes the default
    telemetry registry for every {!run} on this pool. *)
val create : ?domains:int -> ?metrics:Obs.Instrument.t -> unit -> pool

(** Total workers, including the submitting domain. *)
val size : pool -> int

(** [run ?timeout_s ?queue_depth ?metrics pool f tasks] — one outcome
    per task, in input order, failures isolated, cooperative timeouts
    via {!tick}. The tasks form one batch: the calling domain claims
    tasks by atomic index alongside the idle workers and returns when
    every task has finished — see docs/SERVICE.md. Several domains may
    run on one pool at once. Raises [Invalid_argument] after
    {!shutdown}, for an empty [tasks] too.

    [queue_depth], when given, is called with the number of unclaimed
    nodes across the pool's open batches each time this run's task is
    claimed — feed it a {!Obs.Instrument.gauge}. [metrics] (default:
    the pool's registry) receives per-domain scheduler telemetry:
    [pool.tasks{domain=N}], [pool.steals{domain=N}] and
    [pool.parks{domain=N}] counters, [pool.task_latency{domain=N}] /
    [pool.queue_wait{domain=N}] histograms, and per-task GC deltas as
    [pool.gc.*{domain=N}] counters. *)
val run :
  ?timeout_s:float ->
  ?queue_depth:(int -> unit) ->
  ?metrics:Obs.Instrument.t ->
  pool ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array

(** Stop and join the worker domains. Idempotent. A worker finishes
    the node it is running first; a run still in flight completes on
    the domain that called it. *)
val shutdown : pool -> unit

(** {2 In-task fork/join}

    [fork_all thunks] evaluates every thunk as one batch and returns
    one outcome per thunk, in order — the unit-graph scheduling entry
    point.

    Called from {e inside} a pool task, the batch opens on that task's
    pool: idle workers claim thunks, the caller claims the rest, and
    the call returns when all have finished. The caller claims only
    from batches it opened, so forking while holding a lock is safe.
    Called from outside a task, the batch opens on [pool] when given,
    and otherwise the calling domain runs every thunk itself. Either
    way thunks run against the caller's deadline, and each failure is
    isolated into its own outcome. *)
val fork_all : ?pool:pool -> (unit -> 'a) array -> 'a outcome array

(** True when the calling domain is currently executing a node of a
    pool's batch (so {!fork_all} opens its batch on that pool). *)
val in_worker : unit -> bool
