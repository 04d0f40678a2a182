(* The work-stealing scheduler. One Chase-Lev deque per worker
   ([Deque]): the job submitter seeds its own deque with the top-level
   tasks (reverse order, so index 0 pops first), every worker pops its
   own bottom and steals from victims' tops when empty, and a task may
   fork subtasks ([fork_all]) that land on its worker's own deque as
   first-class scheduler nodes — that is how a single large file stops
   serializing a domain: its per-unit analyses are stolen by whoever is
   idle.

   Determinism: results land in a per-index slot, so output order is
   input order whatever the interleaving; the deque claims each node
   exactly once (pop/steal race settled by a CAS on [top]).

   Idle workers park on a condition variable, not a spin loop — on an
   oversubscribed or single-core host a spinning thief would starve the
   very worker it wants to steal from. The protocol is an epoch
   counter: read the epoch, re-scan every deque, and only wait if the
   epoch is unchanged (every push batch and every completion that a
   waiter could be waiting on bumps the epoch and broadcasts, so the
   re-scan either sees the work or sees a moved epoch). *)

exception Timeout

type 'b outcome = Done of 'b | Failed of string | Timed_out of float

(* The current task's absolute deadline (epoch seconds), per domain. *)
let deadline : float option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let tick () =
  match Domain.DLS.get deadline with
  | Some d when Unix.gettimeofday () > d -> raise Timeout
  | _ -> ()

let capture t0 thunk =
  try Done (thunk ()) with
  | Timeout -> Timed_out (Unix.gettimeofday () -. t0)
  | e -> Failed (Printexc.to_string e)

(* Deadlines nest: a task body may execute further tasks (a worker
   helping with forked subtasks), so the previous deadline is restored,
   not cleared. [timeout_s = None] inherits the ambient deadline — a
   forked subtask keeps ticking against its parent's budget. *)
let run_task ?timeout_s f task =
  let t0 = Unix.gettimeofday () in
  let saved = Domain.DLS.get deadline in
  (match timeout_s with
   | Some s -> Domain.DLS.set deadline (Some (t0 +. s))
   | None -> ());
  let outcome = capture t0 (fun () -> f task) in
  Domain.DLS.set deadline saved;
  outcome

(* Observe a spawn/join (or any pool-internal) duration into a metrics
   histogram, when a registry is attached. *)
let observing metrics name f =
  match metrics with
  | None -> f ()
  | Some m -> Obs.Instrument.time m name f

(* -- scheduler core -- *)

(* A fork/join scope: [left] counts unfinished subtasks of one
   [fork_all]. The node that brings it to zero bumps the epoch so the
   (possibly parked) forker notices. *)
type scope = { left : int Atomic.t }

type node = { scope : scope option; run : unit -> unit }

type sched = {
  nworkers : int;
  deques : node Deque.t array;
  remaining : int Atomic.t; (* unfinished top-level tasks *)
  idle_lock : Mutex.t;
  idle_cond : Condition.t;
  mutable epoch : int; (* guarded by idle_lock *)
}

(* Per-worker, per-job telemetry instruments, registered once per job
   under the worker's domain-id label, then lock-cheap per node. *)
type instr = {
  c_tasks : Obs.Instrument.counter;
  h_latency : Obs.Instrument.histogram;
  h_wait : Obs.Instrument.histogram;
  c_steals : Obs.Instrument.counter;
  c_parks : Obs.Instrument.counter;
  r_gc : Obs.Prof.recorder;
}

type wctx = {
  sched : sched;
  wid : int;
  traced : bool;
  instr : instr option;
  queue_depth : (int -> unit) option;
  measured : bool;
}

(* The worker executing the current domain's current job, if any:
   [fork_all] from inside a task finds its own deque through this. *)
let wctx_key : wctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let make_sched nworkers n =
  {
    nworkers;
    deques = Array.init nworkers (fun _ -> Deque.create ());
    remaining = Atomic.make n;
    idle_lock = Mutex.create ();
    idle_cond = Condition.create ();
    epoch = 0;
  }

(* Bump the epoch and wake every parked worker. Called after each push
   batch and by whichever node completes a scope or the whole job. *)
let publish s =
  Mutex.lock s.idle_lock;
  s.epoch <- s.epoch + 1;
  Condition.broadcast s.idle_cond;
  Mutex.unlock s.idle_lock

let read_epoch s =
  Mutex.lock s.idle_lock;
  let e = s.epoch in
  Mutex.unlock s.idle_lock;
  e

(* Park until the epoch moves past [e] — unless [alive] already turned
   false. Spurious wakeups are fine; every caller loops. *)
let park ctx e alive =
  let s = ctx.sched in
  Mutex.lock s.idle_lock;
  if s.epoch = e && alive () then begin
    (match ctx.instr with
     | Some i -> Obs.Instrument.incr i.c_parks
     | None -> ());
    Condition.wait s.idle_cond s.idle_lock
  end;
  Mutex.unlock s.idle_lock

let register_instr m labels =
  {
    c_tasks = Obs.Instrument.counter m (Obs.Instrument.labeled "pool.tasks" labels);
    h_latency =
      Obs.Instrument.histogram m
        (Obs.Instrument.labeled "pool.task_latency" labels);
    h_wait =
      Obs.Instrument.histogram m (Obs.Instrument.labeled "pool.queue_wait" labels);
    c_steals =
      Obs.Instrument.counter m (Obs.Instrument.labeled "pool.steals" labels);
    c_parks =
      Obs.Instrument.counter m (Obs.Instrument.labeled "pool.parks" labels);
    r_gc = Obs.Prof.recorder ~labels m ~prefix:"pool.gc";
  }

(* Execute one node with the PR 7 telemetry envelope: per-domain task
   counter, latency/queue-wait histograms, per-task GC deltas as
   [pool.gc.*{domain=N}] counters ([Gc.quick_stat] minor-heap counters
   are domain-local on OCaml 5, so the attribution is exact), and the
   same GC delta as span attributes when traced. *)
let exec_node ~traced ~instr ~wid node ~wait_ns =
  let exec () =
    match instr with
    | Some i ->
      let before = Obs.Prof.sample () in
      let t0 = Obs.Clock.now_ns () in
      Fun.protect
        ~finally:(fun () ->
          let d = Obs.Prof.delta before (Obs.Prof.sample ()) in
          Obs.Instrument.incr i.c_tasks;
          Obs.Instrument.observe i.h_latency
            (Obs.Clock.ns_to_us (Int64.sub (Obs.Clock.now_ns ()) t0) *. 1e-6);
          Obs.Instrument.observe i.h_wait (Obs.Clock.ns_to_us wait_ns *. 1e-6);
          Obs.Prof.record i.r_gc d;
          if traced then Obs.Trace.add_attrs (Obs.Prof.attrs d))
        node.run
    | None -> node.run ()
  in
  if traced then
    Obs.Trace.with_span ~cat:"pool"
      ~attrs:
        [ ("worker", Obs.Trace.Int wid);
          ("queue_wait_us", Obs.Trace.Float (Obs.Clock.ns_to_us wait_ns)) ]
      "pool.task" exec
  else exec ()

let exec_ctx ctx node ~wait_ns =
  exec_node ~traced:ctx.traced ~instr:ctx.instr ~wid:ctx.wid node ~wait_ns

(* Scan victims round-robin from our own id. A [Retry] means someone
   claimed the top while we looked — re-read the same victim, it
   settles (top only grows, so a retry implies global progress). *)
let try_steal ctx =
  let s = ctx.sched in
  let rec attempt v =
    match Deque.steal s.deques.(v) with
    | Deque.Stolen node ->
      (match ctx.instr with
       | Some i -> Obs.Instrument.incr i.c_steals
       | None -> ());
      Some node
    | Deque.Retry -> attempt v
    | Deque.Empty -> None
  in
  let rec scan k =
    if k >= s.nworkers then None
    else
      match attempt ((ctx.wid + k) mod s.nworkers) with
      | Some _ as r -> r
      | None -> scan (k + 1)
  in
  scan 1

let find_work ctx =
  match Deque.pop ctx.sched.deques.(ctx.wid) with
  | Some _ as r -> r
  | None -> try_steal ctx

let feed_depth ctx =
  match ctx.queue_depth with
  | None -> ()
  | Some g ->
    g (Array.fold_left (fun acc d -> acc + Deque.length d) 0 ctx.sched.deques)

(* A worker's top-level loop: pop own bottom, steal, or park; done when
   no top-level task is unfinished. *)
let rec work_loop ctx =
  let s = ctx.sched in
  if Atomic.get s.remaining > 0 then begin
    let claim_ns = if ctx.measured then Obs.Clock.now_ns () else 0L in
    let take () =
      match find_work ctx with
      | None -> None
      | Some node ->
        feed_depth ctx;
        let wait_ns =
          if ctx.measured then Int64.sub (Obs.Clock.now_ns ()) claim_ns else 0L
        in
        exec_ctx ctx node ~wait_ns;
        Some ()
    in
    (match take () with
     | Some () -> ()
     | None ->
       (* Nothing visible: grab the epoch, close the race with one more
          scan, then park until the epoch moves. *)
       let e = read_epoch s in
       (match take () with
        | Some () -> ()
        | None -> park ctx e (fun () -> Atomic.get s.remaining > 0)));
    work_loop ctx
  end

(* -- fork/join inside a task --

   The forker pushes its subtasks onto its OWN deque (it is the owner),
   publishes, then helps: it pops nodes, but executes only nodes of its
   own scope. Since nothing else is pushed to this deque between the
   fork and the joins, the scope's nodes are the newest contiguous
   block — the first pop that returns a foreign node proves every scope
   node is already claimed (popped here or stolen), so the forker puts
   it back and parks until [left] drains. Refusing foreign nodes is
   what makes forking safe from inside a critical section: a foreign
   top-level task may take the very lock the forker is holding (two
   batch items over the same source share a pipeline mutex), and
   executing it inline would self-deadlock. Thieves in [work_loop] hold
   no locks, so they may run anything. *)
let fork_in ctx thunks =
  let s = ctx.sched in
  let n = Array.length thunks in
  let results = Array.make n (Failed "task never ran") in
  let sc = { left = Atomic.make n } in
  let inherited = Domain.DLS.get deadline in
  let dq = s.deques.(ctx.wid) in
  for i = n - 1 downto 0 do
    let run () =
      let saved = Domain.DLS.get deadline in
      Domain.DLS.set deadline inherited;
      let t0 = Unix.gettimeofday () in
      results.(i) <- capture t0 thunks.(i);
      Domain.DLS.set deadline saved;
      if Atomic.fetch_and_add sc.left (-1) = 1 then publish s
    in
    Deque.push dq { scope = Some sc; run }
  done;
  publish s;
  let rec help () =
    if Atomic.get sc.left > 0 then
      match Deque.pop dq with
      | Some ({ scope = Some sc'; _ } as node) when sc' == sc ->
        exec_ctx ctx node ~wait_ns:0L;
        help ()
      | Some node ->
        (* Foreign: hand it back for a thief (or our own outer loop). *)
        Deque.push dq node;
        join_wait ()
      | None -> join_wait ()
  and join_wait () =
    if Atomic.get sc.left > 0 then begin
      let e = read_epoch s in
      if Atomic.get sc.left > 0 then park ctx e (fun () -> Atomic.get sc.left > 0);
      join_wait ()
    end
  in
  help ();
  results

(* -- job bodies -- *)

(* Worker [wid]'s participation in one job. Worker 0 (the submitter)
   seeds its deque with every top-level task in reverse index order:
   its own pops then proceed from index 0 while thieves start from the
   far end — the two walks meet in the middle with minimal traffic. *)
let job_worker ?timeout_s ?queue_depth ?metrics ~traced ~sched f tasks results
    wid =
  let domain_id = (Domain.self () :> int) in
  let labels = [ ("domain", string_of_int domain_id) ] in
  let instr = Option.map (fun m -> register_instr m labels) metrics in
  let ctx =
    {
      sched;
      wid;
      traced;
      instr;
      queue_depth;
      measured = traced || Option.is_some metrics;
    }
  in
  if wid = 0 then begin
    let dq = sched.deques.(0) in
    for i = Array.length tasks - 1 downto 0 do
      let run () =
        results.(i) <- run_task ?timeout_s f tasks.(i);
        if Atomic.fetch_and_add sched.remaining (-1) = 1 then publish sched
      in
      Deque.push dq { scope = None; run }
    done;
    publish sched
  end;
  let saved = Domain.DLS.get wctx_key in
  Domain.DLS.set wctx_key (Some ctx);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set wctx_key saved)
    (fun () ->
      if traced then
        Obs.Trace.with_span ~cat:"pool"
          ~attrs:[ ("worker", Obs.Trace.Int wid) ]
          "pool.worker"
          (fun () -> work_loop ctx)
      else work_loop ctx)

(* The -j1 path: a plain loop on the calling domain — no deques, no
   scheduler atomics, no worker context (so [fork_all] runs inline). *)
let seq_run ?timeout_s ?queue_depth ?metrics ~traced f tasks results =
  let n = Array.length tasks in
  let domain_id = (Domain.self () :> int) in
  let labels = [ ("domain", string_of_int domain_id) ] in
  let instr = Option.map (fun m -> register_instr m labels) metrics in
  for i = 0 to n - 1 do
    (match queue_depth with Some g -> g (max 0 (n - i - 1)) | None -> ());
    exec_node ~traced ~instr ~wid:0
      {
        scope = None;
        run = (fun () -> results.(i) <- run_task ?timeout_s f tasks.(i));
      }
      ~wait_ns:0L
  done

let to_result = function
  | Done x -> Ok x
  | Failed msg -> Error ("task failed: " ^ msg)
  | Timed_out s -> Error (Printf.sprintf "task timed out after %.3fs" s)

let default_domains ?(cap = 8) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

(* -- the pool --

   A pool spawns its workers once and keeps them parked in
   [Condition.wait] between jobs, so repeated batch passes and
   serve-mode requests reuse the same domains (spawning per job
   dominated small corpora: EXPERIMENTS.md, B1). A job is a
   generation-stamped closure; the submitter participates as worker 0
   and waits until every parked worker has finished the generation
   before returning, so results are complete (and in input order) on
   return. *)

type pool = {
  size : int; (* total workers, including the submitter *)
  lock : Mutex.t;
  cond : Condition.t;
  job_lock : Mutex.t; (* serializes submitters; held across a whole job *)
  mutable generation : int;
  mutable job : (int * (int -> unit)) option; (* generation, body *)
  mutable finished : int; (* parked workers done with the current job *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  metrics : Obs.Instrument.t option; (* default registry for [run] *)
}

let worker_loop pool wid =
  let seen = ref 0 in
  Mutex.lock pool.lock;
  let rec loop () =
    if pool.stopped then Mutex.unlock pool.lock
    else
      match pool.job with
      | Some (g, body) when g <> !seen ->
        seen := g;
        Mutex.unlock pool.lock;
        (try body wid with _ -> ());
        Mutex.lock pool.lock;
        pool.finished <- pool.finished + 1;
        Condition.broadcast pool.cond;
        loop ()
      | _ ->
        Condition.wait pool.cond pool.lock;
        loop ()
  in
  loop ()

let create ?domains ?metrics () =
  let size =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let pool =
    {
      size;
      lock = Mutex.create ();
      cond = Condition.create ();
      job_lock = Mutex.create ();
      generation = 0;
      job = None;
      finished = 0;
      stopped = false;
      workers = [];
      metrics;
    }
  in
  if size > 1 then
    pool.workers <-
      Obs.Trace.with_span ~cat:"pool"
        ~attrs:[ ("domains", Obs.Trace.Int (size - 1)) ]
        "pool.spawn"
        (fun () ->
          observing metrics "pool.spawn" (fun () ->
              List.init (size - 1) (fun k ->
                  Domain.spawn (fun () -> worker_loop pool (k + 1)))));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.job_lock;
  Mutex.lock pool.lock;
  let already = pool.stopped in
  pool.stopped <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock;
  if (not already) && pool.workers <> [] then
    Obs.Trace.with_span ~cat:"pool" "pool.join" (fun () ->
        observing pool.metrics "pool.join" (fun () ->
            List.iter Domain.join pool.workers));
  pool.workers <- [];
  Mutex.unlock pool.job_lock

let run ?timeout_s ?queue_depth ?metrics pool f tasks =
  let n = Array.length tasks in
  let results = Array.make n (Failed "task never ran") in
  if n = 0 then results
  else begin
    Mutex.lock pool.job_lock;
    if pool.stopped then begin
      Mutex.unlock pool.job_lock;
      invalid_arg "Pool.run: pool is shut down"
    end;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool.job_lock)
      (fun () ->
        let traced = Obs.Trace.enabled () in
        let metrics =
          match metrics with Some _ -> metrics | None -> pool.metrics
        in
        let run_all () =
          if pool.size <= 1 then
            seq_run ?timeout_s ?queue_depth ?metrics ~traced f tasks results
          else begin
            let sched = make_sched pool.size n in
            let body wid =
              job_worker ?timeout_s ?queue_depth ?metrics ~traced ~sched f
                tasks results wid
            in
            Mutex.lock pool.lock;
            pool.generation <- pool.generation + 1;
            pool.finished <- 0;
            pool.job <- Some (pool.generation, body);
            Condition.broadcast pool.cond;
            Mutex.unlock pool.lock;
            (* The submitter seeds the deques and works the same job;
               parked workers steal their way in. *)
            Fun.protect
              ~finally:(fun () ->
                Mutex.lock pool.lock;
                while pool.finished < pool.size - 1 do
                  Condition.wait pool.cond pool.lock
                done;
                pool.job <- None;
                Mutex.unlock pool.lock)
              (fun () -> body 0)
          end
        in
        if traced then
          Obs.Trace.with_span ~cat:"pool"
            ~attrs:
              [ ("tasks", Obs.Trace.Int n);
                ("domains", Obs.Trace.Int pool.size);
                ("persistent", Obs.Trace.Bool true) ]
            "pool.map" run_all
        else run_all ());
    results
  end

(* -- fork_all: the unit-graph entry point --

   Inside a pool task, fork onto the worker's own deque (the per-unit
   nodes become stealable scheduler nodes). Outside one, borrow [pool]
   as a one-job coordinator when it has real workers; otherwise run
   inline. Inline evaluation deliberately leaves the ambient deadline
   untouched, so nested [tick]s still observe the caller's budget. *)
let inline_all thunks =
  Array.map
    (fun t ->
      let t0 = Unix.gettimeofday () in
      capture t0 t)
    thunks

let fork_all ?pool thunks =
  if Array.length thunks <= 1 then inline_all thunks
  else
    match Domain.DLS.get wctx_key with
    | Some ctx when ctx.sched.nworkers > 1 -> fork_in ctx thunks
    | _ -> (
      match pool with
      | Some p when p.size > 1 -> run p (fun t -> t ()) thunks
      | _ -> inline_all thunks)

let in_worker () = Option.is_some (Domain.DLS.get wctx_key)
