(* The pool's scheduler has one primitive, the batch: an array of nodes
   with an atomic claim index, an atomic count of unfinished nodes, and
   one result slot per node. Every execution is a batch — [run],
   [fork_all] inside a task or from a coordinator, a one-worker pool,
   no pool at all. Its opener publishes it on the pool (when it has a
   node to share), claims nodes with one [fetch_and_add] each until the
   index runs past the end, then waits for the nodes helpers claimed.

   Lock safety: a domain inside a task claims only from batches it
   opened, so forking while holding a lock never runs a foreign task
   that might want the same lock (two batch items over one source share
   a pipeline mutex). Idle workers, and openers that are not inside a
   task, hold no locks and may claim from any open batch. The opener
   drains its own batch, so progress never depends on a helper.

   Determinism: node [i] writes slot [i], so output order is input
   order whatever the interleaving, and the claim index hands out each
   node exactly once.

   Idling: one lock and condition park both idle workers and openers
   waiting on helpers — on an oversubscribed or single-core host a
   spinning helper would starve the domain it wants to help. The list
   of open batches changes only under the lock, and both a new batch
   and a batch's last completion broadcast under it, so a domain that
   found nothing to do under the lock cannot miss its wakeup. *)

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

(* Observe a spawn/join (or any pool-internal) duration into a metrics
   histogram, when a registry is attached. *)
let observing metrics name f =
  match metrics with
  | None -> f ()
  | Some m -> Obs.Instrument.time m name f

(* -- per-domain telemetry -- *)

type instr = {
  c_tasks : Obs.Instrument.counter;
  h_latency : Obs.Instrument.histogram;
  h_wait : Obs.Instrument.histogram;
  c_steals : Obs.Instrument.counter;
  c_parks : Obs.Instrument.counter;
  r_gc : Obs.Prof.recorder;
}

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

(* This domain's instruments in the registry it last reported into,
   registered again only when a batch brings another registry — so a
   node builds no metric name and takes no registry lock. *)
let instr_key : (Obs.Instrument.t * instr) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let instr_for m =
  match Domain.DLS.get instr_key with
  | Some (m', i) when m' == m -> i
  | _ ->
    let i = register_instr m [ ("domain", string_of_int (Domain.self () :> int)) ] in
    Domain.DLS.set instr_key (Some (m, i));
    i

(* -- batches and the pool -- *)

type batch = {
  nodes : int;
  run_node : int -> unit; (* fills slot [i]; never raises *)
  next : int Atomic.t; (* claim index *)
  left : int Atomic.t; (* unfinished nodes *)
  opener : int; (* domain id: a claim by any other domain is a steal *)
  pool : pool option; (* where forks inside its nodes are published *)
  shared : bool; (* published on [pool] for helpers *)
  registry : Obs.Instrument.t option;
  queue_depth : (int -> unit) option;
  traced : bool;
  measured : bool; (* traced, or reporting into a registry *)
}

and pool = {
  size : int; (* total workers, including the submitter *)
  lock : Mutex.t;
  idle : Condition.t;
  batches : batch list Atomic.t; (* open shared batches, newest first; set under [lock] *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  metrics : Obs.Instrument.t option; (* default registry for [run] *)
}

(* The batch whose node the calling domain is executing, if any: a
   [fork_all] inside it publishes on its pool and is inside a task. *)
let current : batch option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let unclaimed b = max 0 (b.nodes - Atomic.get b.next)

let clock b = if b.measured then Obs.Clock.now_ns () else 0L

(* Run node [i] of [b] on this domain with the telemetry envelope:
   per-domain task and steal counters, latency and queue-wait
   histograms ([since] is when this domain started looking for the
   node), per-task GC deltas as [pool.gc.*{domain=N}] counters
   ([Gc.quick_stat] minor-heap counters are domain-local on OCaml 5, so
   the attribution is exact), and the same delta as span attributes
   when traced. The node that brings [left] to zero wakes the opener. *)
let exec b i ~wid ~since =
  let t0 = clock b in
  let wait_ns = Int64.sub t0 since in
  let run () =
    match b.registry with
    | None -> b.run_node i
    | Some m ->
      let ins = instr_for m in
      let before = Obs.Prof.sample () in
      b.run_node i;
      let d = Obs.Prof.delta before (Obs.Prof.sample ()) in
      Obs.Instrument.incr ins.c_tasks;
      if b.opener <> (Domain.self () :> int) then Obs.Instrument.incr ins.c_steals;
      Obs.Instrument.observe ins.h_latency
        (Obs.Clock.ns_to_us (Int64.sub (Obs.Clock.now_ns ()) t0) *. 1e-6);
      Obs.Instrument.observe ins.h_wait (Obs.Clock.ns_to_us wait_ns *. 1e-6);
      Obs.Prof.record ins.r_gc d;
      if b.traced then Obs.Trace.add_attrs (Obs.Prof.attrs d)
  in
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some b);
  if b.traced then
    Obs.Trace.with_span ~cat:"pool"
      ~attrs:
        [ ("worker", Obs.Trace.Int wid);
          ("queue_wait_us", Obs.Trace.Float (Obs.Clock.ns_to_us wait_ns)) ]
      "pool.task" run
  else run ();
  Domain.DLS.set current saved;
  if Atomic.fetch_and_add b.left (-1) = 1 && b.shared then
    Option.iter
      (fun p ->
        Mutex.lock p.lock;
        Condition.broadcast p.idle;
        Mutex.unlock p.lock)
      b.pool

(* Claim and run nodes of [b] until its index runs past the end. *)
let rec drain b ~wid ~since =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.nodes then begin
    (match (b.queue_depth, b.pool) with
     | Some g, Some p ->
       g (List.fold_left (fun acc b -> acc + unclaimed b) 0 (Atomic.get p.batches))
     | _ -> ());
    exec b i ~wid ~since;
    drain b ~wid ~since:(clock b)
  end

(* Called with [p.lock] held, returns with it released once [finished
   ()] holds (checked under the lock). Meanwhile claim from the newest
   open batch with unclaimed nodes when [any], else park. *)
let rec idle p ~wid ~any ~finished =
  if finished () then Mutex.unlock p.lock
  else
    let since = Obs.Clock.now_ns () in
    match
      if any then List.find_opt (fun b -> unclaimed b > 0) (Atomic.get p.batches)
      else None
    with
    | Some b ->
      Mutex.unlock p.lock;
      drain b ~wid ~since;
      Mutex.lock p.lock;
      idle p ~wid ~any ~finished
    | None ->
      (match Domain.DLS.get instr_key with
       | Some (_, i) -> Obs.Instrument.incr i.c_parks
       | None -> ());
      Condition.wait p.idle p.lock;
      idle p ~wid ~any ~finished

(* Open a batch of [n] nodes ([f i] computes node [i]), help with it
   until every node is done, and return the outcomes in order. A node
   runs against its own [budget] when one is given, and against the
   opener's deadline otherwise — a forked subtask keeps ticking against
   its parent's budget. *)
let execute ?budget ?queue_depth ~registry pool f n =
  let results = Array.make n (Failed "task never ran") in
  let inherited = Domain.DLS.get deadline in
  let run_node i =
    let t0 = Unix.gettimeofday () in
    let saved = Domain.DLS.get deadline in
    Domain.DLS.set deadline
      (match budget with Some s -> Some (t0 +. s) | None -> inherited);
    results.(i) <- capture t0 (fun () -> f i);
    Domain.DLS.set deadline saved
  in
  let inside = Option.is_some (Domain.DLS.get current) in
  (* Without a pool the batch is a plain loop: no [pool.task] spans. *)
  let traced = Option.is_some pool && Obs.Trace.enabled () in
  let b =
    {
      nodes = n;
      run_node;
      next = Atomic.make 0;
      left = Atomic.make n;
      opener = (Domain.self () :> int);
      pool;
      shared = n > 1 && Option.is_some pool;
      registry;
      queue_depth;
      traced;
      measured = traced || Option.is_some registry;
    }
  in
  (match pool with
   | Some p when b.shared ->
     Mutex.lock p.lock;
     Atomic.set p.batches (b :: Atomic.get p.batches);
     Condition.broadcast p.idle;
     Mutex.unlock p.lock
   | _ -> ());
  drain b ~wid:0 ~since:(clock b);
  (match pool with
   | Some p when b.shared ->
     (* Retire the exhausted batch, then wait out the helpers' nodes. *)
     Mutex.lock p.lock;
     Atomic.set p.batches (List.filter (( != ) b) (Atomic.get p.batches));
     idle p ~wid:0 ~any:(not inside) ~finished:(fun () -> Atomic.get b.left = 0)
   | _ -> ());
  results

let to_result = function
  | Done x -> Ok x
  | Failed msg -> Error ("task failed: " ^ msg)
  | Timed_out s -> Error (Printf.sprintf "task timed out after %.3fs" s)

let default_domains ?(cap = 8) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

(* A pool spawns its workers once and parks them between batches, so
   repeated batch passes and serve-mode requests reuse the same domains
   (spawning per job dominated small corpora: EXPERIMENTS.md, B1). *)
let create ?domains ?metrics () =
  let size =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let pool =
    {
      size;
      lock = Mutex.create ();
      idle = Condition.create ();
      batches = Atomic.make [];
      stopped = false;
      workers = [];
      metrics;
    }
  in
  let worker wid () =
    Mutex.lock pool.lock;
    idle pool ~wid ~any:true ~finished:(fun () -> pool.stopped)
  in
  if size > 1 then
    pool.workers <-
      Obs.Trace.with_span ~cat:"pool"
        ~attrs:[ ("domains", Obs.Trace.Int (size - 1)) ]
        "pool.spawn"
        (fun () ->
          observing metrics "pool.spawn" (fun () ->
              List.init (size - 1) (fun k -> Domain.spawn (worker (k + 1)))));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.lock;
  let workers = pool.workers in
  pool.stopped <- true;
  pool.workers <- [];
  Condition.broadcast pool.idle;
  Mutex.unlock pool.lock;
  if workers <> [] then
    Obs.Trace.with_span ~cat:"pool" "pool.join" (fun () ->
        observing pool.metrics "pool.join" (fun () -> List.iter Domain.join workers))

let run ?timeout_s ?queue_depth ?metrics pool f tasks =
  if pool.stopped then invalid_arg "Pool.run: pool is shut down";
  let n = Array.length tasks in
  let registry = match metrics with Some _ -> metrics | None -> pool.metrics in
  let go () =
    execute ?budget:timeout_s ?queue_depth ~registry (Some pool) (fun i -> f tasks.(i)) n
  in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"pool"
      ~attrs:
        [ ("tasks", Obs.Trace.Int n);
          ("domains", Obs.Trace.Int pool.size);
          ("persistent", Obs.Trace.Bool true) ]
      "pool.map" go
  else go ()

(* Inside a task, fork onto the task's own pool and registry; outside
   one, onto [pool] when given, else with no helper at all. *)
let fork_all ?pool thunks =
  let pool, registry =
    match Domain.DLS.get current with
    | Some b -> (b.pool, b.registry)
    | None -> (pool, Option.bind pool (fun p -> p.metrics))
  in
  execute ~registry pool (fun i -> thunks.(i) ()) (Array.length thunks)

let in_worker () =
  match Domain.DLS.get current with
  | Some { pool = Some _; _ } -> true
  | _ -> false
