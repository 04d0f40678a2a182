(* Service pool: parallel batches must equal sequential ones element for
   element, exceptions must be isolated to their task, and cooperative
   timeouts must surface as Timed_out. *)

module Pool = Service.Pool
module Batch = Service.Batch
module Engine = Service.Engine

let sources =
  [
    "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n";
    "j = 0\nL19: for i = 1 to n loop\n  j = j + i\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop\n";
    "i = 0\nT: loop\n  i = i + 1\n  if i > 100 exit\nendloop\n";
    "k = 0\nL15: for i = 1 to n loop\n  F(k) = A(i)\n  if ?? then\n    k = k + 1\n  endif\nendloop\n";
    "L23: for i = 1 to n loop\n  L24: for j = i + 1 to n loop\n    A(i, j) = A(i - 1, j)\n  endloop\nendloop\n";
  ]

(* One job on a fresh pool of [domains] workers, shut down afterwards. *)
let run_on ?timeout_s ?metrics ~domains f tasks =
  let pool = Pool.create ~domains ?metrics () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> Pool.run ?timeout_s pool f tasks)

let unwrap = function
  | Pool.Done x -> x
  | Pool.Failed msg -> Alcotest.fail ("unexpected failure: " ^ msg)
  | Pool.Timed_out s -> Alcotest.fail (Printf.sprintf "unexpected timeout (%.3fs)" s)

let test_parallel_equals_sequential () =
  let tasks = Array.init 64 (fun i -> i) in
  let f i = i * i in
  let seq = run_on ~domains:1 f tasks in
  let par = run_on ~domains:4 f tasks in
  Alcotest.(check (list int))
    "same results, same order"
    (Array.to_list (Array.map unwrap seq))
    (Array.to_list (Array.map unwrap par))

let test_exception_isolation () =
  let tasks = Array.init 10 (fun i -> i) in
  let f i = if i = 3 then failwith "boom" else i in
  let results = run_on ~domains:4 f tasks in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 3, Pool.Failed msg ->
        Alcotest.(check bool) "message kept" true
          (Helpers.contains msg "boom")
      | 3, _ -> Alcotest.fail "task 3 should fail"
      | i, r -> Alcotest.(check int) "survivor" i (unwrap r))
    results

let test_timeout_is_cooperative () =
  let f = function
    | `Sleepy ->
      (* Busy-wait past the deadline, ticking as a long task should. *)
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.2 do
        Pool.tick ()
      done;
      0
    | `Quick -> 1
  in
  let results = run_on ~timeout_s:0.02 ~domains:2 f [| `Sleepy; `Quick; `Quick |] in
  (match results.(0) with
   | Pool.Timed_out _ -> ()
   | _ -> Alcotest.fail "sleepy task should time out");
  Alcotest.(check int) "quick unaffected" 1 (unwrap results.(1));
  Alcotest.(check int) "quick unaffected" 1 (unwrap results.(2))

let test_batch_parallel_equals_sequential () =
  let items =
    List.mapi (fun i src -> { Batch.name = Printf.sprintf "p%d" i; source = src }) sources
  in
  let artifacts = [ Engine.Classify; Engine.Deps; Engine.Trip ] in
  let run domains =
    let engine = Engine.create () in
    Batch.run ~domains ~engine ~artifacts items
    |> List.map (fun ((item : Batch.item), r) ->
           match r with
           | Ok report -> item.Batch.name ^ "\n" ^ report
           | Error msg -> Alcotest.fail (item.Batch.name ^ ": " ^ msg))
  in
  Alcotest.(check (list string)) "4 workers = sequential" (run 1) (run 4)

let test_batch_isolates_bad_input () =
  let items =
    [
      { Batch.name = "good"; source = List.hd sources };
      { Batch.name = "bad"; source = "x = = 1\n" };
      { Batch.name = "also-good"; source = List.nth sources 2 };
    ]
  in
  let engine = Engine.create () in
  let results = Batch.run ~domains:3 ~engine ~artifacts:[ Engine.Classify ] items in
  (match results with
   | [ (_, Ok _); (_, Error msg); (_, Ok _) ] ->
     Alcotest.(check bool) "parse diagnostic" true
       (Helpers.contains msg "parse error")
   | _ -> Alcotest.fail "expected ok/error/ok in input order")

let test_batch_second_pass_hits_cache () =
  let items =
    List.mapi (fun i src -> { Batch.name = Printf.sprintf "p%d" i; source = src }) sources
  in
  let engine = Engine.create () in
  let artifacts = [ Engine.Classify; Engine.Trip ] in
  let r1 = Batch.run ~passes:2 ~domains:4 ~engine ~artifacts items in
  let stats = Engine.cache_stats engine in
  Alcotest.(check bool) "all ok" true
    (List.for_all (fun (_, r) -> Result.is_ok r) r1);
  (* Pass 2 is pure hits: at least one artifact per item per pass. *)
  Alcotest.(check bool) "warm pass hits" true
    (stats.Service.Cache.hits >= List.length items * List.length artifacts)

(* --- scheduler edge cases --- *)

(* Many tasks, several of which die, on enough workers that thieves are
   stealing while the deaths happen: every failure stays isolated to its
   own slot and every survivor lands in input order. *)
let test_death_mid_steal () =
  let n = 128 in
  let tasks = Array.init n (fun i -> i) in
  let f i = if i mod 7 = 3 then failwith (Printf.sprintf "dead-%d" i) else i * 3 in
  let results = run_on ~domains:4 f tasks in
  Array.iteri
    (fun i r ->
      match r with
      | Pool.Failed msg ->
        Alcotest.(check bool) "only scripted deaths" true (i mod 7 = 3);
        Alcotest.(check bool) "own message" true
          (Helpers.contains msg (Printf.sprintf "dead-%d" i))
      | r -> Alcotest.(check int) "survivor in order" (i * 3) (unwrap r))
    results

(* A timeout firing while the batch still holds unclaimed nodes must not
   take the queued tasks down with it. *)
let test_timeout_with_nonempty_deque () =
  let n = 64 in
  let f = function
    | 0 ->
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.2 do
        Pool.tick ()
      done;
      -1
    | i -> i
  in
  let results = run_on ~timeout_s:0.02 ~domains:2 f (Array.init n Fun.id) in
  (match results.(0) with
   | Pool.Timed_out _ -> ()
   | _ -> Alcotest.fail "task 0 should time out");
  for i = 1 to n - 1 do
    Alcotest.(check int) "queued task unaffected" i (unwrap results.(i))
  done

(* In-task fork/join: each top-level task fans subtasks onto its own
   batch; results come back in order with failures isolated, and the
   whole thing nests under a persistent pool. *)
let test_fork_all_in_task () =
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* Alcotest's checks are not domain-safe: a task only records what
     it saw, and the checks run here after the join. *)
  let f i =
    let in_worker = Pool.in_worker () in
    let subs =
      Array.init 5 (fun j ->
          fun () -> if j = 2 && i = 1 then failwith "sub-boom" else (i * 10) + j)
    in
    ( in_worker,
      Pool.fork_all subs
      |> Array.map (function
           | Pool.Done v -> v
           | Pool.Failed _ -> -1
           | Pool.Timed_out _ -> -2) )
  in
  let results = Pool.run pool f (Array.init 8 Fun.id) in
  Array.iteri
    (fun i r ->
      let in_worker, sub = unwrap r in
      Alcotest.(check bool) "inside a scheduler node" true in_worker;
      Array.iteri
        (fun j v ->
          let expect = if j = 2 && i = 1 then -1 else (i * 10) + j in
          Alcotest.(check int) "forked result" expect v)
        sub)
    results

(* Forked subtasks inherit the forking task's deadline: a subtask that
   ticks past it times out even though fork_all passes no timeout. *)
let test_fork_all_inherits_deadline () =
  let f () =
    let sub () =
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.2 do
        Pool.tick ()
      done;
      0
    in
    match (Pool.fork_all [| sub |]).(0) with
    | Pool.Timed_out _ -> `Sub_timed_out
    | Pool.Done _ -> `Sub_finished
    | Pool.Failed m -> `Sub_failed m
  in
  let results = run_on ~timeout_s:0.02 ~domains:2 f [| (); () |] in
  Array.iter
    (fun r ->
      match unwrap r with
      | `Sub_timed_out -> ()
      | `Sub_finished -> Alcotest.fail "subtask ignored inherited deadline"
      | `Sub_failed m -> Alcotest.fail ("subtask failed: " ^ m))
    results

(* A one-worker pool takes the no-atomic sequential path; fork_all
   without a worker context or pool evaluates inline. Same contract
   either way. *)
let test_j1_inline_fallback () =
  let results =
    run_on ~domains:1
      (fun i ->
        let subs = [| (fun () -> i); (fun () -> failwith "inline-boom") |] in
        match Pool.fork_all subs with
        | [| Pool.Done v; Pool.Failed msg |] when Helpers.contains msg "inline-boom" -> v
        | _ -> Alcotest.fail "inline fork_all shape")
      (Array.init 6 Fun.id)
  in
  Array.iteri (fun i r -> Alcotest.(check int) "inline result" i (unwrap r)) results;
  Alcotest.(check bool) "not in a worker here" false (Pool.in_worker ())

(* The scheduler's telemetry contract: per-domain pool.tasks and
   pool.steals counters are registered, and the task counters across
   domains account for every task exactly once. *)
let test_steal_telemetry () =
  let m = Obs.Instrument.create () in
  let n = 256 in
  let results = run_on ~metrics:m ~domains:4 (fun i -> i) (Array.init n Fun.id) in
  Array.iteri (fun i r -> Alcotest.(check int) "result" i (unwrap r)) results;
  let sum_prefix prefix =
    List.fold_left
      (fun acc (name, view) ->
        match view with
        | Obs.Instrument.V_counter c when Helpers.contains name prefix -> acc + c
        | _ -> acc)
      0 (Obs.Instrument.snapshot m)
  in
  Alcotest.(check int) "every task counted once" n (sum_prefix "pool.tasks");
  Alcotest.(check bool) "steal counters registered" true
    (List.exists
       (fun (name, _) -> Helpers.contains name "pool.steals")
       (Obs.Instrument.snapshot m))

(* A shut-down pool refuses every run, an empty one included. *)
let test_run_after_shutdown () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  List.iter
    (fun tasks ->
      Alcotest.check_raises
        (Printf.sprintf "%d tasks" (Array.length tasks))
        (Invalid_argument "Pool.run: pool is shut down")
        (fun () -> ignore (Pool.run pool Fun.id tasks)))
    [ [||]; [| 1 |] ]

(* Run [f] on its own domain and wait at most [seconds] for it, so a
   scheduler deadlock fails the test instead of hanging the suite. The
   stuck domain is left behind; the failure is reported all the same. *)
let with_watchdog ?(seconds = 20.) f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
      Domain.join d;
      (match r with Ok v -> v | Error e -> raise e)
    | None when Unix.gettimeofday () -. t0 > seconds ->
      Alcotest.fail (Printf.sprintf "no progress after %.0fs: deadlock" seconds)
    | None ->
      Unix.sleepf 0.005;
      wait ()
  in
  wait ()

(* Task A forks 8 subtasks while holding a mutex that task B also
   takes (the engine forks under its pipeline mutex): the forker must
   help only with its own subtasks, never run B inline under the lock. *)
let test_fork_under_held_lock () =
  let m = Mutex.create () in
  let a_holds = Atomic.make false in
  let f = function
    | `A ->
      Mutex.lock m;
      Atomic.set a_holds true;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) @@ fun () ->
      Pool.fork_all
        (Array.init 8 (fun j () ->
             Unix.sleepf 0.001;
             j * j))
      |> Array.map unwrap |> Array.to_list
    | `B ->
      while not (Atomic.get a_holds) do
        Unix.sleepf 0.001
      done;
      Mutex.lock m;
      Mutex.unlock m;
      [ -1 ]
  in
  let results =
    with_watchdog (fun () -> run_on ~domains:4 f [| `A; `B; `B; `B |])
    |> Array.map unwrap |> Array.to_list
  in
  Alcotest.(check (list (list int)))
    "ordered results"
    [ List.init 8 (fun j -> j * j); [ -1 ]; [ -1 ]; [ -1 ] ]
    results

(* Two domains submit to one pool at once: each gets its own complete
   results, in its own input order. *)
let test_concurrent_runs () =
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = 200 in
  let submit k () = Pool.run pool (fun i -> (k * 1000) + i) (Array.init n Fun.id) in
  let a, b =
    with_watchdog (fun () ->
        let d = Domain.spawn (submit 1) in
        let b = submit 2 () in
        (Domain.join d, b))
  in
  List.iter
    (fun (k, results) ->
      Alcotest.(check (list int))
        (Printf.sprintf "submitter %d" k)
        (List.init n (fun i -> (k * 1000) + i))
        (Array.to_list (Array.map unwrap results)))
    [ (1, a); (2, b) ]

let suite =
  ( "service-pool",
    [
      Helpers.case "parallel equals sequential" test_parallel_equals_sequential;
      Helpers.case "a raising task is isolated" test_exception_isolation;
      Helpers.case "cooperative timeout" test_timeout_is_cooperative;
      Helpers.case "batch: 4 workers = sequential" test_batch_parallel_equals_sequential;
      Helpers.case "batch: malformed input is isolated" test_batch_isolates_bad_input;
      Helpers.case "batch: second pass is cached" test_batch_second_pass_hits_cache;
      Helpers.case "worker death mid-steal is isolated" test_death_mid_steal;
      Helpers.case "timeout with a non-empty deque" test_timeout_with_nonempty_deque;
      Helpers.case "fork_all fans out in-task" test_fork_all_in_task;
      Helpers.case "fork_all inherits the deadline" test_fork_all_inherits_deadline;
      Helpers.case "domains=1 inline fallback" test_j1_inline_fallback;
      Helpers.case "per-domain task/steal telemetry" test_steal_telemetry;
      Helpers.case "run after shutdown raises, even empty" test_run_after_shutdown;
      Helpers.case "fork under a held lock" test_fork_under_held_lock;
      Helpers.case "two submitters at once" test_concurrent_runs;
    ] )
