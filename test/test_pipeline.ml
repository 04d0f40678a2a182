(* The demand-driven pipeline: golden equivalence against the
   monolithic driver path over the whole examples corpus, lazy forcing
   (a trip request must not run range analysis or dependence testing),
   per-pass cache accounting, digest stability, and the persistent
   worker pool. *)

module Pipeline = Analysis.Pipeline
module Driver = Analysis.Driver
module Engine = Service.Engine
module Pool = Service.Pool

(* Under `dune runtest` the cwd is _build/default/test; when the test
   binary is run by hand it is usually the repo root. *)
let corpus_dir =
  List.find Sys.file_exists
    [
      Filename.concat (Filename.concat ".." "examples") "programs";
      Filename.concat "examples" "programs";
    ]

let corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".iv")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat corpus_dir f in
         let ic = open_in_bin path in
         let src =
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         (f, src))

(* The seed rendering of the trip report, reimplemented over the
   driver's public query surface so the staged path is checked against
   an independent renderer. *)
let seed_trip_report (d : Driver.t) =
  let ssa = Driver.ssa d in
  let loops = Ir.Ssa.loops ssa in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (lp : Ir.Loops.loop) ->
      let trip = Driver.trip_count d lp.Ir.Loops.id in
      Format.fprintf fmt "loop %-8s trips: %a" lp.Ir.Loops.name
        (Analysis.Trip_count.pp_with (fun id -> Ir.Ssa.primary_name ssa id))
        trip;
      (match Analysis.Trip_count.max_count_int trip with
       | Some n when Analysis.Trip_count.count_int trip = None ->
         Format.fprintf fmt " (at most %d)" n
       | _ -> ());
      Format.fprintf fmt "@.")
    (Ir.Loops.postorder loops);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let seed_deps_report (d : Driver.t) =
  (* The engine defaults to range-sharpened dependence testing; the
     monolithic reference must match. *)
  let g = Dependence.Dep_graph.build ~ranges:(Driver.ranges d) d in
  if g = [] then "no dependences\n" else Dependence.Dep_graph.to_string d g

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail ("unexpected error: " ^ msg)

(* Every artifact of every example program, staged vs monolithic,
   byte for byte. *)
let test_golden_equivalence () =
  let files = corpus () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun (name, src) ->
      let engine = Engine.create () in
      let d = Driver.analyze_source src in
      Alcotest.(check string)
        (name ^ ": classify") (Driver.report d)
        (ok (Engine.classify engine src));
      Alcotest.(check string)
        (name ^ ": trip") (seed_trip_report d)
        (ok (Engine.trip engine src));
      Alcotest.(check string)
        (name ^ ": deps") (seed_deps_report d)
        (ok (Engine.deps engine src)))
    files

let fig9 =
  "j = 0\n\
   L19: for i = 1 to n loop\n\
   \  j = j + i\n\
   \  L20: for k = 1 to i loop\n\
   \    j = j + 1\n\
   \  endloop\n\
   endloop\n"

let forced_passes p =
  List.filter (Pipeline.forced p) Pipeline.all |> List.map Pipeline.name

let test_trip_is_lazy () =
  let engine = Engine.create () in
  ignore (ok (Engine.trip engine fig9));
  let p = Engine.pipeline engine fig9 in
  (* Classify runs through the unit layer, so [units]/[unit_classify]
     are forced with it. *)
  Alcotest.(check (list string))
    "trip forces exactly its chain"
    [ "parse"; "ssa"; "looptree"; "sccp"; "units"; "unit_classify"; "classify"; "trip" ]
    (forced_passes p);
  Alcotest.(check bool) "depgraph not forced" false
    (Pipeline.forced p Pipeline.Depgraph);
  (* The per-pass stats agree: nothing ever asked for ranges or deps. *)
  List.iter
    (fun (pass, hits, misses) ->
      if pass = "range" || pass = "depgraph" || pass = "lower" then begin
        Alcotest.(check int) (pass ^ " hits") 0 hits;
        Alcotest.(check int) (pass ^ " misses") 0 misses
      end)
    (Engine.pass_stats engine)

let test_per_pass_accounting () =
  let engine = Engine.create () in
  ignore (ok (Engine.classify engine fig9));
  ignore (ok (Engine.classify engine fig9));
  List.iter
    (fun (pass, hits, misses) ->
      match pass with
      | "parse" | "ssa" | "looptree" | "sccp" | "units" | "classify" ->
        Alcotest.(check int) (pass ^ " misses once") 1 misses;
        Alcotest.(check int) (pass ^ " hits once") 1 hits
      | "unit_classify" ->
        (* fig9 is one nest unit: a cold miss, then the second request
           is a Classify-level hit and never probes the unit cache. *)
        Alcotest.(check int) "one unit computed" 1 misses;
        Alcotest.(check int) "no unit reuse yet" 0 hits
      | "lower" | "trip" | "depgraph" ->
        Alcotest.(check int) (pass ^ " untouched (misses)") 0 misses;
        Alcotest.(check int) (pass ^ " untouched (hits)") 0 hits
      | _ -> ())
    (Engine.pass_stats engine);
  (* A trip request on the warm engine reuses the classify prefix and
     runs only the trip rendering. *)
  ignore (ok (Engine.trip engine fig9));
  List.iter
    (fun (pass, hits, misses) ->
      match pass with
      | "classify" ->
        Alcotest.(check int) "classify served from pipeline" 2 hits;
        Alcotest.(check int) "classify still ran once" 1 misses
      | "trip" ->
        Alcotest.(check int) "trip ran once" 1 misses
      | _ -> ())
    (Engine.pass_stats engine)

let test_deps_invalidate_drops_both () =
  let engine = Engine.create () in
  ignore (ok (Engine.deps engine fig9));
  Alcotest.(check int) "pipeline + deps report + unit artifact" 3
    (Engine.cache_stats engine).Service.Cache.size;
  (* Invalidation is per-source: the pipeline entry and the derived
     deps report go, but the unit artifact for fig9's nest stays (it is
     keyed by the nest digest and shared across sources). *)
  Alcotest.(check int) "both dropped" 2 (Engine.invalidate engine fig9);
  Alcotest.(check int) "unit artifact survives" 1
    (Engine.cache_stats engine).Service.Cache.size

let test_digests_are_stable () =
  let a = Pipeline.create fig9 in
  let b = Pipeline.create fig9 in
  ignore (ok (Pipeline.report a));
  ignore (ok (Pipeline.report b));
  ignore (ok (Pipeline.trip_report a));
  ignore (ok (Pipeline.trip_report b));
  Alcotest.(check bool) "same source digest" true
    (Hash.Fnv.equal (Pipeline.source_digest a) (Pipeline.source_digest b));
  List.iter
    (fun pass ->
      match (Pipeline.digest a pass, Pipeline.digest b pass) with
      | Some da, Some db ->
        Alcotest.(check bool)
          ("digest " ^ Pipeline.name pass ^ " reproducible")
          true (Hash.Fnv.equal da db)
      | None, None -> ()
      | _ ->
        Alcotest.fail
          ("pass " ^ Pipeline.name pass ^ " forced on one instance only"))
    Pipeline.all

(* A bare pipeline and the engine run the same unit walk (one without a
   unit cache, one through it), so every pass both force digests the
   same, for every example program. *)
let test_bare_digests_match_engine () =
  List.iter
    (fun (name, src) ->
      let bare = Pipeline.create src in
      List.iter
        (fun pass -> ignore (ok (Pipeline.force bare pass)))
        Pipeline.[ Classify; Trip; Ranges ];
      let engine = Engine.create () in
      List.iter
        (fun a -> ignore (ok (Engine.render engine a src)))
        Engine.[ Classify; Trip; Ranges ];
      let served = Engine.pipeline engine src in
      List.iter
        (fun pass ->
          let hex p = Option.map Hash.Fnv.to_hex (Pipeline.digest p pass) in
          let label = name ^ ": " ^ Pipeline.name pass in
          Alcotest.(check bool) (label ^ " forced") true (hex bare <> None);
          Alcotest.(check (option string)) (label ^ " digest") (hex served) (hex bare))
        Pipeline.[ Units; Unitclassify; Classify; Trip; Ranges ])
    (corpus ())

let test_pipeline_errors () =
  let p = Pipeline.create "x = = 1\n" in
  Alcotest.(check bool) "trip fails" true (Result.is_error (Pipeline.trip_report p));
  Alcotest.(check bool) "report fails the same way" true
    (Pipeline.report p = Pipeline.trip_report p);
  Alcotest.(check bool) "parse forced (error cached)" true
    (Pipeline.forced p Pipeline.Parse);
  Alcotest.(check (option string)) "no digest for a failed pass" None
    (Option.map Hash.Fnv.to_hex (Pipeline.digest p Pipeline.Parse));
  (* Depgraph can only be noted by the service layer. *)
  let good = Pipeline.create fig9 in
  Alcotest.(check bool) "depgraph cannot be forced here" true
    (Result.is_error (Pipeline.force good Pipeline.Depgraph))

let test_dag_shape () =
  (* Every input of a pass precedes it in the topological order. *)
  let index p = Option.get (List.find_index (fun q -> q = p) Pipeline.all) in
  List.iter
    (fun pass ->
      List.iter
        (fun input ->
          Alcotest.(check bool)
            (Pipeline.name input ^ " before " ^ Pipeline.name pass)
            true
            (index input < index pass))
        (Pipeline.inputs pass))
    Pipeline.all;
  List.iter
    (fun pass ->
      Alcotest.(check (option string)) ("name round-trips " ^ Pipeline.name pass)
        (Some (Pipeline.name pass))
        (Option.map Pipeline.name (Pipeline.of_name (Pipeline.name pass))))
    Pipeline.all

let test_persistent_pool () =
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check int) "size" 2 (Pool.size pool);
  let tasks = Array.init 16 (fun i -> i) in
  (* Two jobs on the same resident workers; results in input order. *)
  let r1 = Pool.run pool (fun i -> i * i) tasks in
  let r2 = Pool.run pool (fun i -> i + 1) tasks in
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "square in order" (i * i) v
      | _ -> Alcotest.fail "task failed")
    r1;
  Array.iteri
    (fun i o ->
      match o with
      | Pool.Done v -> Alcotest.(check int) "succ in order" (i + 1) v
      | _ -> Alcotest.fail "task failed")
    r2;
  (* Failures stay isolated per task. *)
  let r3 =
    Pool.run pool (fun i -> if i = 3 then failwith "boom" else i) tasks
  in
  (match r3.(3) with
   | Pool.Failed msg ->
     Alcotest.(check bool) "failure captured" true
       (Helpers.contains msg "boom")
   | _ -> Alcotest.fail "expected failure");
  (match r3.(4) with
   | Pool.Done 4 -> ()
   | _ -> Alcotest.fail "neighbor unaffected");
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run pool (fun i -> i) tasks))

let test_batch_over_pool_matches_spawning () =
  let items =
    List.map
      (fun (name, src) -> { Service.Batch.name; source = src })
      (corpus ())
  in
  let spawned =
    Service.Batch.run
      ~domains:2
      ~engine:(Engine.create ())
      ~artifacts:[ Engine.Classify; Engine.Trip ]
      items
  in
  let pool = Pool.create ~domains:2 () in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Service.Batch.run ~pool ~domains:2
          ~engine:(Engine.create ())
          ~artifacts:[ Engine.Classify; Engine.Trip ]
          items)
  in
  List.iter2
    (fun ((a : Service.Batch.item), ra) ((b : Service.Batch.item), rb) ->
      Alcotest.(check string) "same item order" a.Service.Batch.name
        b.Service.Batch.name;
      Alcotest.(check bool) ("same result for " ^ a.Service.Batch.name) true
        (ra = rb))
    spawned pooled

let suite =
  ( "pipeline",
    [
      Helpers.case "golden equivalence over examples/" test_golden_equivalence;
      Helpers.case "trip forces no pass beyond trip" test_trip_is_lazy;
      Helpers.case "per-pass hit/miss accounting" test_per_pass_accounting;
      Helpers.case "invalidate drops pipeline and deps" test_deps_invalidate_drops_both;
      Helpers.case "pass digests are reproducible" test_digests_are_stable;
      Helpers.case "bare pipeline digests equal the engine's" test_bare_digests_match_engine;
      Helpers.case "errors cache and propagate" test_pipeline_errors;
      Helpers.case "pass DAG is topologically ordered" test_dag_shape;
      Helpers.case "persistent pool reuses workers" test_persistent_pool;
      Helpers.case "batch over a pool matches spawning" test_batch_over_pool_matches_spawning;
    ] )
