(* The demand-driven pipeline: golden equivalence against the
   monolithic driver path over the whole examples corpus, lazy forcing
   (a trip request must not run range analysis or dependence testing),
   per-pass cache accounting, the pass listing, and the persistent
   worker pool. *)

module Pipeline = Analysis.Pipeline
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
let seed_trip_report (d : Pipeline.analysis) =
  let ssa = d.Pipeline.ssa in
  let loops = Ir.Ssa.loops ssa in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (lp : Ir.Loops.loop) ->
      let trip = Pipeline.trip_count d lp.Ir.Loops.id in
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

let seed_deps_report (d : Pipeline.analysis) =
  (* The engine defaults to range-sharpened dependence testing; the
     monolithic reference must match. *)
  let g = Dependence.Dep_graph.build ~ranges:(Pipeline.range_of d) d in
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
      let d = Helpers.analyze src in
      Alcotest.(check string)
        (name ^ ": classify") (Pipeline.report_of d)
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
        (* fig9 is one unit: a cold miss, then the second request
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
  Alcotest.(check int) "source record + unit artifact" 2
    (Engine.cache_stats engine).Service.Cache.size;
  (* Invalidation is per-source: the source's record (its pipeline and
     its deps report) goes, but the unit artifact for fig9's nest stays
     (it is keyed by the nest digest and shared across sources). *)
  Alcotest.(check int) "both dropped" 1 (Engine.invalidate engine fig9);
  Alcotest.(check int) "unit artifact survives" 1
    (Engine.cache_stats engine).Service.Cache.size

(* A bare pipeline and the engine run the same unit walk (one without a
   unit cache, one through it), so they render the same classification,
   trip and range reports, for every example program. *)
let test_bare_reports_match_engine () =
  List.iter
    (fun (name, src) ->
      let bare = Pipeline.create src in
      let engine = Engine.create () in
      List.iter
        (fun (label, bare_report, artifact) ->
          Alcotest.(check string) (name ^ ": " ^ label)
            (ok (Engine.render engine artifact src))
            (ok (bare_report bare)))
        [
          ("classify", Pipeline.report, Engine.Classify);
          ("trip", Pipeline.trip_report, Engine.Trip);
          ("range", Pipeline.range_report, Engine.Ranges);
        ])
    (corpus ())

(* The pass listing after a trip request: which passes ran, who owns
   each, and the source digest (the engine's base key) in the header. *)
let test_passes_report_golden () =
  let src = List.assoc "fig9_triangular.iv" (corpus ()) in
  let engine = Engine.create () in
  ignore (ok (Engine.trip engine src));
  Alcotest.(check string) "fig9_triangular.iv after trip"
    "source 20acf8e8e5f8464c  (sccp=true)\n\
     parse          forced pipeline <- (source)\n\
     lower          lazy   pipeline <- parse\n\
     ssa            forced pipeline <- parse\n\
     verify_ir      lazy   engine   <- lower, ssa\n\
     looptree       forced pipeline <- ssa\n\
     sccp           forced pipeline <- ssa\n\
     units          forced pipeline <- looptree, sccp\n\
     unit_classify  forced engine   <- units\n\
     classify       forced pipeline <- units\n\
     trip           forced pipeline <- classify\n\
     range          lazy   pipeline <- classify\n\
     depgraph       lazy   engine   <- classify\n\
     verify_class   lazy   engine   <- classify\n\
     verify_ranges  lazy   engine   <- range\n\
     verify_trans   lazy   engine   <- parse, classify\n"
    (Engine.passes_report engine src)

let test_pipeline_errors () =
  let p = Pipeline.create "x = = 1\n" in
  Alcotest.(check bool) "trip fails" true (Result.is_error (Pipeline.trip_report p));
  Alcotest.(check bool) "report fails the same way" true
    (Pipeline.report p = Pipeline.trip_report p);
  Alcotest.(check bool) "parse forced (error cached)" true
    (Pipeline.forced p Pipeline.Parse);
  (* Depgraph is computed by the service layer only. *)
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

(* The whole-forest walk ([Pipeline.analyze], what SSA-only callers
   run) and a pipeline instance's unit walk render the same
   classification and trip reports, over random programs. *)
let prop_forest_walk_matches_unit_walk =
  Helpers.qtest ~count:100 "whole-forest walk equals the unit walk"
    Gen.gen_program (fun prog ->
      let src = Ir.Ast.to_string prog in
      let a = Helpers.analyze src in
      let p = Pipeline.create src in
      (Pipeline.report_of a, Pipeline.trip_report_of a)
      = (ok (Pipeline.report p), ok (Pipeline.trip_report p))
      || QCheck2.Test.fail_reportf "walks differ for:\n%s" src)

(* The range table of the shared 64-nest program, pinned to its digest:
   every interval, body refinement and the fixpoint's round count. *)
let test_range_report_pinned () =
  let ssa = Lazy.force Helpers.nest_ssa in
  let r = Pipeline.range_of (Pipeline.analyze ssa) in
  Alcotest.(check int) "fixpoint rounds" 7 (Analysis.Range.iterations r);
  Alcotest.(check string) "64-nest range report digest" "1d5b3ef1705df294"
    (Hash.Fnv.to_hex (Hash.Fnv.of_strings [ Analysis.Range.report r ]))

let test_small_cache_keeps_request_record () =
  (* A Classify miss inserts one unit artifact per nest after the
     source's record: 64 of them overflow an 8-entry cache. The request
     must still parse and classify once for all three artifacts. *)
  let engine = Engine.create ~capacity:8 () in
  let src = Ir.Ast.to_string (Helpers.nest_program ~seed:7 ~nests:64) in
  ignore (ok (Engine.renders engine Engine.[ Classify; Trip; Deps ] src));
  let misses pass =
    match List.find_opt (fun (p, _, _) -> p = pass) (Engine.pass_stats engine) with
    | Some (_, _, m) -> m
    | None -> Alcotest.failf "no pass %s" pass
  in
  Alcotest.(check int) "parse runs once" 1 (misses "parse");
  Alcotest.(check int) "each unit classified once" 64 (misses "unit_classify")

let suite =
  ( "pipeline",
    [
      Helpers.case "golden equivalence over examples/" test_golden_equivalence;
      Helpers.case "trip forces no pass beyond trip" test_trip_is_lazy;
      Helpers.case "per-pass hit/miss accounting" test_per_pass_accounting;
      Helpers.case "invalidate drops pipeline and deps" test_deps_invalidate_drops_both;
      Helpers.case "bare pipeline reports equal the engine's" test_bare_reports_match_engine;
      Helpers.case "passes report after trip is pinned" test_passes_report_golden;
      Helpers.case "errors cache and propagate" test_pipeline_errors;
      Helpers.case "pass DAG is topologically ordered" test_dag_shape;
      Helpers.case "persistent pool reuses workers" test_persistent_pool;
      Helpers.case "batch over a pool matches spawning" test_batch_over_pool_matches_spawning;
      prop_forest_walk_matches_unit_walk;
      Helpers.case "64-nest range report is pinned" test_range_report_pinned;
      Helpers.case "small cache keeps the request's record" test_small_cache_keeps_request_record;
    ] )
