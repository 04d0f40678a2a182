(* ivtool: command-line driver for the Beyond-Induction-Variables
   analyses.

   One-shot analyses (input is the paper's structured loop language;
   see README.md):

     ivtool parse     FILE   — parse and pretty-print the program
     ivtool cfg       FILE   — dump the lowered CFG
     ivtool ssa       FILE   — dump the SSA form
     ivtool classify  FILE   — per-loop variable classification report
     ivtool deps      FILE   — data dependence graph
     ivtool trip      FILE   — per-loop trip counts
     ivtool baseline  FILE   — classical (dragon book) IV detection
     ivtool sccp      FILE   — conditional constant propagation summary
     ivtool normalize FILE   — print the loop-normalized program
     ivtool run       FILE   — interpret (bounded) and dump array state

   Observability (lib/obs):

     ivtool explain FILE [VAR] — per-SCR classification provenance
     ivtool trace-check FILE   — validate a Chrome trace_event file
     ivtool metrics FILES...   — Prometheus text exposition of a run
     ivtool bench-diff OLD NEW — perf-trajectory gate over BENCH json
     classify/deps/trip/batch/check/gc take --trace OUT.json /
     --trace-summary; classify/batch/diff add --profile (per-pass
     wall/alloc/GC table + folded stacks on stderr) and --folded FILE;
     serve always collects and answers TRACE (and METRICS) verbs

   Service mode (lib/service: content-addressed cache + domain pool):

     ivtool batch FILES...   — analyze a corpus in parallel
     ivtool serve            — persistent line protocol on stdin/stdout
     ivtool passes FILE      — the pass DAG with forced/lazy status
     ivtool diff OLD NEW     — incremental re-analysis: which analysis
                               units (loop nests) were reused vs re-run
     ivtool gc --store DIR   — size/age retention over a persistent store

   batch/serve/passes/diff take --store DIR: a crash-safe on-disk
   artifact store layered under the memory cache and shared by any
   number of concurrent processes (docs/STORE.md).

   Exit codes: 0 success; 1 usage error (unknown subcommand, bad flags,
   missing input file); 2 parse or analysis error; 3 bench-diff
   regression. All diagnostics are routed through one reporter on
   stderr. *)

(* --- the one error reporter --- *)

exception Fatal of int * string

(* Parse/analysis failures exit 2; usage problems exit 1 (cmdliner's
   own CLI errors are remapped to 1 in [main] below). *)
let fatal code fmt = Printf.ksprintf (fun msg -> raise (Fatal (code, msg))) fmt

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | src -> src
  | exception Sys_error msg -> fatal 2 "%s" msg

let parse_or_fail src =
  match Ir.Parser.parse_result src with
  | Ok p -> p
  | Error msg -> fatal 2 "%s" msg

let with_source file f = f (parse_or_fail (read_file file))

(* Resolve --store/--no-store into a disk-store handle. A store that
   cannot be opened is a usage error, not a degraded run: silently
   dropping persistence would defeat the point of asking for it. *)
let store_of ~store_dir ~no_store =
  match store_dir with
  | Some dir when not no_store -> (
    match Store.Disk.open_store ~root:dir () with
    | Ok s -> Some s
    | Error msg -> fatal 1 "--store: %s" msg)
  | _ -> None

let engine_of ~no_sccp ?(check_iters = 100) ?(cache_size = 256)
    ?(use_ranges = true) ?store () =
  Service.Engine.create ~capacity:cache_size
    ~options:{ Service.Engine.use_sccp = not no_sccp; check_iters; use_ranges }
    ?store ()

let render_or_fail r = match r with Ok s -> print_string s | Error msg -> fatal 2 "%s" msg

(* Checked mode behind `--check`: diagnostics go to stderr (the primary
   artifact keeps stdout); any error-severity finding exits 2. *)
let run_check engine src =
  match Service.Engine.check engine src with
  | Error msg -> fatal 2 "%s" msg
  | Ok report ->
    List.iter
      (fun (p : Verify.Check.part) ->
        List.iter (fun d -> prerr_endline (Ir.Diag.to_string d)) p.Verify.Check.diags)
      report.Verify.Check.parts;
    let errs = Verify.Check.errors report in
    if errs > 0 then
      fatal 2 "check failed: %d errors, %d warnings" errs
        (Verify.Check.warnings report)

(* --- tracing plumbing (`--trace`, `--trace-summary`, `--profile`) ---

   [traced] runs [f] under a fresh ambient collector when any output
   was requested; the Chrome JSON lands in the given file, the text
   summary (with the engine's metrics appended when available) on
   stderr. [--profile] prints the per-pass wall/alloc/GC table (from
   the engine's Prof counters) plus flamegraph-ready folded stacks;
   [--folded FILE] writes just the folded stacks. Without any flag the
   collector stays uninstalled and the instrumentation costs one atomic
   load per site. *)

let traced ?instruments ?(profile = false) ?folded_file ~trace_file
    ~trace_summary f =
  if
    trace_file = None && not trace_summary && not profile && folded_file = None
  then f ()
  else begin
    let result, t = Obs.Trace.collect f in
    (match trace_file with
     | Some path -> Obs.Export_chrome.write_file path t
     | None -> ());
    if trace_summary then prerr_string (Obs.Export_text.render ?instruments t);
    (match folded_file with
     | Some path -> Obs.Export_folded.write_file path t
     | None -> ());
    if profile then begin
      (match instruments with
       | Some m -> prerr_string (Obs.Prof.phase_table m)
       | None -> ());
      let folded = Obs.Export_folded.render t in
      if folded <> "" then begin
        prerr_string "folded stacks (self-time us, flamegraph-ready):\n";
        prerr_string folded
      end
    end;
    result
  end

(* --- one-shot commands --- *)

let cmd_parse file =
  with_source file (fun p -> print_endline (Ir.Ast.to_string p))

let cmd_cfg file =
  with_source file (fun p -> print_endline (Ir.Cfg.to_string (Ir.Lower.lower p)))

let cmd_ssa file =
  with_source file (fun p ->
      let ssa = Ir.Ssa.of_program p in
      (match Ir.Ssa.check ssa with
       | [] -> ()
       | errs ->
         fatal 2 "%s" (String.concat "\n" (List.map Ir.Diag.to_string errs)));
      print_endline (Ir.Ssa.to_string ssa))

(* classify/deps/trip run through the service engine, so the CLI and
   `ivtool serve` render byte-identical reports from one code path. *)

let cmd_classify no_sccp check trace_file trace_summary profile folded file =
  let engine = engine_of ~no_sccp () in
  let src = read_file file in
  render_or_fail
    (traced ~instruments:(Service.Engine.metrics engine) ~profile
       ?folded_file:folded ~trace_file ~trace_summary
       (fun () -> Service.Engine.classify engine src));
  if check then run_check engine src

let cmd_deps no_ranges trace_file trace_summary file =
  let engine = engine_of ~no_sccp:false ~use_ranges:(not no_ranges) () in
  render_or_fail
    (traced ~instruments:(Service.Engine.metrics engine) ~trace_file ~trace_summary
       (fun () -> Service.Engine.deps engine (read_file file)))

(* --- range: the per-def interval table --- *)

let cmd_range no_sccp json file =
  let engine = engine_of ~no_sccp () in
  let src = read_file file in
  if json then begin
    match Analysis.Pipeline.ranges (Service.Engine.pipeline engine src) with
    | Ok r -> print_string (Analysis.Range.to_json r)
    | Error msg -> fatal 2 "%s" msg
  end
  else render_or_fail (Service.Engine.ranges engine src)

let cmd_trip trace_file trace_summary file =
  let engine = engine_of ~no_sccp:false () in
  render_or_fail
    (traced ~instruments:(Service.Engine.metrics engine) ~trace_file ~trace_summary
       (fun () -> Service.Engine.trip engine (read_file file)))

let cmd_baseline file =
  with_source file (fun p ->
      let cfg = Ir.Lower.lower p in
      List.iter
        (fun ((lp : Ir.Loops.loop), r) ->
          Format.printf "loop %s:@.%a@." lp.Ir.Loops.name Analysis.Baseline.pp r)
        (Analysis.Baseline.find_all cfg))

let cmd_sccp file =
  with_source file (fun p ->
      let ssa = Ir.Ssa.of_program p in
      let r = Analysis.Sccp.run ssa in
      let consts, total, dead = Analysis.Sccp.fold_stats r ssa in
      Printf.printf "constants: %d of %d instructions; dead blocks: %d\n" consts total
        dead)

let cmd_dot_cfg file =
  with_source file (fun p -> print_string (Ir.Dot.cfg_to_dot (Ir.Lower.lower p)))

let cmd_dot_ssa file =
  with_source file (fun p -> print_string (Ir.Dot.ssa_to_dot (Ir.Ssa.of_program p)))

let cmd_normalize file =
  with_source file (fun p ->
      print_endline (Ir.Ast.to_string (Transform.Normalize.normalize p)))

let cmd_peel loop_name file =
  with_source file (fun p ->
      print_endline (Ir.Ast.to_string (Transform.Peel.peel_named loop_name p)))

let cmd_parallel file =
  with_source file (fun p ->
      let t = Analysis.Driver.analyze (Ir.Ssa.of_program p) in
      print_string (Transform.Parallelize.report t))

let cmd_interchange outer inner file =
  with_source file (fun p ->
      let src = Ir.Ast.to_string p in
      match Transform.Interchange.legal_for_source src ~outer_name:outer ~inner_name:inner with
      | Some true ->
        print_endline "interchange: legal";
        print_endline (Ir.Ast.to_string (Transform.Interchange.apply p ~outer_name:outer))
      | Some false -> print_endline "interchange: illegal (blocking dependence)"
      | None -> fatal 2 "interchange: loops %s/%s not found" outer inner)

let cmd_optimize file =
  with_source file (fun p ->
      let ssa = Ir.Ssa.of_program p in
      let t = Analysis.Driver.analyze ssa in
      let hoisted = Transform.Licm.hoist t in
      let reduced = Transform.Strength_reduction.reduce t in
      let removed = Transform.Dce.run (Ir.Ssa.cfg ssa) in
      Printf.printf
        "licm: hoisted %d; strength reduction: %d multiplies; dce: removed %d\n"
        (List.length hoisted) (List.length reduced) removed;
      print_endline (Ir.Ssa.to_string ssa))

let cmd_run fuel seed file =
  with_source file (fun p ->
      let ssa = Ir.Ssa.of_program p in
      let state = Random.State.make [| seed |] in
      let st =
        Ir.Interp.run ~fuel ~rand:(fun () -> Random.State.bool state) ssa
      in
      (match st.Ir.Interp.outcome with
       | Ir.Interp.Halted -> Printf.printf "halted after %d steps\n" st.Ir.Interp.steps
       | Ir.Interp.Out_of_fuel -> Printf.printf "stopped: out of fuel (%d steps)\n" fuel);
      let cells =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.Ir.Interp.arrays []
        |> List.sort compare
      in
      List.iter
        (fun ((a, idx), v) ->
          Printf.printf "%s(%s) = %d\n" (Ir.Ident.name a)
            (String.concat ", " (List.map string_of_int idx))
            v)
        cells)

(* Seeded corpus generation (Corpus.Gen): the CLI face of the engine
   behind the B1 generated corpus and the property tests. *)
let cmd_gen seed count depth max_trip max_block prefix out =
  if count < 1 then fatal 1 "gen: --count must be at least 1";
  let knobs = { Corpus.Gen.depth; max_trip; max_block } in
  let items = Corpus.Gen.corpus ~knobs ~prefix ~seed ~count () in
  match out with
  | Some dir ->
    (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
     with Sys_error msg -> fatal 1 "gen: %s" msg);
    List.iter
      (fun (name, src) ->
        let oc = open_out (Filename.concat dir name) in
        output_string oc src;
        close_out oc)
      items;
    Printf.printf "generated %d programs (seed %d) in %s\n" count seed dir
  | None ->
    List.iter
      (fun (name, src) ->
        if count > 1 then Printf.printf "-- %s --\n" name;
        print_string src)
      items

(* --- checked mode: the whole-pipeline verifier (lib/verify) --- *)

let cmd_check no_sccp no_ranges json iters werror dump_cfg inject trace_file
    trace_summary file =
  let src = read_file file in
  match inject with
  | Some kind_name -> (
    (* Fault injection: corrupt a fresh SSA conversion, run only the
       structural verifiers, and fail with the provoked code — the CI
       smoke test that the verifier actually verifies. *)
    let kind =
      match Verify.Inject.of_string kind_name with
      | Some k -> k
      | None ->
        fatal 1 "unknown fault %S (expected one of: %s)" kind_name
          (String.concat ", " (List.map fst Verify.Inject.kinds))
    in
    let ssa = Ir.Ssa.of_program (parse_or_fail src) in
    match Verify.Inject.apply kind ssa with
    | Error msg -> fatal 2 "cannot inject %s: %s" kind_name msg
    | Ok desc ->
      Printf.eprintf "injected fault (%s): %s\n%!" kind_name desc;
      let diags = Verify.Structural.check_ir ssa in
      List.iter (fun d -> print_endline (Ir.Diag.to_string d)) diags;
      let expected = Verify.Inject.expected_code kind in
      if
        List.exists (fun (d : Ir.Diag.t) -> d.Ir.Diag.code = expected) diags
      then fatal 2 "verification failed as expected (%s)" expected
      else fatal 125 "fault injected but %s was not reported" expected)
  | None ->
    let engine = engine_of ~no_sccp ~check_iters:iters ~use_ranges:(not no_ranges) () in
    if dump_cfg then begin
      match Analysis.Pipeline.lower (Service.Engine.pipeline engine src) with
      | Ok cfg -> print_endline (Ir.Cfg.to_string cfg)
      | Error msg -> fatal 2 "%s" msg
    end;
    (match
       traced ~instruments:(Service.Engine.metrics engine) ~trace_file
         ~trace_summary
         (fun () -> Service.Engine.check engine src)
     with
     | Error msg -> fatal 2 "%s" msg
     | Ok report ->
       print_string
         (if json then Verify.Check.to_json report
          else Verify.Check.to_text report);
       let errs = Verify.Check.errors report in
       let warns = Verify.Check.warnings report in
       if errs > 0 || (werror && warns > 0) then
         fatal 2 "check failed: %d errors, %d warnings%s" errs warns
           (if werror && errs = 0 then " (warnings-as-errors)" else ""))

(* --- service commands --- *)

let parse_artifacts spec =
  let names =
    if spec = "all" then [ "classify"; "deps"; "trip"; "ranges"; "check" ]
    else String.split_on_char ',' spec |> List.map String.trim
         |> List.filter (fun s -> s <> "")
  in
  if names = [] then fatal 1 "no artifacts requested";
  List.map
    (fun name ->
      match Service.Engine.artifact_of_string name with
      | Some a -> a
      | None ->
        fatal 1
          "unknown artifact %S (expected classify, deps, trip, ranges, check or all)"
          name)
    names

(* One resident pool of [jobs] domains for the whole command (one spawns
   nothing and runs inline), reporting into the engine's registry. *)
let with_pool jobs engine f =
  let pool =
    Service.Pool.create ~domains:jobs ~metrics:(Service.Engine.metrics engine) ()
  in
  Fun.protect ~finally:(fun () -> Service.Pool.shutdown pool) (fun () -> f pool)

let cmd_batch jobs repeat artifacts timeout cache_size no_sccp check stats
    store_dir no_store trace_file trace_summary profile folded files =
  let artifacts = parse_artifacts artifacts in
  let engine =
    engine_of ~no_sccp ~cache_size ?store:(store_of ~store_dir ~no_store) ()
  in
  let items =
    List.map (fun f -> { Service.Batch.name = f; source = read_file f }) files
  in
  let results =
    traced ~instruments:(Service.Engine.metrics engine) ~profile
      ?folded_file:folded ~trace_file ~trace_summary
      (fun () ->
        (* One resident pool across every --repeat pass: the workers are
           spawned once, not once per pass. *)
        with_pool jobs engine (fun pool ->
            Service.Batch.run ?timeout_s:timeout ~passes:repeat ~pool
              ~domains:jobs ~engine ~artifacts items))
  in
  let failures = ref 0 in
  List.iter
    (fun ((item : Service.Batch.item), result) ->
      Printf.printf "== %s ==\n" item.Service.Batch.name;
      match result with
      | Ok report -> print_string report
      | Error msg ->
        incr failures;
        Printf.printf "error: %s\n" msg)
    results;
  if check then begin
    let check_failures = ref 0 in
    List.iter
      (fun (item : Service.Batch.item) ->
        match Service.Engine.check engine item.Service.Batch.source with
        | Error msg ->
          incr check_failures;
          Printf.eprintf "check %s: error: %s\n" item.Service.Batch.name msg
        | Ok report ->
          List.iter
            (fun (p : Verify.Check.part) ->
              List.iter
                (fun d ->
                  Printf.eprintf "check %s: %s\n" item.Service.Batch.name
                    (Ir.Diag.to_string d))
                p.Verify.Check.diags)
            report.Verify.Check.parts;
          if Verify.Check.errors report > 0 then incr check_failures)
      items;
    if !check_failures > 0 then begin
      if stats then prerr_string (Service.Engine.stats_report engine);
      fatal 2 "checked mode: %d of %d files failed" !check_failures
        (List.length items)
    end
  end;
  if stats then prerr_string (Service.Engine.stats_report engine);
  if !failures > 0 then
    fatal 2 "%d of %d files failed" !failures (List.length results)

let cmd_serve jobs cache_size no_sccp store_dir no_store =
  let engine =
    engine_of ~no_sccp ~cache_size ?store:(store_of ~store_dir ~no_store) ()
  in
  (* Serve mode always collects: the TRACE verb drains this collector,
     and its record limit bounds memory between drains. *)
  Obs.Trace.install (Obs.Trace.create ());
  with_pool jobs engine (fun pool -> Service.Server.run ~pool engine stdin stdout)

(* --- diff: incremental re-analysis of an edited program --- *)

let cmd_diff jobs no_sccp emit trace_file trace_summary profile folded stats
    store_dir no_store old_file new_file =
  let engine = engine_of ~no_sccp ?store:(store_of ~store_dir ~no_store) () in
  let old_src = read_file old_file in
  let new_src = read_file new_file in
  with_pool jobs engine @@ fun pool ->
  render_or_fail
    (traced ~instruments:(Service.Engine.metrics engine) ~profile
       ?folded_file:folded ~trace_file ~trace_summary
       (fun () -> Service.Engine.diff ~pool engine old_src new_src));
  (match emit with
   | None -> ()
   | Some path ->
     (* The incrementally merged reports of NEW, concatenated — CI
        byte-compares this file against a cold whole-program run. *)
     let oc = open_out_bin path in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         List.iter
           (fun a ->
             match Service.Engine.render ~pool engine a new_src with
             | Ok text -> output_string oc text
             | Error msg -> fatal 2 "%s" msg)
           [ Service.Engine.Classify; Service.Engine.Trip; Service.Engine.Deps ]));
  if stats then prerr_string (Service.Engine.stats_report engine)

(* --- passes: the pass DAG with forced/lazy status --- *)

let cmd_passes no_sccp force store_dir no_store file =
  let engine = engine_of ~no_sccp ?store:(store_of ~store_dir ~no_store) () in
  let src = read_file file in
  List.iter
    (fun a ->
      match Service.Engine.render engine a src with
      | Ok _ -> ()
      | Error msg -> fatal 2 "%s" msg)
    (match force with None -> [] | Some spec -> parse_artifacts spec);
  print_string (Service.Engine.passes_report engine src)

(* --- gc: size/age policy over a persistent artifact store --- *)

let cmd_gc store_dir max_age max_mb dry_run trace_file trace_summary =
  let store =
    match Store.Disk.open_store ~root:store_dir () with
    | Ok s -> s
    | Error msg -> fatal 1 "--store: %s" msg
  in
  let report =
    traced ~trace_file ~trace_summary (fun () ->
        Obs.Trace.with_span ~cat:"store" "store.gc" (fun () ->
            let r =
              Store.Disk.gc ~dry_run ?max_age_s:max_age
                ?max_bytes:(Option.map (fun mb -> mb * 1024 * 1024) max_mb)
                store ()
            in
            Obs.Trace.add_attrs
              [ ("scanned", Obs.Trace.Int r.Store.Disk.scanned);
                ("deleted", Obs.Trace.Int r.Store.Disk.deleted) ];
            r))
  in
  Printf.printf "%s%s\n"
    (if dry_run then "dry run: " else "")
    (Store.Disk.gc_report_to_string report)

(* --- explain: classification provenance --- *)

let cmd_explain no_sccp json var file =
  let engine = engine_of ~no_sccp () in
  render_or_fail (Service.Explain.run ?var ~json engine (read_file file))

(* --- metrics: Prometheus text exposition of a run --- *)

(* Run the requested artifacts over the files (warming the engine and
   pool telemetry), then print the whole Prometheus exposition —
   engine tiers, pass counters, phase wall/GC, per-domain pool
   telemetry — to stdout. With no files, expose the (empty) registry
   plus the process GC snapshot: a quick way to see the metric
   families. *)
let cmd_metrics jobs artifacts no_sccp store_dir no_store files =
  let artifacts = parse_artifacts artifacts in
  let engine = engine_of ~no_sccp ?store:(store_of ~store_dir ~no_store) () in
  let items =
    List.map (fun f -> { Service.Batch.name = f; source = read_file f }) files
  in
  let results =
    if items = [] then []
    else
      with_pool jobs engine (fun pool ->
          Service.Batch.run ~pool ~domains:jobs ~engine ~artifacts items)
  in
  let failures = ref 0 in
  List.iter
    (fun ((item : Service.Batch.item), result) ->
      match result with
      | Ok _ -> ()
      | Error msg ->
        incr failures;
        Printf.eprintf "metrics: %s: %s\n" item.Service.Batch.name msg)
    results;
  print_string (Service.Engine.prometheus_report engine);
  if !failures > 0 then
    fatal 2 "%d of %d files failed" !failures (List.length results)

(* --- bench-diff: the perf-trajectory gate --- *)

let cmd_bench_diff threshold old_file new_file =
  match
    Service.Bench_diff.compare ~threshold_pct:threshold
      ~old_json:(read_file old_file) ~new_json:(read_file new_file)
  with
  | Error msg -> fatal 2 "bench-diff: %s" msg
  | Ok report ->
    print_string (Service.Bench_diff.to_string report);
    if report.Service.Bench_diff.regressions > 0 then
      fatal 3 "bench-diff: %d regression(s) beyond %g%%"
        report.Service.Bench_diff.regressions threshold

(* --- trace-check: validate a Chrome trace_event file --- *)

let cmd_trace_check file =
  match Obs.Json.check_trace (read_file file) with
  | Ok (total, complete) ->
    Printf.printf "ok: %d records, %d complete spans\n" total complete
  | Error msg -> fatal 2 "invalid trace %s: %s" file msg

(* --- command line --- *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input program.")

let simple name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ file_arg)

let no_sccp_flag =
  Arg.(value & flag & info [ "no-sccp" ] ~doc:"Disable constant propagation.")

let no_ranges_flag =
  Arg.(value & flag
       & info [ "no-ranges" ]
           ~doc:"Disable value-range sharpening (dependence tests fall back to \
                 the classification-only paths; checked mode skips the range \
                 oracle). The B4 baseline.")

let trace_flag =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"OUT.json"
           ~doc:"Write a Chrome trace_event JSON of the run (chrome://tracing, Perfetto).")

let trace_summary_flag =
  Arg.(value & flag
       & info [ "trace-summary" ]
           ~doc:"Print a sorted per-span timing summary to stderr.")

let profile_flag =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print a per-pass wall/allocation/GC table and folded stacks \
                 (flamegraph collapsed format, self-time) to stderr.")

let folded_flag =
  Arg.(value & opt (some string) None
       & info [ "folded" ] ~docv:"OUT.folded"
           ~doc:"Write folded stacks (flamegraph.pl / speedscope input) \
                 derived from the span tree to $(docv).")

let cache_size_flag =
  Arg.(value & opt int 1024 & info [ "cache-size" ] ~doc:"Artifact cache capacity (entries).")

let store_flag =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Persistent artifact store directory (created if missing): \
                 rendered reports are served from and published to it, so \
                 restarts and sibling processes sharing $(docv) start warm.")

let no_store_flag =
  Arg.(value & flag
       & info [ "no-store" ]
           ~doc:"Ignore --store: run with the in-memory cache only.")

let check_flag =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Run checked mode after the artifact: structural verifiers, the \
                 classification oracle and the transform validators; any \
                 error-severity finding exits 2 (diagnostics on stderr).")

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify every loop variable (the paper's algorithm).")
    Term.(const cmd_classify $ no_sccp_flag $ check_flag $ trace_flag
          $ trace_summary_flag $ profile_flag $ folded_flag $ file_arg)

let check_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let iters =
    Arg.(value & opt int 100
         & info [ "iters" ] ~docv:"N"
             ~doc:"Oracle bound: compare each loop's first $(docv) iterations.")
  in
  let werror =
    Arg.(value & flag
         & info [ "werror" ] ~doc:"Exit nonzero on warnings too (CI mode).")
  in
  let dump_cfg =
    Arg.(value & flag
         & info [ "dump-cfg" ]
             ~doc:"Print the pristine lowered CFG (the lower pass artifact the \
                   structural verifier consumes) before the report.")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"FAULT"
             ~doc:"Corrupt the IR first (phi-arity, dangling-def, bad-edge, \
                   nondom-use) and verify the checker catches it; exits 2 with \
                   the fault's diagnostic code.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify the whole pipeline over a file: CFG/SSA/looptree structure, \
             every classification differentially against the interpreter, and \
             each transform against the untransformed program.")
    Term.(const cmd_check $ no_sccp_flag $ no_ranges_flag $ json $ iters
          $ werror $ dump_cfg $ inject $ trace_flag $ trace_summary_flag
          $ file_arg)

let deps_cmd =
  Cmd.v
    (Cmd.info "deps" ~doc:"Dump the data dependence graph.")
    Term.(const cmd_deps $ no_ranges_flag $ trace_flag $ trace_summary_flag
          $ file_arg)

let range_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the interval table as JSON.")
  in
  Cmd.v
    (Cmd.info "range"
       ~doc:"Print the value-range analysis: one interval per SSA def \
             (classification closed forms + SCCP constants, widened fixpoint), \
             with body-refined intervals below counted exit tests.")
    Term.(const cmd_range $ no_sccp_flag $ json $ file_arg)

let trip_cmd =
  Cmd.v
    (Cmd.info "trip" ~doc:"Print every loop's (maximum) trip count.")
    Term.(const cmd_trip $ trace_flag $ trace_summary_flag $ file_arg)

let explain_cmd =
  let var =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"VAR"
             ~doc:"Restrict the report to SCRs mentioning this SSA name (e.g. j2).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object (scrs, ranges, bounds) instead of text.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show, for each strongly-connected region, which classification rule \
             fired and what every member was classified as, plus the value ranges \
             the analysis proved.")
    Term.(const cmd_explain $ no_sccp_flag $ json $ var $ file_arg)

let trace_check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json"
         ~doc:"Chrome trace_event file, e.g. from --trace or the serve TRACE verb.")
  in
  Cmd.v
    (Cmd.info "trace-check" ~doc:"Validate a Chrome trace_event JSON file.")
    Term.(const cmd_trace_check $ file)

let peel_cmd =
  let loop_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOOP" ~doc:"Loop label.")
  in
  let file2 =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE" ~doc:"Input program.")
  in
  Cmd.v
    (Cmd.info "peel" ~doc:"Peel the first iteration of the named loop.")
    Term.(const cmd_peel $ loop_name $ file2)

let interchange_cmd =
  let outer =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OUTER" ~doc:"Outer loop.")
  in
  let inner =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"INNER" ~doc:"Inner loop.")
  in
  let file2 =
    Arg.(required & pos 2 (some file) None & info [] ~docv:"FILE" ~doc:"Input program.")
  in
  Cmd.v
    (Cmd.info "interchange" ~doc:"Check legality of (and apply) loop interchange.")
    Term.(const cmd_interchange $ outer $ inner $ file2)

let run_cmd =
  let fuel =
    Arg.(value & opt int 100_000 & info [ "fuel" ] ~doc:"Instruction budget.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed for '??' conditions.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret the program and dump final array contents.")
    Term.(const cmd_run $ fuel $ seed $ file_arg)

let batch_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (1 = sequential).")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"K"
             ~doc:"Run the whole batch $(docv) times; later passes hit the cache.")
  in
  let artifacts =
    Arg.(value & opt string "classify"
         & info [ "artifacts" ] ~docv:"LIST"
             ~doc:"Comma-separated artifacts: classify, deps, trip, ranges, \
                   check, or all.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Cooperative per-file timeout.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Dump cache and timing stats to stderr.")
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILES" ~doc:"Input programs.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Analyze a corpus of programs in parallel through the caching service.")
    Term.(const cmd_batch $ jobs $ repeat $ artifacts $ timeout $ cache_size_flag
          $ no_sccp_flag $ check_flag $ stats $ store_flag $ no_store_flag
          $ trace_flag $ trace_summary_flag $ profile_flag $ folded_flag
          $ files)

let serve_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Resident worker domains for BATCH requests (1 = none).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve CLASSIFY/DEPS/TRIP/BATCH/STATS/PERSIST requests over \
             stdin/stdout (see docs/SERVICE.md).")
    Term.(const cmd_serve $ jobs $ cache_size_flag $ no_sccp_flag $ store_flag
          $ no_store_flag)

let diff_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for re-analyzing changed units in parallel.")
  in
  let emit =
    Arg.(value & opt (some string) None
         & info [ "emit" ] ~docv:"FILE"
             ~doc:"Also write NEW's incrementally merged classify+trip+deps \
                   reports (concatenated) to $(docv) — byte-identical to a \
                   cold run, by construction.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Dump cache and timing stats to stderr.")
  in
  let old_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"The program before the edit.")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"The program after the edit.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Analyze OLD, then NEW through the per-unit cache, and report which \
             analysis units (loop nests) were reused and which re-analyzed, \
             and why.")
    Term.(const cmd_diff $ jobs $ no_sccp_flag $ emit $ trace_flag
          $ trace_summary_flag $ profile_flag $ folded_flag $ stats
          $ store_flag $ no_store_flag $ old_file $ new_file)

let passes_cmd =
  let force =
    Arg.(value & opt (some string) None
         & info [ "force" ] ~docv:"LIST"
             ~doc:"Force these artifacts first (classify, deps, trip, or all), \
                   then report which passes ran.")
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"Print the analysis pass DAG for a file: each pass's inputs, \
             forced/lazy status, owner (pipeline, engine, or store when the \
             artifact came off the persistent tier) and result digest.")
    Term.(const cmd_passes $ no_sccp_flag $ force $ store_flag $ no_store_flag
          $ file_arg)

let gc_cmd =
  let store_dir =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR" ~doc:"The store directory to collect.")
  in
  let max_age =
    Arg.(value & opt (some float) None
         & info [ "max-age" ] ~docv:"SECONDS"
             ~doc:"Delete entries not republished for $(docv) seconds.")
  in
  let max_mb =
    Arg.(value & opt (some int) None
         & info [ "max-mb" ] ~docv:"MB"
             ~doc:"Then delete oldest entries until at most $(docv) MiB remain.")
  in
  let dry_run =
    Arg.(value & flag
         & info [ "dry-run" ] ~doc:"Report what would be deleted; delete nothing.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Apply a size/age retention policy to a persistent artifact store \
             (safe to run while serve/batch processes use it; they recompute \
             evicted entries).")
    Term.(const cmd_gc $ store_dir $ max_age $ max_mb $ dry_run $ trace_flag
          $ trace_summary_flag)

let metrics_cmd =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (1 = sequential).")
  in
  let artifacts =
    Arg.(value & opt string "classify"
         & info [ "artifacts" ] ~docv:"LIST"
             ~doc:"Comma-separated artifacts to warm: classify, deps, trip, \
                   ranges, check, or all.")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILES" ~doc:"Input programs.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Analyze the files through the caching service, then print the \
             whole metrics registry — engine cache/store tiers, per-pass \
             hit/miss and wall/GC, per-domain pool telemetry — in Prometheus \
             text exposition format (0.0.4) on stdout. The serve METRICS verb \
             returns the same payload.")
    Term.(const cmd_metrics $ jobs $ artifacts $ no_sccp_flag $ store_flag
          $ no_store_flag $ files)

let gen_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let count =
    Arg.(value & opt int 1
         & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let depth =
    Arg.(value & opt int Corpus.Gen.default_knobs.Corpus.Gen.depth
         & info [ "depth" ] ~docv:"D"
             ~doc:"Max nesting depth of generated if/for statements.")
  in
  let max_trip =
    Arg.(value & opt int Corpus.Gen.default_knobs.Corpus.Gen.max_trip
         & info [ "max-trip" ] ~docv:"T"
             ~doc:"Outer-loop trip-count bound.")
  in
  let max_block =
    Arg.(value & opt int Corpus.Gen.default_knobs.Corpus.Gen.max_block
         & info [ "max-block" ] ~docv:"B"
             ~doc:"Max statements per generated block.")
  in
  let prefix =
    Arg.(value & opt string "gen"
         & info [ "prefix" ] ~docv:"NAME" ~doc:"File-name prefix.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write programs as $(docv)/<prefix>-<i>.iv instead of stdout.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate random loop programs (seeded, deterministic): the same \
             engine that feeds the B1 benchmark corpus and the property \
             tests. With --out, writes one .iv file per program.")
    Term.(const cmd_gen $ seed $ count $ depth $ max_trip $ max_block $ prefix
          $ out)

let bench_diff_cmd =
  let threshold =
    Arg.(value & opt float 10.0
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Fail when a gated measurement (seconds, files_per_sec, \
                   speedup) is worse by more than $(docv) percent.")
  in
  let old_file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD.json" ~doc:"Baseline BENCH_*.json.")
  in
  let new_file =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW.json" ~doc:"Candidate BENCH_*.json.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench result files row by row with typed deltas \
             (time, rate, counts); exit 3 when a gated measurement regressed \
             beyond the threshold. The CI perf-trajectory gate.")
    Term.(const cmd_bench_diff $ threshold $ old_file $ new_file)

let () =
  let info =
    Cmd.info "ivtool" ~version:"1.1.0"
      ~doc:"Induction-variable classification beyond linear IVs (Wolfe, PLDI 1992)."
  in
  let cmds =
    [
      simple "parse" "Parse and pretty-print the program." cmd_parse;
      simple "cfg" "Dump the lowered control-flow graph." cmd_cfg;
      simple "ssa" "Dump the SSA form." cmd_ssa;
      classify_cmd;
      check_cmd;
      deps_cmd;
      range_cmd;
      explain_cmd;
      simple "baseline" "Run classical (iterative) IV detection." cmd_baseline;
      simple "sccp" "Run conditional constant propagation." cmd_sccp;
      simple "normalize" "Print the loop-normalized program." cmd_normalize;
      trip_cmd;
      trace_check_cmd;
      simple "dot-cfg" "Emit the CFG in Graphviz DOT format." cmd_dot_cfg;
      simple "dot-ssa" "Emit the SSA def-use graph in Graphviz DOT format." cmd_dot_ssa;
      simple "parallel" "Report which loops have independent iterations." cmd_parallel;
      simple "optimize" "Run LICM, strength reduction and DCE; dump the result."
        cmd_optimize;
      peel_cmd;
      interchange_cmd;
      run_cmd;
      batch_cmd;
      serve_cmd;
      passes_cmd;
      diff_cmd;
      gc_cmd;
      metrics_cmd;
      gen_cmd;
      bench_diff_cmd;
    ]
  in
  let exit_code =
    match Cmd.eval_value ~catch:false (Cmd.group info cmds) with
    | Ok (`Ok ()) | Ok `Version | Ok `Help -> 0
    | Error (`Parse | `Term) -> 1 (* cmdliner already printed the usage error *)
    | Error `Exn -> 125
    | exception Fatal (code, msg) ->
      Printf.eprintf "ivtool: error: %s\n%!" msg;
      code
    | exception e ->
      Printf.eprintf "ivtool: internal error: %s\n%!" (Printexc.to_string e);
      125
  in
  exit exit_code
