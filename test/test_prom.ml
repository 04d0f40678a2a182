(* The metrics-exposition layer: Obs.Json string escaping, log2
   histogram bucket edges, Prometheus text rendering, Prof GC deltas,
   the folded-stacks exporter, and the bench-diff counter gate. *)

module I = Obs.Instrument

(* --- Obs.Json escaping (shared by every JSON exporter) --- *)

let test_json_escape_basics () =
  let e = Obs.Json.escape in
  Alcotest.(check string) "plain" "\"abc\"" (e "abc");
  Alcotest.(check string) "quote" "\"a\\\"b\"" (e "a\"b");
  Alcotest.(check string) "backslash" "\"a\\\\b\"" (e "a\\b");
  Alcotest.(check string) "newline" "\"a\\nb\"" (e "a\nb");
  Alcotest.(check string) "cr tab" "\"\\r\\t\"" (e "\r\t");
  Alcotest.(check string) "NUL" "\"\\u0000\"" (e "\x00");
  Alcotest.(check string) "ESC" "\"\\u001b\"" (e "\x1b");
  (* Bytes >= 0x80 pass through verbatim so UTF-8 survives. *)
  Alcotest.(check string) "utf-8" "\"\xc3\xa9\"" (e "\xc3\xa9")

let test_json_escape_roundtrip () =
  (* Everything the escaper emits must re-parse to the original string
     through our own parser — including every control byte. *)
  let cases =
    [
      "plain";
      "with \"quotes\" and \\backslashes\\";
      "newline\nand\ttab\rand\x00nul";
      String.init 32 Char.chr;
      "mixed \xc3\xa9\xe2\x86\x92 utf-8 \xf0\x9f\x90\xab bytes";
    ]
  in
  List.iter
    (fun s ->
      match Obs.Json.parse_result (Obs.Json.escape s) with
      | Ok (Obs.Json.Str s') ->
        Alcotest.(check string) (Printf.sprintf "roundtrip %S" s) s s'
      | Ok _ -> Alcotest.failf "%S parsed as non-string" s
      | Error msg -> Alcotest.failf "%S did not re-parse: %s" s msg)
    cases

(* --- log2 histogram bucket boundaries --- *)

(* Bucket i spans [2^i, 2^(i+1)) µs; quantile answers are the exact min,
   the exact max, or a bucket upper edge clamped into [min, max]. Pin
   the edges down with samples sitting exactly on powers of two. *)
let test_bucket_boundaries () =
  let m = I.create () in
  let h = I.histogram m "edges" in
  (* 2µs sits at the lower edge of bucket 1 ([2,4)µs, upper 4µs). *)
  List.iter (I.observe h) [ 2e-6; 2e-6; 2e-6; 100e-6 ];
  (match I.quantile h 0.5 with
   | Some v -> Alcotest.(check (float 1e-12)) "median = bucket upper" 4e-6 v
   | None -> Alcotest.fail "empty");
  (* Sub-microsecond samples all land in bucket 0 (upper 2µs); the
     clamp keeps the answer at the recorded max, not the bucket edge. *)
  let h0 = I.histogram m "subus" in
  List.iter (I.observe h0) [ 0.4e-6; 0.5e-6 ];
  (match I.quantile h0 0.5 with
   | Some v -> Alcotest.(check (float 1e-12)) "clamped to max" 0.5e-6 v
   | None -> Alcotest.fail "empty");
  (* 4µs is the first sample of bucket 2, not the last of bucket 1. *)
  let h2 = I.histogram m "open-upper" in
  List.iter (I.observe h2) [ 4e-6; 4e-6; 4e-6 ];
  (match I.quantile h2 0.5 with
   | Some v ->
     Alcotest.(check bool) "within [4,8)us bucket" true (v >= 4e-6 && v <= 8e-6)
   | None -> Alcotest.fail "empty");
  (* The snapshot view exposes (upper edge, count) pairs, increasing. *)
  match List.assoc_opt "edges" (I.snapshot m) with
  | Some (I.V_histogram { v_count; v_buckets; _ }) ->
    Alcotest.(check int) "count" 4 v_count;
    Alcotest.(check bool) "edges increasing" true
      (List.sort compare v_buckets = v_buckets);
    Alcotest.(check int) "bucket mass = count" 4
      (List.fold_left (fun a (_, c) -> a + c) 0 v_buckets)
  | _ -> Alcotest.fail "no snapshot view for edges"

(* --- lock-free counters --- *)

let test_concurrent_incr () =
  let m = I.create () in
  let c = I.counter m "hits" in
  let per_domain = 100_000 in
  List.init 4 (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to per_domain do
            I.incr c
          done))
  |> List.iter Domain.join;
  Alcotest.(check int) "4 domains sum exactly" (4 * per_domain) (I.count c)

(* --- Instrument.labeled --- *)

let test_labeled_names () =
  Alcotest.(check string) "no labels" "x" (I.labeled "x" []);
  Alcotest.(check string) "one" "x{k=\"v\"}" (I.labeled "x" [ ("k", "v") ]);
  Alcotest.(check string) "two, escaped"
    "x{a=\"q\\\"uote\",b=\"back\\\\slash\"}"
    (I.labeled "x" [ ("a", "q\"uote"); ("b", "back\\slash") ])

(* --- Prometheus text rendering --- *)

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let test_prom_render () =
  let m = I.create () in
  I.incr ~by:3 (I.counter m "cache.hits");
  I.incr (I.counter m (I.labeled "pass.hits" [ ("pass", "classify") ]));
  I.set_gauge (I.gauge m "pool.queue_depth") 7;
  let h = I.histogram m "phase.parse" in
  List.iter (I.observe h) [ 3e-6; 3e-6; 500e-6 ];
  let text = Obs.Export_prom.render m in
  Alcotest.(check string) "byte-stable" text (Obs.Export_prom.render m);
  let has l = Helpers.contains text l in
  Alcotest.(check bool) "counter suffixed" true (has "iv_cache_hits_total 3");
  Alcotest.(check bool) "counter typed" true
    (has "# TYPE iv_cache_hits_total counter");
  Alcotest.(check bool) "label block survives" true
    (has "iv_pass_hits_total{pass=\"classify\"} 1");
  Alcotest.(check bool) "gauge bare" true (has "iv_pool_queue_depth 7");
  Alcotest.(check bool) "gauge typed" true
    (has "# TYPE iv_pool_queue_depth gauge");
  Alcotest.(check bool) "histogram typed" true
    (has "# TYPE iv_phase_parse_seconds histogram");
  Alcotest.(check bool) "count" true (has "iv_phase_parse_seconds_count 3");
  Alcotest.(check bool) "+Inf bucket" true
    (has "iv_phase_parse_seconds_bucket{le=\"+Inf\"} 3");
  (* Buckets are cumulative: the le-values increase and so do the
     counts, ending at _count. *)
  let buckets =
    List.filter_map
      (fun l ->
        if Helpers.contains l "_bucket{le=" && not (Helpers.contains l "+Inf")
        then
          match String.rindex_opt l ' ' with
          | Some i ->
            Some
              (int_of_string
                 (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      (lines text)
  in
  Alcotest.(check bool) "cumulative" true
    (List.sort compare buckets = buckets);
  Alcotest.(check bool) "last finite bucket = count" true
    (match List.rev buckets with n :: _ -> n = 3 | [] -> false)

let test_prom_external_rows () =
  (* The row API Service.Engine uses for cache/store/pass metrics. *)
  let open Obs.Export_prom in
  let text =
    render_rows
      [
        row ~help:"LRU hits" "cache.hits" (Counter 12.);
        row "artifact.served{artifact=\"classify\",tier=\"mem\"}" (Counter 4.);
        row "store.bytes" (Gauge 123456.);
      ]
  in
  Alcotest.(check bool) "help line" true
    (Helpers.contains text "# HELP iv_cache_hits_total LRU hits");
  Alcotest.(check bool) "labeled row" true
    (Helpers.contains text
       "iv_artifact_served_total{artifact=\"classify\",tier=\"mem\"} 4");
  Alcotest.(check bool) "gauge" true (Helpers.contains text "iv_store_bytes 123456")

(* --- Prof: GC deltas scoped to a span of work --- *)

let test_prof_time_records () =
  let m = I.create () in
  let r =
    Obs.Prof.time m "phase.work" (fun () ->
        (* Allocate enough that the minor-words delta is unambiguous. *)
        List.length (List.init 100_000 (fun i -> (i, i + 1))))
  in
  Alcotest.(check int) "thunk result" 100_000 r;
  let snap = I.snapshot m in
  (match List.assoc_opt "phase.work" snap with
   | Some (I.V_histogram { v_count; _ }) ->
     Alcotest.(check int) "one observation" 1 v_count
   | _ -> Alcotest.fail "no phase.work histogram");
  (match List.assoc_opt "phase.work.minor_words" snap with
   | Some (I.V_counter words) ->
     Alcotest.(check bool)
       (Printf.sprintf "minor words counted (%d)" words)
       true
       (words > 100_000)
   | _ -> Alcotest.fail "no minor_words counter");
  (* The --profile table renders the phase with its allocation. *)
  let table = Obs.Prof.phase_table m in
  Alcotest.(check bool) "table row" true (Helpers.contains table "work");
  Alcotest.(check bool) "table totals" true (Helpers.contains table "total")

let test_prof_delta_clamps () =
  let s = Obs.Prof.sample () in
  let d = Obs.Prof.delta s s in
  Alcotest.(check int) "zero minor" 0 d.Obs.Prof.d_minor_words;
  Alcotest.(check int) "zero gcs" 0 d.Obs.Prof.d_minor_gcs;
  Alcotest.(check bool) "attrs drop zeros" true (Obs.Prof.attrs d = [])

(* A recorder registers all five counters of its prefix on its first
   record, so a field whose delta is zero still has a series. *)
let test_prof_record_registers_all () =
  let m = I.create () in
  let s = Obs.Prof.sample () in
  let d = { (Obs.Prof.delta s s) with Obs.Prof.d_minor_words = 7; d_major_words = 0 } in
  Obs.Prof.record (Obs.Prof.recorder m ~prefix:"phase.x") d;
  let snap = I.snapshot m in
  List.iter
    (fun (field, want) ->
      match List.assoc_opt ("phase.x." ^ field) snap with
      | Some (I.V_counter v) -> Alcotest.(check int) field want v
      | _ -> Alcotest.failf "no phase.x.%s counter" field)
    [ ("minor_words", 7); ("promoted_words", 0); ("major_words", 0); ("minor_gcs", 0);
      ("major_gcs", 0) ]

(* --- folded stacks --- *)

let span ~sid ~parent ~name ~tid ~start_us ~stop_us =
  {
    Obs.Trace.sid;
    parent;
    name;
    cat = "t";
    tid;
    start_ns = Int64.of_int (start_us * 1000);
    stop_ns = Int64.of_int (stop_us * 1000);
    attrs = [];
  }

let test_folded_self_time () =
  let spans =
    [
      span ~sid:1 ~parent:None ~name:"outer" ~tid:0 ~start_us:0 ~stop_us:100;
      span ~sid:2 ~parent:(Some 1) ~name:"inner" ~tid:0 ~start_us:10
        ~stop_us:40;
      span ~sid:3 ~parent:(Some 1) ~name:"inner" ~tid:0 ~start_us:50
        ~stop_us:80;
      span ~sid:4 ~parent:None ~name:"other" ~tid:3 ~start_us:0 ~stop_us:5;
    ]
  in
  let out = Obs.Export_folded.render_parts spans in
  (* outer self = 100 - (30 + 30); the two sibling "inner" spans fold
     into one line; the second domain gets its own root frame. *)
  Alcotest.(check string) "folded"
    "domain0;outer 40\ndomain0;outer;inner 60\ndomain3;other 5\n" out;
  Alcotest.(check string) "deterministic" out
    (Obs.Export_folded.render_parts spans)

let test_folded_zero_self_omitted () =
  let spans =
    [
      span ~sid:1 ~parent:None ~name:"outer" ~tid:0 ~start_us:0 ~stop_us:50;
      span ~sid:2 ~parent:(Some 1) ~name:"inner" ~tid:0 ~start_us:0
        ~stop_us:50;
    ]
  in
  let out = Obs.Export_folded.render_parts spans in
  Alcotest.(check string) "only the leaf" "domain0;outer;inner 50\n" out

(* --- bench-diff: the counter gate --- *)

let bench_json ?(rows = "") ~hits ~words () =
  Printf.sprintf
    {|{
  "experiment": "B1",
  "corpus_files": 8,
  "runs": [
    {"cache": "cold", "cache_hits": %d, "minor_words_per_file": %d}%s
  ]
}|}
    hits words rows

let diff old_j new_j =
  match Service.Bench_diff.compare ~old_json:old_j ~new_json:new_j with
  | Ok r -> r
  | Error msg -> Alcotest.failf "bench-diff failed: %s" msg

let test_bench_diff_regression () =
  let old_j = bench_json ~hits:1000 ~words:50000 () in
  (* A counter that grew past 1%: exactly one regression. *)
  let r = diff old_j (bench_json ~hits:1011 ~words:50000 ()) in
  Alcotest.(check int) "growth regressed" 1 r.Service.Bench_diff.regressions;
  Alcotest.(check bool) "marked in rendering" true
    (Helpers.contains (Service.Bench_diff.to_string r) "REGRESSION");
  (* A drop past 1% fails too: the gate has no better direction. *)
  let r = diff old_j (bench_json ~hits:1000 ~words:49400 ()) in
  Alcotest.(check int) "drop regressed" 1 r.Service.Bench_diff.regressions;
  (* Within 1% either way: clean, but the moved counters still show. *)
  let r = diff old_j (bench_json ~hits:995 ~words:50400 ()) in
  Alcotest.(check int) "within tolerance" 0 r.Service.Bench_diff.regressions;
  Alcotest.(check bool) "moved counter reported" true
    (Helpers.contains (Service.Bench_diff.to_string r) "minor_words_per_file");
  (* A zero baseline tolerates no move at all. *)
  let r = diff (bench_json ~hits:0 ~words:50000 ()) old_j in
  Alcotest.(check int) "from zero regressed" 1 r.Service.Bench_diff.regressions

let test_bench_diff_missing_gates () =
  (* A baseline row or counter absent from the new file fails the gate:
     dropping or renaming a counter must not pass silently. *)
  let old_j = bench_json ~hits:1000 ~words:50000 () in
  let renamed_row =
    {|{"corpus_files": 8, "runs": [
        {"cache": "hot", "cache_hits": 1000, "minor_words_per_file": 50000}
      ]}|}
  in
  let r = diff old_j renamed_row in
  Alcotest.(check int) "missing row regressed" 1
    r.Service.Bench_diff.regressions;
  Alcotest.(check (list string)) "row named" [ "row runs[cache=cold]" ]
    r.Service.Bench_diff.missing;
  let renamed_field =
    {|{"corpus_files": 8, "runs": [
        {"cache": "cold", "hits": 1000, "minor_words_per_file": 50000}
      ]}|}
  in
  let r = diff old_j renamed_field in
  Alcotest.(check int) "missing field regressed" 1
    r.Service.Bench_diff.regressions;
  Alcotest.(check bool) "rendered as a regression" true
    (Helpers.contains (Service.Bench_diff.to_string r)
       "missing from new: field runs[cache=cold].cache_hits  REGRESSION")

let test_bench_diff_shape_notes () =
  let old_j = bench_json ~hits:1000 ~words:50000 () in
  let extra =
    bench_json ~hits:1000 ~words:50000
      ~rows:{|,
    {"cache": "warm", "cache_hits": 7, "minor_words_per_file": 9}|} ()
  in
  let r = diff old_j extra in
  Alcotest.(check int) "new row is no regression" 0
    r.Service.Bench_diff.regressions;
  Alcotest.(check (list string)) "new row noted"
    [ "row only in new: runs[cache=warm]" ] r.Service.Bench_diff.notes;
  match Service.Bench_diff.compare ~old_json:"not json" ~new_json:old_j with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse error accepted"

(* --- pool telemetry + engine exposition, end to end --- *)

let test_pool_telemetry () =
  let m = I.create () in
  let pool = Service.Pool.create ~domains:2 ~metrics:m () in
  Fun.protect
    ~finally:(fun () -> Service.Pool.shutdown pool)
    (fun () ->
      let r =
        Service.Pool.run pool
          (fun x -> List.length (List.init (10_000 + x) Fun.id))
          (Array.init 16 Fun.id)
      in
      Alcotest.(check int) "all ran" 16
        (Array.fold_left
           (fun acc o ->
             match o with Service.Pool.Done _ -> acc + 1 | _ -> acc)
           0 r));
  let snap = I.snapshot m in
  let tasks =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | I.V_counter n when Helpers.contains name "pool.tasks{domain=" ->
          acc + n
        | _ -> acc)
      0 snap
  in
  Alcotest.(check int) "every task counted under a domain label" 16 tasks;
  Alcotest.(check bool) "latency histogram present" true
    (List.exists
       (fun (name, _) -> Helpers.contains name "pool.task_latency{domain=")
       snap);
  Alcotest.(check bool) "spawn/join observed" true
    (List.mem_assoc "pool.spawn" snap && List.mem_assoc "pool.join" snap);
  (* And it all comes out the Prometheus end with the domain label. *)
  let text = Obs.Export_prom.render m in
  Alcotest.(check bool) "prometheus exposition" true
    (Helpers.contains text "iv_pool_tasks_total{domain=")

let test_engine_prometheus_report () =
  let engine = Service.Engine.create () in
  (match
     Service.Engine.classify engine
       "i = 0\nT: loop\n  i = i + 1\n  if i > 9 exit\nendloop\nA(i) = 1"
   with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "classify failed: %s" msg);
  let text = Service.Engine.prometheus_report engine in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Helpers.contains text needle))
    [
      "# TYPE iv_cache_hits_total counter";
      "iv_pass_misses_total{pass=\"classify\"} 1";
      "iv_artifact_served_total{artifact=\"classify\",tier=\"computed\"} 1";
      "# TYPE iv_phase_parse_seconds histogram";
      "iv_phase_parse_seconds_bucket{le=\"+Inf\"}";
      "iv_gc_process_minor_words_total";
      "iv_gc_heap_words";
    ];
  (* Malformed exposition would break scrapes silently; pin the shape:
     every non-comment line is "name{labels} value" with a float value. *)
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then
        match String.rindex_opt l ' ' with
        | Some i ->
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          (match float_of_string_opt v with
           | Some _ -> ()
           | None -> Alcotest.failf "unparsable sample value in %S" l)
        | None -> Alcotest.failf "sample line without value: %S" l)
    (String.split_on_char '\n' text)

let suite =
  ( "obs-prom",
    [
      Helpers.case "json escape basics" test_json_escape_basics;
      Helpers.case "json escape roundtrips" test_json_escape_roundtrip;
      Helpers.case "log2 bucket boundaries" test_bucket_boundaries;
      Helpers.case "labeled instrument names" test_labeled_names;
      Helpers.case "prometheus rendering" test_prom_render;
      Helpers.case "prometheus external rows" test_prom_external_rows;
      Helpers.case "prof time records alloc" test_prof_time_records;
      Helpers.case "prof delta clamps" test_prof_delta_clamps;
      Helpers.case "folded self time" test_folded_self_time;
      Helpers.case "folded omits zero self" test_folded_zero_self_omitted;
      Helpers.case "bench-diff regressions" test_bench_diff_regression;
      Helpers.case "bench-diff missing rows gate" test_bench_diff_missing_gates;
      Helpers.case "bench-diff shape notes" test_bench_diff_shape_notes;
      Helpers.case "pool per-domain telemetry" test_pool_telemetry;
      Helpers.case "engine prometheus report" test_engine_prometheus_report;
      Helpers.case "concurrent increments" test_concurrent_incr;
      Helpers.case "prof record registers all" test_prof_record_registers_all;
    ] )
