(* lib/obs: span collection and nesting, exporters, the JSON checker,
   instrument quantile edges, and the classification provenance events. *)

module Trace = Obs.Trace

(* --- spans and events --- *)

let test_span_nesting () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () -> Trace.event "tick");
            Trace.with_span "inner2" ignore))
  in
  let spans = Trace.spans t in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let by_name n = List.find (fun (s : Trace.span) -> s.Trace.name = n) spans in
  let outer = by_name "outer" and inner = by_name "inner" in
  let inner2 = by_name "inner2" in
  Alcotest.(check bool) "outer is a root" true (outer.Trace.parent = None);
  Alcotest.(check bool) "inner under outer" true
    (inner.Trace.parent = Some outer.Trace.sid);
  Alcotest.(check bool) "inner2 under outer" true
    (inner2.Trace.parent = Some outer.Trace.sid);
  Alcotest.(check bool) "span closed" true
    (Int64.compare inner.Trace.stop_ns inner.Trace.start_ns >= 0);
  Alcotest.(check int) "one event" 1 (List.length (Trace.events t))

let test_span_closes_on_raise () =
  let result, t =
    Trace.collect (fun () ->
        try
          ignore (Trace.with_span "boom" (fun () -> failwith "no"));
          false
        with Failure _ -> true)
  in
  Alcotest.(check bool) "exception propagated" true result;
  let s = List.hd (Trace.spans t) in
  Alcotest.(check bool) "closed anyway" true
    (Int64.compare s.Trace.stop_ns s.Trace.start_ns >= 0);
  (* The stack unwound: a later span is a root, not a child of "boom". *)
  let (), t2 =
    Trace.collect (fun () ->
        (try Trace.with_span "boom" (fun () -> failwith "no")
         with Failure _ -> ());
        Trace.with_span "after" ignore)
  in
  let after = List.find (fun (s : Trace.span) -> s.Trace.name = "after") (Trace.spans t2) in
  Alcotest.(check bool) "after is a root" true (after.Trace.parent = None)

let test_disabled_is_noop () =
  Trace.uninstall ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* Must not raise, and must still run the thunk. *)
  let r = Trace.with_span "nope" (fun () -> 7) in
  Trace.event "nope";
  Alcotest.(check int) "thunk ran" 7 r

let test_limit_drops () =
  let (), t =
    Trace.collect ~limit:2 (fun () ->
        List.iter (fun _ -> Trace.event "e") [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check int) "kept two" 2 (List.length (Trace.events t));
  Alcotest.(check int) "dropped three" 3 (Trace.dropped t)

let test_collect_restores () =
  let outer = Trace.create () in
  Trace.install outer;
  let (), _inner = Trace.collect (fun () -> Trace.event "inner-only") in
  Alcotest.(check bool) "outer back in place" true
    (match Trace.current () with Some t -> t == outer | None -> false);
  Trace.uninstall ();
  Alcotest.(check int) "outer untouched" 0 (List.length (Trace.events outer))

let test_add_attrs () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span "s" (fun () -> Trace.add_attrs [ ("k", Trace.Int 3) ]))
  in
  let s = List.hd (Trace.spans t) in
  Alcotest.(check bool) "attr added" true
    (List.assoc_opt "k" s.Trace.attrs = Some (Trace.Int 3))

(* --- exporters --- *)

let test_chrome_roundtrip () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span ~attrs:[ ("file", Trace.Str "a \"quoted\"\nname") ] "outer"
          (fun () -> Trace.with_span "inner" ignore);
        Trace.event ~attrs:[ ("n", Trace.Int 1) ] "tick")
  in
  let json = Obs.Export_chrome.render t in
  (* 2 complete spans + 1 instant + process_name + thread_name metadata
     (single tid here). *)
  (match Obs.Json.check_trace json with
   | Ok (total, complete) ->
     Alcotest.(check int) "records" 5 total;
     Alcotest.(check int) "complete spans" 2 complete
   | Error msg -> Alcotest.failf "invalid trace: %s" msg);
  (* The hierarchy survives the export: parent arg = outer's span arg. *)
  match Obs.Json.parse json |> Obs.Json.member "traceEvents" with
  | Some (Obs.Json.List records) ->
    let arg name r =
      match Obs.Json.member "args" r with
      | Some args -> Obs.Json.member name args
      | None -> None
    in
    let named n =
      List.find (fun r -> Obs.Json.member "name" r = Some (Obs.Json.Str n)) records
    in
    Alcotest.(check bool) "parent id recorded" true
      (arg "parent" (named "inner") = arg "span" (named "outer"))
  | _ -> Alcotest.fail "no traceEvents array"

let test_text_summary_stable () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span "b" ignore;
        Trace.with_span "a" ignore;
        Trace.event "tick")
  in
  let s1 = Obs.Export_text.render t and s2 = Obs.Export_text.render t in
  Alcotest.(check string) "byte-stable" s1 s2;
  Alcotest.(check bool) "mentions spans" true (Helpers.contains s1 "pipeline/a");
  Alcotest.(check bool) "mentions events" true (Helpers.contains s1 "tick");
  (* Rows sort by (cat, name): a before b. *)
  let ia = String.index s1 'a' in
  ignore ia;
  let find sub =
    let rec go i =
      if i + String.length sub > String.length s1 then -1
      else if String.sub s1 i (String.length sub) = sub then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "sorted" true (find "pipeline/a" < find "pipeline/b")

let test_json_parser_rejects () =
  (match Obs.Json.parse_result "{\"a\": [1, 2,]}" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "trailing comma accepted");
  (match Obs.Json.check_trace "{\"notTraceEvents\": []}" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "missing traceEvents accepted");
  match Obs.Json.check_trace "{\"traceEvents\": [{\"ph\": \"X\"}]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "record without name/ts accepted"

(* --- instrument quantile edges --- *)

let test_quantile_edges () =
  let m = Obs.Instrument.create () in
  let h = Obs.Instrument.histogram m "t" in
  Alcotest.(check bool) "empty" true (Obs.Instrument.quantile h 0.5 = None);
  List.iter (Obs.Instrument.observe h) [ 0.010; 0.020; 0.500 ];
  let q x = match Obs.Instrument.quantile h x with Some v -> v | None -> nan in
  Alcotest.(check (float 1e-9)) "q=0 is the exact min" 0.010 (q 0.0);
  Alcotest.(check (float 1e-9)) "q<0 clamps to min" 0.010 (q (-3.0));
  Alcotest.(check (float 1e-9)) "q=1 is the exact max" 0.500 (q 1.0);
  Alcotest.(check (float 1e-9)) "q>1 clamps to max" 0.500 (q 2.0);
  Alcotest.(check (float 1e-9)) "NaN is conservative (max)" 0.500 (q nan);
  (* In between: bucketed, but always within [min, max]. *)
  List.iter
    (fun x ->
      let v = q x in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within range" x)
        true
        (v >= 0.010 && v <= 0.500))
    [ 0.01; 0.25; 0.5; 0.75; 0.99 ]

let test_quantile_single_sample () =
  let m = Obs.Instrument.create () in
  let h = Obs.Instrument.histogram m "one" in
  Obs.Instrument.observe h 0.123;
  List.iter
    (fun x ->
      match Obs.Instrument.quantile h x with
      | Some v -> Alcotest.(check (float 1e-9)) "the sample" 0.123 v
      | None -> Alcotest.fail "empty")
    [ 0.0; 0.5; 1.0 ]

let test_dump_stable () =
  let m = Obs.Instrument.create () in
  Obs.Instrument.incr (Obs.Instrument.counter m "reqs");
  Obs.Instrument.set_gauge (Obs.Instrument.gauge m "depth") 4;
  let h = Obs.Instrument.histogram m "lat" in
  List.iter (Obs.Instrument.observe h) [ 0.0001; 0.0002; 0.0004 ];
  let d1 = Obs.Instrument.dump m and d2 = Obs.Instrument.dump m in
  Alcotest.(check string) "byte-stable" d1 d2;
  (* Integer microseconds only: no decimal point in histogram times. *)
  List.iter
    (fun line ->
      if Helpers.contains line "lat" then
        Alcotest.(check bool)
          (Printf.sprintf "no fractional us in %S" line)
          false (String.contains line '.'))
    (String.split_on_char '\n' d1)

(* --- classification provenance exemplars, one per class --- *)

(* Run the full pipeline under a collector and return the provenance
   events. *)
let provenance src =
  let (), t = Trace.collect (fun () -> ignore (Helpers.analyze src)) in
  Service.Explain.provenance_events (Trace.events t)

let attr_str e key =
  Option.map Trace.attr_to_string (List.assoc_opt key e.Trace.ev_attrs)

(* The event for the SCR containing [var] must name a rule containing
   [expect] and classify [var] as [cls]. *)
let check_prov src var ~rule ~cls =
  let evs = List.filter (Service.Explain.mentions var) (provenance src) in
  match evs with
  | [] -> Alcotest.failf "no provenance event mentions %s" var
  | e :: _ ->
    let r = Option.value ~default:"" (attr_str e "rule") in
    if not (Helpers.contains r rule) then
      Alcotest.failf "rule for %s is %S (expected it to mention %S)" var r rule;
    Alcotest.(check (option string))
      (var ^ " class") (Some cls)
      (attr_str e ("class." ^ var))

let test_prov_basic () =
  check_prov "i = 0\nT: loop\n  i = i + 1\n  if i > 9 exit\nendloop\nA(i) = 1" "i2"
    ~rule:"basic IV family (sec 3.1)" ~cls:"(T, 0, 1)"

let test_prov_wraparound () =
  check_prov
    "k = 9\nj = 8\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\nendloop"
    "j2" ~rule:"wrap-around of the carried class" ~cls:"wrap(L10, order 1, [8], (L10, 1, 1))"

let test_prov_flip_flop () =
  check_prov "x = 1\nT: loop\n  x = 5 - x\n  if ?? exit\nendloop\nA(x) = 1" "x2"
    ~rule:"flip-flop, periodic with period 2 (sec 4.2)"
    ~cls:"periodic(T, period 2, phase 0, [1; 4])"

let test_prov_periodic () =
  check_prov
    "j = 1\nk = 2\nl = 3\nL13: loop\n  t = j\n  j = k\n  k = l\n  l = t\n  A(j) = A(k)\nendloop"
    "j2" ~rule:"periodic family, period 3 (sec 4.2)"
    ~cls:"periodic(L13, period 3, phase 0, [1; 2; 3])"

let test_prov_polynomial () =
  check_prov "j = 1\nT: for i = 1 to n loop\n  j = j + i\nendloop\nA(j) = 1" "j3"
    ~rule:"polynomial degree 2 (sec 4.3)" ~cls:"(T, 2, 3/2, 1/2)"

let test_prov_geometric () =
  check_prov "l = 1\nT: for i = 1 to n loop\n  l = l * 2 + 1\nendloop\nA(l) = 1" "l3"
    ~rule:"geometric with ratio 2 (sec 4.3)" ~cls:"(T, -1 | 4*2^h)"

let test_prov_monotonic () =
  check_prov
    "k = 0\nL16: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k + 2\n  endif\nendloop\nA(k) = 1"
    "k2" ~rule:"monotonic family (sec 4.4)" ~cls:"monotonic(L16, increasing, strict)"

(* --- tracing across domains (the pool records one tree per tid) --- *)

let test_multi_domain_spans () =
  let (), t =
    Trace.collect (fun () ->
        let d =
          Domain.spawn (fun () -> Trace.with_span "worker" (fun () -> 1))
        in
        Trace.with_span "main" ignore;
        ignore (Domain.join d))
  in
  let spans = Trace.spans t in
  Alcotest.(check int) "both spans" 2 (List.length spans);
  let worker = List.find (fun (s : Trace.span) -> s.Trace.name = "worker") spans in
  let main = List.find (fun (s : Trace.span) -> s.Trace.name = "main") spans in
  Alcotest.(check bool) "distinct tids" true (worker.Trace.tid <> main.Trace.tid);
  Alcotest.(check bool) "both roots" true
    (worker.Trace.parent = None && main.Trace.parent = None)

let test_classify_one_ssa_span () =
  (* The pipeline's own stage spans are the only ones named after its
     passes: SSA conversion and the loop forest nest inside under names
     of their own, so a trace summary counts each stage once. *)
  let engine = Service.Engine.create () in
  let _, t =
    Trace.collect (fun () ->
        Service.Engine.classify engine "L1: for i = 1 to 4 loop\n  A(i) = i\nendloop")
  in
  let count name =
    List.length (List.filter (fun (s : Trace.span) -> s.Trace.name = name) (Trace.spans t))
  in
  Alcotest.(check int) "one pipeline.ssa span" 1 (count "pipeline.ssa");
  Alcotest.(check int) "one pipeline.looptree span" 1 (count "pipeline.looptree")

let suite =
  ( "obs-trace",
    [
      Helpers.case "span nesting" test_span_nesting;
      Helpers.case "span closes on raise" test_span_closes_on_raise;
      Helpers.case "disabled is a no-op" test_disabled_is_noop;
      Helpers.case "record limit drops" test_limit_drops;
      Helpers.case "collect restores ambient" test_collect_restores;
      Helpers.case "add_attrs" test_add_attrs;
      Helpers.case "chrome export re-parses" test_chrome_roundtrip;
      Helpers.case "text summary stable+sorted" test_text_summary_stable;
      Helpers.case "json parser rejects junk" test_json_parser_rejects;
      Helpers.case "quantile edges" test_quantile_edges;
      Helpers.case "quantile single sample" test_quantile_single_sample;
      Helpers.case "dump byte-stable integer-us" test_dump_stable;
      Helpers.case "provenance: basic" test_prov_basic;
      Helpers.case "provenance: wraparound" test_prov_wraparound;
      Helpers.case "provenance: flip-flop" test_prov_flip_flop;
      Helpers.case "provenance: periodic" test_prov_periodic;
      Helpers.case "provenance: polynomial" test_prov_polynomial;
      Helpers.case "provenance: geometric" test_prov_geometric;
      Helpers.case "provenance: monotonic" test_prov_monotonic;
      Helpers.case "multi-domain spans" test_multi_domain_spans;
      Helpers.case "classify traces one span per stage" test_classify_one_ssa_span;
    ] )
