(* Service cache: LRU behavior, statistics, invalidation, and the
   engine's content-addressed keying (same source, different options →
   different entries). *)

module Cache = Service.Cache
module Fnv = Hash.Fnv
module Engine = Service.Engine

let test_hit_miss () =
  let c = Cache.create ~capacity:4 () in
  Alcotest.(check (option int)) "cold miss" None (Cache.find c "a");
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Cache.find c "a");
  let s = Cache.stats c in
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one insertion" 1 s.Cache.insertions

let test_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* Touch "a" so "b" is the LRU entry when "c" arrives. *)
  ignore (Cache.find c "a");
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "a survives" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions;
  Alcotest.(check int) "size stays bounded" 2 (Cache.size c)

let test_replace_same_key () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "a" 7;
  Alcotest.(check (option int)) "replaced" (Some 7) (Cache.find c "a");
  Alcotest.(check int) "no eviction on replace" 0 (Cache.stats c).Cache.evictions

let test_invalidate_and_clear () =
  let c = Cache.create ~capacity:8 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Alcotest.(check bool) "invalidate present" true (Cache.invalidate c "a");
  Alcotest.(check bool) "invalidate absent" false (Cache.invalidate c "a");
  Alcotest.(check (option int)) "gone" None (Cache.find c "a");
  Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Cache.size c);
  Alcotest.(check (option int)) "b gone too" None (Cache.find c "b")

let test_find_or_add () =
  let c = Cache.create ~capacity:8 () in
  let computed = ref 0 in
  let get () =
    Cache.find_or_add c "k" (fun () ->
        incr computed;
        42)
  in
  Alcotest.(check int) "computed" 42 (get ());
  Alcotest.(check int) "cached" 42 (get ());
  Alcotest.(check int) "computed once" 1 !computed

let test_digest_framing () =
  (* Length framing: re-splitting the same bytes must change the key. *)
  let a = Fnv.of_strings [ "ab"; "c" ] in
  let b = Fnv.of_strings [ "a"; "bc" ] in
  Alcotest.(check bool) "no concat collision" false (Fnv.equal a b);
  Alcotest.(check bool) "deterministic" true
    (Fnv.equal (Fnv.of_strings [ "x"; "y" ]) (Fnv.of_strings [ "x"; "y" ]));
  (* The value itself is pinned: on-disk store keys are built from it. *)
  Alcotest.(check string) "pinned value" "7e60470bf599cad6" (Fnv.to_hex a)

let fig1 = "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n"

let test_engine_memoizes () =
  let e = Engine.create () in
  let r1 = Engine.classify e fig1 in
  let r2 = Engine.classify e fig1 in
  Alcotest.(check bool) "both succeed" true (Result.is_ok r1 && Result.is_ok r2);
  Alcotest.(check bool) "identical" true (r1 = r2);
  let s = Engine.cache_stats e in
  (* First call misses the pipeline entry and probes the unit-artifact
     cache for fig1's single loop nest (a second miss); the second call
     is one pipeline hit and never reaches the unit layer. *)
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses

let test_same_source_different_options () =
  (* The options are part of the key: sccp on/off must not share
     entries, and each engine's first lookup is a miss. *)
  let on =
    Engine.create
      ~options:{ Engine.use_sccp = true; check_iters = 100; use_ranges = true }
      ()
  in
  let off =
    Engine.create
      ~options:{ Engine.use_sccp = false; check_iters = 100; use_ranges = true }
      ()
  in
  let src = "i = 0\nT: loop\n  i = i + 1\n  if i > 10 exit\nendloop\n" in
  Alcotest.(check bool) "sccp on ok" true (Result.is_ok (Engine.classify on src));
  Alcotest.(check bool) "sccp off ok" true (Result.is_ok (Engine.classify off src));
  Alcotest.(check int) "off engine missed" 0 (Engine.cache_stats off).Cache.hits;
  (* Directly: the per-request base digest differs even over identical
     text, so every derived per-pass key differs too. *)
  let k b = Fnv.feed_bool (Fnv.of_strings [ src ]) b in
  Alcotest.(check bool) "keys differ" false (Fnv.equal (k true) (k false))

let test_engine_caches_errors () =
  let e = Engine.create () in
  let bad = "x = = 1\n" in
  let r1 = Engine.classify e bad in
  let r2 = Engine.classify e bad in
  Alcotest.(check bool) "error" true (Result.is_error r1);
  Alcotest.(check bool) "same error" true (r1 = r2);
  Alcotest.(check bool) "error served from cache" true
    ((Engine.cache_stats e).Cache.hits > 0)

let test_engine_invalidate () =
  let e = Engine.create () in
  ignore (Engine.classify e fig1);
  ignore (Engine.trip e fig1);
  let removed = Engine.invalidate e fig1 in
  (* One pipeline entry holds every forced pass; no deps report was
     requested, so exactly one entry goes. The unit artifact for fig1's
     loop nest survives: it is keyed by the nest's own digest, not the
     source, so any program containing that nest may still reuse it. *)
  Alcotest.(check int) "pipeline entry dropped" 1 removed;
  Alcotest.(check int) "unit artifact survives" 1 (Engine.cache_stats e).Cache.size

(* Two programs that classify, count and range identically but differ
   in what they read: [a1] carries an anti dependence, [a2] none. Every
   derived artifact is a property of its own program, so one engine
   serving both, in either order, answers each as a fresh engine would. *)
let test_colliding_sources_keep_their_reports () =
  let a1 = "L1: for i = 1 to 10 loop\n  A(i) = A(i) + 1\nendloop\n" in
  let a2 = "L1: for i = 1 to 10 loop\n  A(i) = B(i) + 1\nendloop\n" in
  let fresh artifact src = Engine.render (Engine.create ()) artifact src in
  List.iter
    (fun artifact ->
      let name = Engine.artifact_to_string artifact in
      List.iter
        (fun order ->
          let e = Engine.create () in
          List.iter
            (fun src ->
              Alcotest.(check (result string string))
                (name ^ " equals a fresh engine's")
                (fresh artifact src) (Engine.render e artifact src))
            order)
        [ [ a1; a2 ]; [ a2; a1 ] ])
    Engine.[ Deps; Check ];
  Alcotest.(check bool) "the two dependence reports differ" true
    (fresh Engine.Deps a1 <> fresh Engine.Deps a2);
  (* Invalidation drops each program's own entry: one record holds its
     pipeline, reports, dependence report and four verify parts. *)
  let e = Engine.create () in
  List.iter
    (fun src ->
      List.iter (fun a -> ignore (Engine.render e a src)) Engine.[ Deps; Check ])
    [ a1; a2 ];
  Alcotest.(check int) "a1's entries" 1 (Engine.invalidate e a1);
  Alcotest.(check int) "a2's entries" 1 (Engine.invalidate e a2)

let suite =
  ( "service-cache",
    [
      Helpers.case "hit and miss counting" test_hit_miss;
      Helpers.case "lru eviction order" test_lru_eviction;
      Helpers.case "replace same key" test_replace_same_key;
      Helpers.case "invalidate and clear" test_invalidate_and_clear;
      Helpers.case "find_or_add computes once" test_find_or_add;
      Helpers.case "digest length framing" test_digest_framing;
      Helpers.case "engine memoizes reports" test_engine_memoizes;
      Helpers.case "options are part of the key" test_same_source_different_options;
      Helpers.case "parse errors are cached" test_engine_caches_errors;
      Helpers.case "per-source invalidation" test_engine_invalidate;
      Helpers.case "colliding sources keep their reports"
        test_colliding_sources_keep_their_reports;
    ] )
