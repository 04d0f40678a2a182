(* Content-addressed memoization of the staged analysis pipeline.

   The engine keys its cache per *pass*, not per monolithic analysis:
   each source text maps (through one digest, computed once per
   request) to an Analysis.Pipeline instance whose stages force lazily,
   so a trip-count request never runs range analysis or dependence
   testing. The dependence report — the one artifact computed above
   lib/analysis — is cached under a key derived from the classify
   pass's result digest, so it survives pipeline eviction and is shared
   by any source that classifies the same way. *)

module Pipeline = Analysis.Pipeline

type options = { use_sccp : bool; check_iters : int; use_ranges : bool }

let default_options = { use_sccp = true; check_iters = 100; use_ranges = true }

type artifact = Classify | Deps | Trip | Check | Ranges

let artifact_to_string = function
  | Classify -> "classify"
  | Deps -> "deps"
  | Trip -> "trip"
  | Check -> "check"
  | Ranges -> "ranges"

let artifact_of_string = function
  | "classify" -> Some Classify
  | "deps" -> Some Deps
  | "trip" -> Some Trip
  | "check" -> Some Check
  | "ranges" | "range" -> Some Ranges
  | _ -> None

(* One cache holds pipeline instances, rendered dependence reports,
   verify-report parts and per-unit analysis artifacts; the key
   derivation keeps them apart. *)
type entry =
  | E_pipeline of Pipeline.t
  | E_text of string
  | E_part of Verify.Check.part
  | E_unit of Pipeline.unit_artifact

type pass_counters = { p_hits : int Atomic.t; p_misses : int Atomic.t }

(* Where a rendered artifact came from: the memory tier (a forced
   pipeline or a promoted text entry), the disk store, or a fresh
   computation. One triple per artifact kind — the per-kind hit-rate
   line in STATS. *)
type tier_counters = {
  a_mem : int Atomic.t;
  a_disk : int Atomic.t;
  a_computed : int Atomic.t;
}

let all_artifacts = [ Classify; Deps; Trip; Check; Ranges ]

type t = {
  options : options;
  cache : (Digest.t, entry) Cache.t;
  metrics : Metrics.t;
  counters : (Pipeline.pass * pass_counters) list;
  tiers : (artifact * tier_counters) list;
  mutable store : Store.Disk.t option;
  (* (base key, pass) pairs whose artifact was served from the disk
     store in this process — the `store` owner tier of `ivtool
     passes`. *)
  prov_lock : Mutex.t;
  store_served : (Digest.t * Pipeline.pass, unit) Hashtbl.t;
}

let create ?(capacity = 256) ?(options = default_options) ?store () =
  {
    options;
    cache = Cache.create ~capacity ();
    metrics = Metrics.create ();
    counters =
      List.map
        (fun p -> (p, { p_hits = Atomic.make 0; p_misses = Atomic.make 0 }))
        Pipeline.all;
    tiers =
      List.map
        (fun a ->
          ( a,
            {
              a_mem = Atomic.make 0;
              a_disk = Atomic.make 0;
              a_computed = Atomic.make 0;
            } ))
        all_artifacts;
    store;
    prov_lock = Mutex.create ();
    store_served = Hashtbl.create 16;
  }

let options t = t.options
let metrics t = t.metrics
let cache_stats t = Cache.stats t.cache
let store t = t.store
let set_store t s = t.store <- s

(* -- keys: the source text is digested exactly once per request; every
   key below derives from that digest -- *)

let base_key t src = Digest.feed_bool (Digest.of_strings [ src ]) t.options.use_sccp
let pipeline_key base = Digest.feed_string base "pipeline"
let deps_key classify_digest = Digest.feed_string classify_digest "text.deps"

(* Unit artifacts key off the unit digest alone (not the source): two
   sources sharing an unchanged loop nest share its artifact. *)
let unit_key udigest = Digest.feed_string udigest "unit.artifact"

(* -- the disk tier (lib/store) --

   The store persists *rendered* artifacts: byte-stable report text
   keyed by source digest ⊕ options ⊕ artifact kind. (Structured unit
   artifacts stay memory-only: they embed interned identifiers whose
   ids are process-local, so marshaling them across processes would be
   unsound. The rendered text is the deterministic function of the
   digest that survives.) [store_schema] versions the *content* of the
   reports — bump it whenever a renderer's output format changes, so a
   shared fleet store never serves bytes from an older report format. *)

let store_schema = 2

let render_key t base artifact =
  let k =
    Digest.feed_int
      (Digest.feed_string base ("render." ^ artifact_to_string artifact))
      store_schema
  in
  (* The rendered check report depends on the oracle's iteration bound;
     two processes with different --iters must not share it. The deps
     and check reports also depend on whether range sharpening is on. *)
  match artifact with
  | Check -> Digest.feed_bool (Digest.feed_int k t.options.check_iters) t.options.use_ranges
  | Deps -> Digest.feed_bool k t.options.use_ranges
  | Classify | Trip | Ranges -> k

let tier_of t artifact = List.assoc artifact t.tiers

let mark_store_served t base pass =
  Mutex.lock t.prov_lock;
  Hashtbl.replace t.store_served (base, pass) ();
  Mutex.unlock t.prov_lock

let was_store_served t base pass =
  Mutex.lock t.prov_lock;
  let r = Hashtbl.mem t.store_served (base, pass) in
  Mutex.unlock t.prov_lock;
  r

(* Probe the disk tier under an [engine.store] span. Absent store =
   silent None, so every caller works unchanged without one. *)
let store_probe t tag key =
  match t.store with
  | None -> None
  | Some s ->
    let probe () = Store.Disk.get s ~kind:tag key in
    if Obs.Trace.enabled () then
      Obs.Trace.with_span ~cat:"engine"
        ~attrs:[ ("artifact", Obs.Trace.Str tag) ]
        "engine.store" probe
    else probe ()

let store_publish t tag key text =
  match t.store with
  | None -> ()
  | Some s -> Store.Disk.put s ~kind:tag key text

let pipeline_for t base src : Pipeline.t =
  match
    Cache.find_or_add t.cache (pipeline_key base) (fun () ->
        E_pipeline
          (Pipeline.create ~options:{ Pipeline.use_sccp = t.options.use_sccp } src))
  with
  | E_pipeline p -> p
  | E_text _ | E_part _ | E_unit _ -> assert false

let pipeline t src = pipeline_for t (base_key t src) src

(* -- per-pass forcing with hit/miss accounting -- *)

let counters_of t pass = List.assq pass t.counters

let phase_metric = function
  | Pipeline.Parse -> "phase.parse"
  | Pipeline.Lower -> "phase.lower"
  | Pipeline.Ssa -> "phase.ssa"
  | Pipeline.Looptree -> "phase.looptree"
  | Pipeline.Sccp -> "phase.sccp"
  | Pipeline.Units -> "phase.units"
  | Pipeline.Unitclassify -> "phase.unit_classify"
  | Pipeline.Classify -> "phase.classify"
  | Pipeline.Trip -> "phase.trip"
  | Pipeline.Ranges -> "phase.range"
  | Pipeline.Depgraph -> "phase.deps"
  | Pipeline.VerifyIr -> "phase.verify_ir"
  | Pipeline.VerifyClass -> "phase.verify_class"
  | Pipeline.VerifyRanges -> "phase.verify_ranges"
  | Pipeline.VerifyTrans -> "phase.verify_trans"

(* The unit-artifact cache interface handed to the pipeline's unit
   walk. [Cache.find] (not [peek]) so reused artifacts stay warm in the
   LRU. *)
let unit_lookup t d =
  match Cache.find t.cache (unit_key d) with
  | Some (E_unit a) -> Some a
  | Some (E_pipeline _ | E_text _ | E_part _) | None -> None

let unit_store t d a = Cache.add t.cache (unit_key d) (E_unit a)

(* A Classify miss runs through the unit layer: probe the shared unit
   cache, analyze only the units that missed, merge, and count one
   Unitclassify hit/miss per nest unit — the per-unit incremental
   signal STATS and traces expose. The missing units always go through
   [Pool.fork_all]: inside a pool task they become stealable scheduler
   nodes on the calling worker's deque, on a coordinator they borrow
   [pool], and otherwise they run inline — so unit fan-out happens for
   batch items and single-file serve requests alike. *)
let classify_units ?pool t p : (Pipeline.unit_outcome list, string) result =
  let pool_run thunks =
    Array.map
      (function
        | Pool.Done a -> a
        | Pool.Timed_out _ ->
          (* Surface the subtask's expired budget as the enclosing
             task's own timeout, not an opaque failure. *)
          raise Pool.Timeout
        | Pool.Failed e -> failwith e)
      (Pool.fork_all ?pool thunks)
  in
  match
    Pipeline.classify_with_units ~pool_run ~lookup:(unit_lookup t)
      ~store:(unit_store t) p
  with
  | Error e -> Error e
  | Ok outcomes ->
    let c = counters_of t Pipeline.Unitclassify in
    List.iter
      (fun (o : Pipeline.unit_outcome) ->
        if o.Pipeline.u_hit then Atomic.incr c.p_hits
        else Atomic.incr c.p_misses;
        if Obs.Trace.enabled () then
          Obs.Trace.event ~cat:"engine"
            ~attrs:
              [ ("unit", Obs.Trace.Int o.Pipeline.u_index);
                ("loops", Obs.Trace.Str (String.concat "," o.Pipeline.u_loops));
                ("hit", Obs.Trace.Bool o.Pipeline.u_hit) ]
            "engine.unit")
      outcomes;
    Ok outcomes

(* Classify, with its hit/miss accounting, returning the per-unit
   outcomes (empty when the pass was already forced). *)
let classify_outcomes ?pool t p : (Pipeline.unit_outcome list, string) result =
  let c = counters_of t Pipeline.Classify in
  if Pipeline.forced p Pipeline.Classify then begin
    Atomic.incr c.p_hits;
    Ok []
  end
  else begin
    Atomic.incr c.p_misses;
    Pool.tick ();
    Obs.Prof.time t.metrics
      (phase_metric Pipeline.Classify)
      (fun () -> classify_units ?pool t p)
  end

(* Force one pass: a hit when the pipeline already holds its result
   (even a cached error), a miss — timed under the legacy phase metric,
   with a cooperative-timeout tick — when it must run. Classify routes
   through the unit layer. *)
let ensure ?pool t p pass : (unit, string) result =
  match pass with
  | Pipeline.Classify -> Result.map ignore (classify_outcomes ?pool t p)
  | _ ->
    let c = counters_of t pass in
    if Pipeline.forced p pass then begin
      Atomic.incr c.p_hits;
      Ok ()
    end
    else begin
      Atomic.incr c.p_misses;
      Pool.tick ();
      Obs.Prof.time t.metrics (phase_metric pass) (fun () ->
          Pipeline.force p pass)
    end

let rec ensure_chain ?pool t p = function
  | [] -> Ok ()
  | pass :: rest -> (
    match ensure ?pool t p pass with
    | Ok () -> ensure_chain ?pool t p rest
    | Error e -> Error e)

(* Lower is absent from every chain but the check chain: nothing else
   needs the pristine pre-SSA CFG. *)
let classify_chain = Pipeline.[ Parse; Ssa; Looptree; Sccp; Units; Classify ]
let trip_chain = classify_chain @ [ Pipeline.Trip ]
let ranges_chain = classify_chain @ [ Pipeline.Ranges ]

let analyze ?pool t src : (Analysis.Driver.t, string) result =
  Metrics.incr (Metrics.counter t.metrics "requests.analyze");
  let p = pipeline t src in
  match ensure_chain ?pool t p classify_chain with
  | Error e -> Error e
  | Ok () -> (
    match Pipeline.promoted p with
    | Ok a -> Ok (Analysis.Driver.of_analysis a)
    | Error e -> Error e)

(* -- the dependence report (the service layer's own pass) -- *)

let deps_text ?pool t p : (string, string) result =
  let chain = if t.options.use_ranges then ranges_chain else classify_chain in
  match ensure_chain ?pool t p chain with
  | Error e -> Error e
  | Ok () -> (
    match Pipeline.promoted p with
    | Error e -> Error e
    | Ok a ->
      let cd =
        match Pipeline.digest p Pipeline.Classify with
        | Some d -> d
        | None -> assert false (* classify just succeeded *)
      in
      (* Range sharpening changes the report, so the ranges digest joins
         the key: a source that classifies identically but ranges
         differently (it cannot today — ranges derive from classify —
         but schema honesty is cheap) never shares the text. *)
      let ranges =
        if t.options.use_ranges then
          match Pipeline.ranges p with Ok r -> Some r | Error _ -> None
        else None
      in
      let key =
        match (ranges, Pipeline.digest p Pipeline.Ranges) with
        | Some _, Some rd -> Digest.feed_string (deps_key cd) (Digest.to_hex rd)
        | _ -> deps_key cd
      in
      let c = counters_of t Pipeline.Depgraph in
      let computed = ref false in
      let entry =
        Cache.find_or_add t.cache key (fun () ->
            computed := true;
            Pool.tick ();
            Obs.Prof.time t.metrics "phase.deps" (fun () ->
                let d = Analysis.Driver.of_analysis a in
                let g = Dependence.Dep_graph.build ?ranges d in
                E_text
                  (if g = [] then "no dependences\n"
                   else Dependence.Dep_graph.to_string d g)))
      in
      if !computed then Atomic.incr c.p_misses else Atomic.incr c.p_hits;
      (match entry with
       | E_text text ->
         Pipeline.note p Pipeline.Depgraph (Digest.of_strings [ text ]);
         Ok text
       | E_pipeline _ | E_part _ | E_unit _ -> assert false))

(* -- checked mode: the three verify passes (lib/verify) --

   Each part is cached on its own key, derived from the digests of the
   passes it actually reads — the structural part from Lower + Ssa (this
   is the consumer the Lower pass never had), the oracle from Classify
   plus the iteration bound, the transform validators from the source
   digest (they re-lower their own fresh copies, and their footprints
   depend on the program text, not on what it classified to). Completed
   parts are recorded on the pipeline with [Pipeline.note], so `ivtool
   passes` and STATS show checked mode like any other pass. *)

let verify_key tag digests =
  List.fold_left
    (fun acc d -> Digest.feed_string acc (Digest.to_hex d))
    (Digest.of_strings [ tag ]) digests

let verify_ir_key p =
  match (Pipeline.digest p Pipeline.Lower, Pipeline.digest p Pipeline.Ssa) with
  | Some dl, Some ds -> Some (verify_key "part.verify_ir" [ dl; ds ])
  | _ -> None

let verify_class_key t p =
  match Pipeline.digest p Pipeline.Classify with
  | Some dc ->
    Some (Digest.feed_int (verify_key "part.verify_class" [ dc ]) t.options.check_iters)
  | None -> None

let verify_trans_key base = Digest.feed_string base "part.verify_trans"

let verify_ranges_key t p =
  match
    (Pipeline.digest p Pipeline.Classify, Pipeline.digest p Pipeline.Ranges)
  with
  | Some dc, Some dr ->
    Some
      (Digest.feed_int
         (verify_key "part.verify_ranges" [ dc; dr ])
         t.options.check_iters)
  | _ -> None

(* Force one verify pass through the part cache, with the same hit/miss
   accounting, timeout tick and phase timing as any other pass. *)
let ensure_part t p pass key compute : Verify.Check.part =
  let c = counters_of t pass in
  let computed = ref false in
  let entry =
    Cache.find_or_add t.cache key (fun () ->
        computed := true;
        Pool.tick ();
        Obs.Prof.time t.metrics (phase_metric pass) (fun () -> E_part (compute ())))
  in
  if !computed then Atomic.incr c.p_misses else Atomic.incr c.p_hits;
  match entry with
  | E_part part ->
    Pipeline.note p pass (Digest.of_strings [ Verify.Check.part_to_text part ]);
    part
  | E_pipeline _ | E_text _ | E_unit _ -> assert false

(* The check chain forces Lower (unlike every other artifact): the
   structural verifier is the lowered CFG's consumer. *)
let check_chain = Pipeline.[ Parse; Lower; Ssa; Looptree; Sccp; Units; Classify ]

let check_parts ?pool t base p : (Verify.Check.report, string) result =
  match ensure_chain ?pool t p check_chain with
  | Error e -> Error e
  | Ok () ->
    let get = function Ok v -> v | Error _ -> assert false (* chain forced *) in
    let prog = get (Pipeline.parse p) in
    let lower = get (Pipeline.lower p) in
    let ssa = get (Pipeline.ssa p) in
    let a = get (Pipeline.promoted p) in
    let structural =
      match verify_ir_key p with
      | Some key ->
        ensure_part t p Pipeline.VerifyIr key (fun () ->
            Verify.Check.structural_part ~lower ssa)
      | None -> Verify.Check.structural_part ~lower ssa
    in
    (* A structurally broken program cannot be meaningfully interpreted
       or transformed; report the structural findings alone. *)
    if List.exists Ir.Diag.is_error structural.Verify.Check.diags then
      Ok { Verify.Check.parts = [ structural ] }
    else begin
      let d = Analysis.Driver.of_analysis a in
      let oracle =
        match verify_class_key t p with
        | Some key ->
          ensure_part t p Pipeline.VerifyClass key (fun () ->
              Verify.Check.oracle_part ~iters:t.options.check_iters d)
        | None -> Verify.Check.oracle_part ~iters:t.options.check_iters d
      in
      let ranges_part =
        if not t.options.use_ranges then []
        else begin
          match ensure ?pool t p Pipeline.Ranges with
          | Error _ -> []
          | Ok () -> (
            match Pipeline.ranges p with
            | Error _ -> []
            | Ok r ->
              let part =
                match verify_ranges_key t p with
                | Some key ->
                  ensure_part t p Pipeline.VerifyRanges key (fun () ->
                      Verify.Check.ranges_part ~iters:t.options.check_iters d r)
                | None ->
                  Verify.Check.ranges_part ~iters:t.options.check_iters d r
              in
              [ part ])
        end
      in
      let trans =
        ensure_part t p Pipeline.VerifyTrans (verify_trans_key base) (fun () ->
            Verify.Check.transform_part prog)
      in
      Ok { Verify.Check.parts = [ structural; oracle ] @ ranges_part @ [ trans ] }
    end

(* [check t src] is the structured report (the CLI's `--check` and
   `ivtool check` read it); the rendered artifact below serves batch and
   the CHECK verb. *)
let check t src : (Verify.Check.report, string) result =
  Metrics.incr (Metrics.counter t.metrics "requests.check");
  let base = base_key t src in
  check_parts t base (pipeline_for t base src)

(* -- rendered artifacts -- *)

let final_pass = function
  | Classify -> Pipeline.Classify
  | Trip -> Pipeline.Trip
  | Deps -> Pipeline.Depgraph
  | Check -> Pipeline.VerifyTrans
  | Ranges -> Pipeline.Ranges

(* The three-step read path: memory (a forced pipeline, or the rendered
   text an earlier disk hit promoted into the LRU), then the disk store,
   then compute — publishing the fresh rendering back to the store so
   the next process starts warm. *)
let render ?pool t artifact src : (string, string) result =
  let tag = artifact_to_string artifact in
  Metrics.incr (Metrics.counter t.metrics ("requests." ^ tag));
  let base = base_key t src in
  let tier = tier_of t artifact in
  let rkey = render_key t base artifact in
  let cache_event hit tier_name =
    if Obs.Trace.enabled () then
      Obs.Trace.event ~cat:"engine"
        ~attrs:
          [ ("artifact", Obs.Trace.Str tag);
            ("hit", Obs.Trace.Bool hit);
            ("tier", Obs.Trace.Str tier_name) ]
        "engine.cache"
  in
  (* Promoted rendered text exists only when a store is attached; keep
     the store-less engine byte-for-byte on its historical path. *)
  let promoted =
    if t.store = None then None
    else
      match Cache.find t.cache rkey with
      | Some (E_text text) -> Some text
      | Some (E_pipeline _ | E_part _ | E_unit _) | None -> None
  in
  match promoted with
  | Some text ->
    Atomic.incr tier.a_mem;
    cache_event true "memory";
    Ok text
  | None -> (
    let p = pipeline_for t base src in
    let hit = Pipeline.forced p (final_pass artifact) in
    let compute () =
      match artifact with
      | Classify -> (
        match ensure_chain ?pool t p classify_chain with
        | Error e -> Error e
        | Ok () -> Pipeline.report p)
      | Trip -> (
        match ensure_chain ?pool t p trip_chain with
        | Error e -> Error e
        | Ok () -> Pipeline.trip_report p)
      | Deps -> deps_text ?pool t p
      | Check -> Result.map Verify.Check.to_text (check_parts ?pool t base p)
      | Ranges -> (
        match ensure_chain ?pool t p ranges_chain with
        | Error e -> Error e
        | Ok () -> Pipeline.range_report p)
    in
    if hit then begin
      (* The pipeline already holds every pass the artifact needs;
         "compute" only re-renders it. *)
      Atomic.incr tier.a_mem;
      cache_event true "memory";
      compute ()
    end
    else
      match store_probe t tag rkey with
      | Some text ->
        Atomic.incr tier.a_disk;
        (* Promote: the next request for this artifact is a memory hit
           even though no pipeline pass ever ran in this process. *)
        Cache.add t.cache rkey (E_text text);
        mark_store_served t base (final_pass artifact);
        cache_event true "disk";
        Ok text
      | None ->
        let result =
          if not (Obs.Trace.enabled ()) then compute ()
          else
            Obs.Trace.with_span ~cat:"engine"
              ~attrs:[ ("artifact", Obs.Trace.Str tag) ]
              "engine.compute" compute
        in
        Atomic.incr tier.a_computed;
        (match result with
         | Ok text -> store_publish t tag rkey text
         | Error _ -> ());
        cache_event false "computed";
        result)

let classify t src = render t Classify src
let deps t src = render t Deps src
let trip t src = render t Trip src
let ranges t src = render t Ranges src

(* -- incremental surfaces -- *)

(* Shared by diff and reanalyze: classify [src] through the unit layer
   and hand back the per-unit outcomes alongside the pipeline. *)
let classify_with_outcomes ?pool t src =
  let p = pipeline t src in
  match ensure_chain ?pool t p Pipeline.[ Parse; Ssa; Looptree; Sccp; Units ] with
  | Error e -> Error e
  | Ok () -> Result.map (fun outcomes -> (p, outcomes)) (classify_outcomes ?pool t p)

(* [diff t old_src new_src] analyzes OLD (warming the unit cache), then
   NEW through it, and reports per unit whether its artifact was reused
   and why. *)
let diff ?pool t old_src new_src : (string, string) result =
  Metrics.incr (Metrics.counter t.metrics "requests.diff");
  (* Warm OLD through the unit layer directly (not [render]): a disk
     store could serve OLD's rendered report without ever populating
     the unit cache, and diff's whole point is unit-level reuse. *)
  match classify_with_outcomes ?pool t old_src with
  | Error e -> Error e
  | Ok _ -> (
    let old_hex =
      match Pipeline.units (pipeline t old_src) with
      | Ok us -> List.map (fun u -> Digest.to_hex u.Pipeline.udigest) us
      | Error _ -> []
    in
    match classify_with_outcomes ?pool t new_src with
    | Error e -> Error e
    | Ok (p_new, outcomes) -> (
      match Pipeline.units p_new with
      | Error e -> Error e
      | Ok infos ->
        let buf = Buffer.create 256 in
        let reused = ref 0 and reran = ref 0 in
        let lines =
          List.map
            (fun (i : Pipeline.unit_info) ->
              let idx = i.Pipeline.region.Ir.Region.index in
              let kind =
                Ir.Region.kind_to_string i.Pipeline.region.Ir.Region.kind
              in
              let loops =
                match
                  List.find_opt
                    (fun o -> o.Pipeline.u_index = idx)
                    outcomes
                with
                | Some o -> o.Pipeline.u_loops
                | None -> []
              in
              let unchanged =
                List.mem (Digest.to_hex i.Pipeline.udigest) old_hex
              in
              let status =
                if i.Pipeline.uroots = [] then
                  (* no loop work to reuse either way *)
                  if unchanged then "unchanged (no loop work)"
                  else "changed (no loop work)"
                else
                  match
                    List.find_opt
                      (fun o -> o.Pipeline.u_index = idx)
                      outcomes
                  with
                  | Some o when o.Pipeline.u_hit ->
                    incr reused;
                    "reused (unit cache hit)"
                  | Some _ ->
                    incr reran;
                    if unchanged then "reanalyzed (evicted)"
                    else "reanalyzed (changed)"
                  | None ->
                    (* NEW was already classified before this diff *)
                    if unchanged then begin
                      incr reused;
                      "reused (pipeline cached)"
                    end
                    else begin
                      incr reran;
                      "changed (pipeline cached)"
                    end
              in
              Printf.sprintf "unit %-3d %-8s %-12s %s\n" idx kind
                (match loops with [] -> "-" | l -> String.concat "," l)
                status)
            infos
        in
        Buffer.add_string buf
          (Printf.sprintf "diff: %d units, %d reused, %d reanalyzed\n"
             (List.length infos) !reused !reran);
        List.iter (Buffer.add_string buf) lines;
        Ok (Buffer.contents buf)))

(* [reanalyze t src] — the serve-mode REANALYZE verb: classify through
   the unit layer and prepend a reuse summary to the classification
   report. *)
let reanalyze ?pool t src : (string, string) result =
  Metrics.incr (Metrics.counter t.metrics "requests.reanalyze");
  match classify_with_outcomes ?pool t src with
  | Error e -> Error e
  | Ok (p, outcomes) -> (
    match Pipeline.report p with
    | Error e -> Error e
    | Ok report ->
      let summary =
        match outcomes with
        | [] -> "reanalyze: pipeline cached\n"
        | os ->
          let hits = List.length (List.filter (fun o -> o.Pipeline.u_hit) os) in
          Printf.sprintf "reanalyze: %d units, %d reused, %d computed\n"
            (List.length os) hits
            (List.length os - hits)
      in
      Ok (summary ^ report))

let invalidate t src =
  let base = base_key t src in
  let pk = pipeline_key base in
  (* Drop the dependence report first: its key derives from the classify
     digest, reachable only while the pipeline entry is alive. *)
  let removed_derived =
    match Cache.peek t.cache pk with
    | Some (E_pipeline p) ->
      let drop = function
        | Some key -> if Cache.invalidate t.cache key then 1 else 0
        | None -> 0
      in
      drop
        (match Pipeline.digest p Pipeline.Classify with
         | Some cd -> (
           let base_deps = deps_key cd in
           match Pipeline.digest p Pipeline.Ranges with
           | Some rd when t.options.use_ranges ->
             Some (Digest.feed_string base_deps (Digest.to_hex rd))
           | _ -> Some base_deps)
         | None -> None)
      + drop (verify_ir_key p)
      + drop (verify_class_key t p)
      + drop (verify_ranges_key t p)
      + drop
          (if Pipeline.forced p Pipeline.VerifyTrans then
             Some (verify_trans_key base)
           else None)
    | _ -> 0
  in
  removed_derived + (if Cache.invalidate t.cache pk then 1 else 0)

let clear t =
  Cache.clear t.cache;
  Cache.reset_stats t.cache;
  Metrics.reset t.metrics;
  List.iter
    (fun (_, c) ->
      Atomic.set c.p_hits 0;
      Atomic.set c.p_misses 0)
    t.counters;
  List.iter
    (fun (_, c) ->
      Atomic.set c.a_mem 0;
      Atomic.set c.a_disk 0;
      Atomic.set c.a_computed 0)
    t.tiers;
  Mutex.lock t.prov_lock;
  Hashtbl.reset t.store_served;
  Mutex.unlock t.prov_lock

(* -- introspection -- *)

let pass_stats t =
  List.map
    (fun (p, c) -> (Pipeline.name p, Atomic.get c.p_hits, Atomic.get c.p_misses))
    t.counters

let artifact_stats t =
  List.map
    (fun (a, c) ->
      (a, Atomic.get c.a_mem, Atomic.get c.a_disk, Atomic.get c.a_computed))
    t.tiers

let rate hits total =
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let stats_report t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "cache: %s\n" (Cache.stats_to_string (cache_stats t)));
  (match t.store with
   | None -> ()
   | Some s ->
     Buffer.add_string buf
       (Printf.sprintf "store: %s\n"
          (Store.Disk.stats_to_string (Store.Disk.stats s))));
  (* Per artifact kind: which tier served it, and the overall hit rate
     (memory + disk over everything) — the one line that proves a
     restart started warm. *)
  List.iter
    (fun (a, mem, disk, computed) ->
      let total = mem + disk + computed in
      if total > 0 then
        Buffer.add_string buf
          (Printf.sprintf "artifact.%s: mem=%d disk=%d computed=%d hit_rate=%.2f\n"
             (artifact_to_string a) mem disk computed
             (rate (mem + disk) total)))
    (artifact_stats t);
  List.iter
    (fun (name, h, m) ->
      if h + m > 0 then
        Buffer.add_string buf
          (Printf.sprintf "pass.%s: hits=%d misses=%d hit_rate=%.2f\n" name h m
             (rate h (h + m))))
    (pass_stats t);
  Buffer.add_string buf (Metrics.dump t.metrics);
  Buffer.add_string buf "\n";
  Buffer.contents buf

(* The Prometheus exposition of everything this engine knows: the
   engine's own tier/pass accounting (atomics + cache/store structs,
   which live outside the Instrument registry) rendered as Export_prom
   rows, a current-process GC snapshot, and then the whole metrics
   registry (phase timings + GC deltas, pool per-domain telemetry,
   request counters). Backing for serve [METRICS] and `ivtool
   metrics`. *)
let prometheus_report t =
  let open Obs.Export_prom in
  let c = float_of_int in
  let cs = cache_stats t in
  let cache_rows =
    [
      row "cache.hits" (Counter (c cs.Cache.hits)) ~help:"memory LRU lookups served";
      row "cache.misses" (Counter (c cs.Cache.misses));
      row "cache.evictions" (Counter (c cs.Cache.evictions));
      row "cache.insertions" (Counter (c cs.Cache.insertions));
      row "cache.invalidations" (Counter (c cs.Cache.invalidations));
      row "cache.size" (Gauge (c cs.Cache.size)) ~help:"entries resident in the memory LRU";
      row "cache.capacity" (Gauge (c cs.Cache.capacity));
    ]
  in
  let store_rows =
    match t.store with
    | None -> []
    | Some s ->
      let ss = Store.Disk.stats s in
      let entries, bytes = Store.Disk.usage s in
      [
        row "store.hits" (Counter (c ss.Store.Disk.hits)) ~help:"disk store reads that validated";
        row "store.misses" (Counter (c ss.Store.Disk.misses));
        row "store.puts" (Counter (c ss.Store.Disk.puts));
        row "store.put_errors" (Counter (c ss.Store.Disk.put_errors));
        row "store.rejects_corrupt" (Counter (c ss.Store.Disk.rejects_corrupt));
        row "store.rejects_version" (Counter (c ss.Store.Disk.rejects_version));
        row "store.rejects_foreign" (Counter (c ss.Store.Disk.rejects_foreign));
        row "store.entries" (Gauge (c entries)) ~help:"entries on disk";
        row "store.bytes" (Gauge (c bytes)) ~help:"payload bytes on disk";
      ]
  in
  let pass_rows =
    List.concat_map
      (fun (name, hits, misses) ->
        let labels = [ ("pass", name) ] in
        [
          row (Metrics.labeled "pass.hits" labels) (Counter (c hits));
          row (Metrics.labeled "pass.misses" labels) (Counter (c misses));
        ])
      (pass_stats t)
  in
  let tier_rows =
    List.concat_map
      (fun (a, mem, disk, computed) ->
        let kind = artifact_to_string a in
        List.map
          (fun (tier, v) ->
            row
              (Metrics.labeled "artifact.served" [ ("artifact", kind); ("tier", tier) ])
              (Counter (c v)))
          [ ("mem", mem); ("disk", disk); ("computed", computed) ])
      (artifact_stats t)
  in
  let gc = Obs.Prof.sample () in
  let gc_rows =
    [
      row "gc.process.minor_words" (Counter gc.Obs.Prof.minor_words)
        ~help:"words allocated on this domain's minor heap since start";
      row "gc.process.promoted_words" (Counter gc.Obs.Prof.promoted_words);
      row "gc.process.major_words" (Counter gc.Obs.Prof.major_words);
      row "gc.process.minor_collections" (Counter (c gc.Obs.Prof.minor_collections));
      row "gc.process.major_collections" (Counter (c gc.Obs.Prof.major_collections));
      row "gc.process.heap_words" (Gauge (c gc.Obs.Prof.heap_words));
    ]
  in
  render_rows
    (cache_rows @ store_rows @ pass_rows @ tier_rows @ gc_rows
    @ of_instruments t.metrics)

let passes_report t src =
  let base = base_key t src in
  let p = pipeline_for t base src in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "source %s  (sccp=%b)\n"
       (Digest.to_hex (Pipeline.source_digest p))
       t.options.use_sccp);
  List.iter
    (fun pass ->
      let forced = Pipeline.forced p pass in
      let status = if forced then "forced" else "lazy" in
      (* Provenance: [store] when the pass's artifact was satisfied from
         the disk store and the pass itself never ran here; otherwise
         who would compute it. *)
      let owner =
        if (not forced) && was_store_served t base pass then "store"
        else if Pipeline.engine_forced pass then "engine"
        else "pipeline"
      in
      let digest =
        match Pipeline.digest p pass with
        | Some d -> Digest.to_hex d
        | None -> "-"
      in
      let inputs =
        match Pipeline.inputs pass with
        | [] -> "(source)"
        | l -> String.concat ", " (List.map Pipeline.name l)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-14s %-6s %-8s %-16s <- %s\n" (Pipeline.name pass)
           status owner digest inputs))
    Pipeline.all;
  Buffer.contents buf
