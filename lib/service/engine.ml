(* Content-addressed memoization of the staged analysis pipeline.

   The engine keys its cache per *pass*, not per monolithic analysis:
   each source text maps (through one digest, computed once per
   request) to an Analysis.Pipeline instance whose stages force lazily,
   so a trip-count request never runs range analysis or dependence
   testing. The dependence report — the one artifact computed above
   lib/analysis — and the verify parts are properties of the program,
   so they are cached under keys derived from that same source digest:
   they survive pipeline eviction, and no two programs share one. *)

module Fnv = Hash.Fnv
module Pipeline = Analysis.Pipeline
module Instrument = Obs.Instrument

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

(* One cache holds pipeline instances, rendered reports, verify-report
   parts and per-unit analysis artifacts; the key derivation keeps them
   apart. A section promoted from the disk store is an [E_stored]; its
   flag holds until the section's first serve, which counts as a disk
   serve. *)
type entry =
  | E_pipeline of Pipeline.t
  | E_text of string
  | E_stored of (string * bool Atomic.t)
  | E_part of Verify.Check.part
  | E_unit of Pipeline.unit_artifact

let all_artifacts = [ Classify; Deps; Trip; Check; Ranges ]

(* The engine's accounting lives in its metrics registry, under the
   names METRICS exports: [pass.hits{pass=…}] / [pass.misses{pass=…}]
   per pipeline pass, and [artifact.served{artifact=…,tier=…}] per
   artifact kind and the tier that served it — the memory tier (a
   forced pipeline or a promoted text entry), the disk store, or a fresh
   computation. *)
let pass_metric kind pass =
  Instrument.labeled ("pass." ^ kind) [ ("pass", Pipeline.name pass) ]

type tier = Mem | Disk | Computed

let tiers = [ (Mem, "mem"); (Disk, "disk"); (Computed, "computed") ]

let served_metric a tier =
  Instrument.labeled "artifact.served"
    [ ("artifact", artifact_to_string a); ("tier", List.assq tier tiers) ]

type t = {
  options : options;
  cache : (Fnv.t, entry) Cache.t;
  metrics : Instrument.t;
  (* Handles into [metrics], resolved once by [create] (every pass and
     tier up front, so zero rows export too): per pass its (hits,
     misses) pair, per artifact kind one counter per tier. *)
  passes : (Pipeline.pass * (Instrument.counter * Instrument.counter)) list;
  served : (artifact * (tier * Instrument.counter) list) list;
  mutable store : Store.Disk.t option;
  prov_lock : Mutex.t;
  (* (base key, pass) pairs whose artifact was served from the disk
     store in this process — the `store` owner tier of `ivtool
     passes`. *)
  store_served : (Fnv.t * Pipeline.pass, unit) Hashtbl.t;
  (* Per store entry key (one per source), the sections this process
     knows the attached store holds: read from it or published. A key
     present here is never read from the store again. *)
  on_disk : (Fnv.t, artifact list) Hashtbl.t;
}

let create ?(capacity = 256) ?(options = default_options) ?store () =
  let metrics = Instrument.create () in
  let counter name = Instrument.counter metrics name in
  {
    options;
    cache = Cache.create ~capacity ();
    metrics;
    passes =
      List.map
        (fun p -> (p, (counter (pass_metric "hits" p), counter (pass_metric "misses" p))))
        Pipeline.all;
    served =
      List.map
        (fun a -> (a, List.map (fun (tier, _) -> (tier, counter (served_metric a tier))) tiers))
        all_artifacts;
    store;
    prov_lock = Mutex.create ();
    store_served = Hashtbl.create 16;
    on_disk = Hashtbl.create 16;
  }

let options t = t.options
let metrics t = t.metrics
let cache_stats t = Cache.stats t.cache
let store t = t.store
let set_store t s =
  t.store <- s;
  Mutex.protect t.prov_lock (fun () -> Hashtbl.reset t.on_disk)

(* -- keys: the source text is digested exactly once per request; every
   key below derives from that digest -- *)

let base_key t src = Fnv.feed_bool (Fnv.of_strings [ src ]) t.options.use_sccp
let pipeline_key base = Fnv.feed_string base "pipeline"
let deps_key base = Fnv.feed_string base "text.deps"

(* Unit artifacts key off the unit digest alone (not the source): two
   sources sharing an unchanged loop nest share its artifact. *)
let unit_key udigest = Fnv.feed_string udigest "unit.artifact"

(* -- the disk tier (lib/store) --

   The store persists *rendered* artifacts, one entry per source: a
   table of (artifact, report text) sections keyed by the source digest,
   the store schema and every option a report depends on. (Structured
   unit artifacts stay memory-only: they embed interned identifiers
   whose ids are process-local, so marshaling them across processes
   would be unsound. The rendered text is the deterministic function of
   the digest that survives.) [store_schema] versions the *content* of
   the entries — bump it whenever a renderer's output format or the
   entry layout changes, so a shared fleet store never serves bytes
   from an older format. *)

let store_schema = 3
let entry_kind = "source"

(* The check report depends on the oracle's iteration bound, and the
   deps and check reports on whether range sharpening is on: two
   processes that differ in either must not share an entry. *)
let entry_key t base =
  Fnv.feed_bool
    (Fnv.feed_int
       (Fnv.feed_int (Fnv.feed_string base "store.entry") store_schema)
       t.options.check_iters)
    t.options.use_ranges

(* Where a section's text lives in the LRU. *)
let render_key ekey artifact = Fnv.feed_string ekey ("render." ^ artifact_to_string artifact)

let count_served t artifact tier =
  Instrument.incr (List.assq tier (List.assq artifact t.served))

let mark_store_served t base pass =
  Mutex.protect t.prov_lock (fun () -> Hashtbl.replace t.store_served (base, pass) ())

let was_store_served t base pass =
  Mutex.protect t.prov_lock (fun () -> Hashtbl.mem t.store_served (base, pass))

let known_on_disk t ekey =
  Mutex.protect t.prov_lock (fun () -> Hashtbl.find_opt t.on_disk ekey)

(* Read the source's entry, once per process, and promote each of its
   sections into the LRU as a not-yet-served [E_stored]. Returns the
   promoted sections; none when the entry was read or published before,
   or is absent or rejected. *)
let load_entry t s ekey =
  if known_on_disk t ekey <> None then []
  else
    let probe () = Store.Disk.get_table s ~kind:entry_kind ekey in
    let table =
      Option.value ~default:[]
        (if Obs.Trace.enabled () then Obs.Trace.with_span ~cat:"engine" "engine.store" probe
         else probe ())
    in
    let sections =
      List.filter_map
        (fun a ->
          Option.map
            (fun text -> (a, (text, Atomic.make true)))
            (List.assoc_opt (artifact_to_string a) table))
        all_artifacts
    in
    Mutex.protect t.prov_lock (fun () ->
        Hashtbl.replace t.on_disk ekey (List.map fst sections));
    List.iter (fun (a, v) -> Cache.add t.cache (render_key ekey a) (E_stored v)) sections;
    sections

(* Publish the source's entry when [fresh] (this request's renders)
   adds a section the store does not hold yet. The entry is the union
   of [fresh] and the sections already known there, whose texts come
   from the LRU; one evicted from it is left out, and a later process
   recomputes it. *)
let publish t ekey fresh =
  match t.store with
  | None -> ()
  | Some s ->
    let known = Option.value ~default:[] (known_on_disk t ekey) in
    if List.exists (fun (a, _) -> not (List.mem a known)) fresh then begin
      let held a =
        match Cache.peek t.cache (render_key ekey a) with
        | Some (E_text text | E_stored (text, _)) -> Some text
        | Some (E_pipeline _ | E_part _ | E_unit _) | None -> None
      in
      let sections =
        List.filter_map
          (fun a ->
            match List.assq_opt a fresh with
            | Some text -> Some (a, text)
            | None when List.mem a known -> Option.map (fun text -> (a, text)) (held a)
            | None -> None)
          all_artifacts
      in
      Store.Disk.put_table s ~kind:entry_kind ekey
        (List.map (fun (a, text) -> (artifact_to_string a, text)) sections);
      Mutex.protect t.prov_lock (fun () ->
          Hashtbl.replace t.on_disk ekey (List.map fst sections))
    end

let pipeline_for t base src : Pipeline.t =
  match
    Cache.find_or_add t.cache (pipeline_key base) (fun () ->
        E_pipeline
          (Pipeline.create ~options:{ Pipeline.use_sccp = t.options.use_sccp } src))
  with
  | E_pipeline p -> p
  | E_text _ | E_stored _ | E_part _ | E_unit _ -> assert false

let pipeline t src = pipeline_for t (base_key t src) src

(* -- per-pass forcing with hit/miss accounting -- *)

let count_pass t pass ~hit =
  let hits, misses = List.assq pass t.passes in
  Instrument.incr (if hit then hits else misses)

(* A pass miss is timed under "phase.<pass>". The dependence report is
   timed as "phase.deps" by [deps_text] itself, never through here. *)
let phase_metric pass = "phase." ^ Pipeline.name pass

(* The unit-artifact cache interface handed to the pipeline's unit
   walk. [Cache.find] (not [peek]) so reused artifacts stay warm in the
   LRU. *)
let unit_lookup t d =
  match Cache.find t.cache (unit_key d) with
  | Some (E_unit a) -> Some a
  | Some (E_pipeline _ | E_text _ | E_stored _ | E_part _) | None -> None

let unit_store t d a = Cache.add t.cache (unit_key d) (E_unit a)

(* A Classify miss runs through the unit layer: probe the shared unit
   cache, analyze only the units that missed, merge, and count one
   Unitclassify hit/miss per unit — the per-unit incremental
   signal STATS and traces expose. The missing units always go through
   [Pool.fork_all]: inside a pool task they become a batch on that
   task's pool, on a coordinator a batch on [pool], and otherwise a
   batch the calling domain runs alone — so unit fan-out happens for
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
    (* Hits that had to be mapped from another program's numbering.
       Registered on the first one, so engines that never relocate
       export no row. *)
    (match List.filter (fun o -> o.Pipeline.u_relocated) outcomes with
     | [] -> ()
     | relocated ->
       Instrument.incr ~by:(List.length relocated)
         (Instrument.counter t.metrics "unit.relocations"));
    List.iter
      (fun (o : Pipeline.unit_outcome) ->
        count_pass t Pipeline.Unitclassify ~hit:o.Pipeline.u_hit;
        if Obs.Trace.enabled () then
          Obs.Trace.event ~cat:"engine"
            ~attrs:
              [ ("unit", Obs.Trace.Int o.Pipeline.u_index);
                ("loop", Obs.Trace.Str o.Pipeline.u_loop);
                ("hit", Obs.Trace.Bool o.Pipeline.u_hit);
                ("relocated", Obs.Trace.Bool o.Pipeline.u_relocated) ]
            "engine.unit")
      outcomes;
    Ok outcomes

(* Classify, with its hit/miss accounting, returning the per-unit
   outcomes (empty when the pass was already forced). *)
let classify_outcomes ?pool t p : (Pipeline.unit_outcome list, string) result =
  let hit = Pipeline.forced p Pipeline.Classify in
  count_pass t Pipeline.Classify ~hit;
  if hit then Ok []
  else begin
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
    let hit = Pipeline.forced p pass in
    count_pass t pass ~hit;
    if hit then Ok ()
    else begin
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

(* Force a pass the engine computes itself (the dependence report and
   the verify parts) through the memory cache under [key]: a miss runs
   [compute] with a timeout tick, timed under [metric]; either way the
   pass is counted and recorded on the pipeline with [Pipeline.note]. *)
let cached_pass t p pass ~metric key compute =
  let computed = ref false in
  let entry =
    Cache.find_or_add t.cache key (fun () ->
        computed := true;
        Pool.tick ();
        Obs.Prof.time t.metrics metric compute)
  in
  count_pass t pass ~hit:(not !computed);
  Pipeline.note p pass;
  entry

(* Lower is absent from every chain but the check chain: nothing else
   needs the pristine pre-SSA CFG. *)
let classify_chain = Pipeline.[ Parse; Ssa; Looptree; Sccp; Units; Classify ]
let trip_chain = classify_chain @ [ Pipeline.Trip ]
let ranges_chain = classify_chain @ [ Pipeline.Ranges ]

let analyze ?pool t src : (Analysis.Pipeline.analysis, string) result =
  Instrument.incr (Instrument.counter t.metrics "requests.analyze");
  let p = pipeline t src in
  match ensure_chain ?pool t p classify_chain with
  | Error e -> Error e
  | Ok () -> Pipeline.promoted p

(* -- the dependence report (the service layer's own pass) -- *)

let deps_text ?pool t base p : (string, string) result =
  let chain = if t.options.use_ranges then ranges_chain else classify_chain in
  match ensure_chain ?pool t p chain with
  | Error e -> Error e
  | Ok () -> (
    match Pipeline.promoted p with
    | Error e -> Error e
    | Ok a -> (
      let ranges =
        if t.options.use_ranges then
          match Pipeline.ranges p with Ok r -> Some r | Error _ -> None
        else None
      in
      let render () =
        let g = Dependence.Dep_graph.build ?ranges a in
        E_text (if g = [] then "no dependences\n" else Dependence.Dep_graph.to_string a g)
      in
      let key = deps_key base in
      match cached_pass t p Pipeline.Depgraph ~metric:"phase.deps" key render with
      | E_text text -> Ok text
      | E_pipeline _ | E_stored _ | E_part _ | E_unit _ -> assert false))

(* -- checked mode: the four verify passes (lib/verify) --

   Each part is cached on its own key, derived from the source digest
   like every other artifact of the program (the two oracle parts also
   from the iteration bound). Completed parts are recorded on the
   pipeline with [Pipeline.note], so `ivtool passes` and STATS show
   checked mode like any other pass. *)

let verify_passes = Pipeline.[ VerifyIr; VerifyClass; VerifyRanges; VerifyTrans ]

let part_key t base pass =
  let k = Fnv.feed_string base ("part." ^ Pipeline.name pass) in
  match pass with
  | Pipeline.VerifyClass | Pipeline.VerifyRanges -> Fnv.feed_int k t.options.check_iters
  | _ -> k

(* Force one verify pass through the part cache, with the same hit/miss
   accounting, timeout tick and phase timing as any other pass. *)
let ensure_part t base p pass compute () : Verify.Check.part =
  let metric = phase_metric pass and key = part_key t base pass in
  match cached_pass t p pass ~metric key (fun () -> E_part (compute ())) with
  | E_part part -> part
  | E_pipeline _ | E_text _ | E_stored _ | E_unit _ -> assert false

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
    let iters = t.options.check_iters in
    let part = ensure_part t base p in
    let ranges () =
      if not t.options.use_ranges then None
      else
        match Result.bind (ensure ?pool t p Pipeline.Ranges) (fun () -> Pipeline.ranges p)
        with
        | Error _ -> None
        | Ok r ->
          Some
            (part Pipeline.VerifyRanges
               (fun () -> Verify.Check.oracle_part ~iters (Verify.Oracle.Ranges r) a)
               ())
    in
    Ok
      (Verify.Check.assemble
         ~structural:
           (part Pipeline.VerifyIr (fun () -> Verify.Check.structural_part ~lower ssa))
         ~oracle:
           (part Pipeline.VerifyClass (fun () ->
                Verify.Check.oracle_part ~iters Verify.Oracle.Classes a))
         ~ranges
         ~transforms:
           (part Pipeline.VerifyTrans (fun () -> Verify.Check.transform_part prog)))

(* [check t src] is the structured report (the CLI's `--check` and
   `ivtool check` read it); the rendered artifact below serves batch and
   the CHECK verb. *)
let check t src : (Verify.Check.report, string) result =
  Instrument.incr (Instrument.counter t.metrics "requests.check");
  let base = base_key t src in
  check_parts t base (pipeline_for t base src)

(* -- rendered artifacts -- *)

let final_pass = function
  | Classify -> Pipeline.Classify
  | Trip -> Pipeline.Trip
  | Deps -> Pipeline.Depgraph
  | Check -> Pipeline.VerifyTrans
  | Ranges -> Pipeline.Ranges

(* The three-step read path for one artifact: memory (a forced
   pipeline, or a section text held in the LRU), then the source's store
   entry, then compute. With a store attached every rendered text is
   held in the LRU under its render key, so a later republish of the
   entry can take it from there. *)
let render_one ?pool t base ekey artifact src : (string, string) result =
  let tag = artifact_to_string artifact in
  Instrument.incr (Instrument.counter t.metrics ("requests." ^ tag));
  let rkey = render_key ekey artifact in
  let served tier =
    count_served t artifact tier;
    if Obs.Trace.enabled () then
      Obs.Trace.event ~cat:"engine"
        ~attrs:
          [ ("artifact", Obs.Trace.Str tag);
            ("hit", Obs.Trace.Bool (tier <> Computed));
            ( "tier",
              Obs.Trace.Str
                (match tier with Mem -> "memory" | Disk -> "disk" | Computed -> "computed") ) ]
        "engine.cache"
  in
  (* A promoted section counts as a disk serve the first time only. *)
  let from_store (text, unserved) =
    if Atomic.exchange unserved false then begin
      served Disk;
      mark_store_served t base (final_pass artifact)
    end
    else served Mem;
    Ok text
  in
  let hold result =
    (match (t.store, result) with
     | Some _, Ok text -> Cache.add t.cache rkey (E_text text)
     | _ -> ());
    result
  in
  (* Held texts exist only when a store is attached; keep the store-less
     engine byte-for-byte on its historical path. *)
  let held = if t.store = None then None else Cache.find t.cache rkey in
  match held with
  | Some (E_text text) ->
    served Mem;
    Ok text
  | Some (E_stored v) -> from_store v
  | Some (E_pipeline _ | E_part _ | E_unit _) | None -> (
    let p = pipeline_for t base src in
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
      | Deps -> deps_text ?pool t base p
      | Check -> Result.map Verify.Check.to_text (check_parts ?pool t base p)
      | Ranges -> (
        match ensure_chain ?pool t p ranges_chain with
        | Error e -> Error e
        | Ok () -> Pipeline.range_report p)
    in
    if Pipeline.forced p (final_pass artifact) then begin
      (* The pipeline already holds every pass the artifact needs;
         "compute" only re-renders it. *)
      served Mem;
      hold (compute ())
    end
    else
      let stored =
        match t.store with
        | None -> None
        | Some s -> List.assq_opt artifact (load_entry t s ekey)
      in
      match stored with
      | Some v -> from_store v
      | None ->
        let result =
          if not (Obs.Trace.enabled ()) then compute ()
          else
            Obs.Trace.with_span ~cat:"engine"
              ~attrs:[ ("artifact", Obs.Trace.Str tag) ]
              "engine.compute" compute
        in
        served Computed;
        hold result)

(* Render [artifacts] in order (the first error stops the rest), then
   publish the source's store entry once, with every section rendered
   here. *)
let renders ?pool t artifacts src : (string list, string) result =
  let base = base_key t src in
  let ekey = entry_key t base in
  let rec go acc = function
    | [] -> (acc, None)
    | a :: rest -> (
      match render_one ?pool t base ekey a src with
      | Ok text -> go ((a, text) :: acc) rest
      | Error e -> (acc, Some e))
  in
  let rendered, failed = go [] artifacts in
  publish t ekey rendered;
  match failed with
  | Some e -> Error e
  | None -> Ok (List.rev_map snd rendered)

let render ?pool t artifact src =
  Result.map List.hd (renders ?pool t [ artifact ] src)

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
  Instrument.incr (Instrument.counter t.metrics "requests.diff");
  (* Warm OLD through the unit layer directly (not [render]): a disk
     store could serve OLD's rendered report without ever populating
     the unit cache, and diff's whole point is unit-level reuse. *)
  match classify_with_outcomes ?pool t old_src with
  | Error e -> Error e
  | Ok _ -> (
    let old_hex =
      match Pipeline.units (pipeline t old_src) with
      | Ok us -> List.map (fun u -> Fnv.to_hex u.Pipeline.udigest) us
      | Error _ -> []
    in
    match classify_with_outcomes ?pool t new_src with
    | Error e -> Error e
    | Ok (p_new, outcomes) -> (
      match (Pipeline.units p_new, Pipeline.looptree p_new) with
      | Error e, _ | _, Error e -> Error e
      | Ok infos, Ok loops ->
        let reused = ref 0 and reran = ref 0 in
        let lines =
          List.mapi
            (fun idx (i : Pipeline.unit_info) ->
              let unchanged = List.mem (Fnv.to_hex i.Pipeline.udigest) old_hex in
              let status =
                match List.find_opt (fun o -> o.Pipeline.u_index = idx) outcomes with
                | Some o when o.Pipeline.u_hit ->
                  incr reused;
                  if o.Pipeline.u_relocated then "reused (unit cache hit, relocated)"
                  else "reused (unit cache hit)"
                | Some _ ->
                  incr reran;
                  if unchanged then "reanalyzed (evicted)" else "reanalyzed (changed)"
                | None when unchanged ->
                  (* NEW was already classified before this diff *)
                  incr reused;
                  "reused (pipeline cached)"
                | None ->
                  incr reran;
                  "changed (pipeline cached)"
              in
              Printf.sprintf "unit %-3d %-12s %s\n" idx
                (Ir.Loops.loop loops i.Pipeline.uroot).Ir.Loops.name
                status)
            infos
        in
        Ok
          (String.concat ""
             (Printf.sprintf "diff: %d units, %d reused, %d reanalyzed\n" (List.length infos)
                !reused !reran
             :: lines))))

(* [reanalyze t src] — the serve-mode REANALYZE verb: classify through
   the unit layer and prepend a reuse summary to the classification
   report. *)
let reanalyze ?pool t src : (string, string) result =
  Instrument.incr (Instrument.counter t.metrics "requests.reanalyze");
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
  List.fold_left
    (fun n key -> if Cache.invalidate t.cache key then n + 1 else n)
    0
    (pipeline_key base :: deps_key base :: List.map (part_key t base) verify_passes)

let clear t =
  Cache.clear t.cache;
  Cache.reset_stats t.cache;
  Instrument.reset t.metrics;
  Mutex.protect t.prov_lock (fun () ->
      Hashtbl.reset t.store_served;
      Hashtbl.reset t.on_disk)

(* -- introspection -- *)

let pass_stats t =
  List.map
    (fun (p, (hits, misses)) ->
      (Pipeline.name p, Instrument.count hits, Instrument.count misses))
    t.passes

let artifact_stats t =
  List.map
    (fun (a, cs) ->
      let n tier = Instrument.count (List.assq tier cs) in
      (a, n Mem, n Disk, n Computed))
    t.served

let rate hits total =
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

(* The engine owns the [pass.*] and [artifact.*] families: STATS renders
   them as its own lines and dumps the rest of the registry after. *)
let is_accounting (name, _) =
  String.starts_with ~prefix:"pass." name || String.starts_with ~prefix:"artifact." name

let stats_report t =
  let accounting, rest = List.partition is_accounting (Instrument.snapshot t.metrics) in
  let count name =
    match List.assoc_opt name accounting with
    | Some (Instrument.V_counter n) -> n
    | _ -> 0
  in
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  line "cache: %s\n" (Cache.stats_to_string (cache_stats t));
  Option.iter
    (fun s -> line "store: %s\n" (Store.Disk.stats_to_string (Store.Disk.stats s)))
    t.store;
  (* Per artifact kind: which tier served it, and the overall hit rate
     (memory + disk over everything) — the one line that proves a
     restart started warm. *)
  List.iter
    (fun a ->
      let n tier = count (served_metric a tier) in
      let mem = n Mem and disk = n Disk and computed = n Computed in
      let total = mem + disk + computed in
      if total > 0 then
        line "artifact.%s: mem=%d disk=%d computed=%d hit_rate=%.2f\n"
          (artifact_to_string a) mem disk computed
          (rate (mem + disk) total))
    all_artifacts;
  List.iter
    (fun p ->
      let h = count (pass_metric "hits" p) and m = count (pass_metric "misses" p) in
      if h + m > 0 then
        line "pass.%s: hits=%d misses=%d hit_rate=%.2f\n" (Pipeline.name p) h m
          (rate h (h + m)))
    Pipeline.all;
  line "%s\n" (Instrument.dump_views rest);
  Buffer.contents buf

(* The Prometheus exposition of everything this engine knows: the cache
   and store tiers (read through their own stats records), a
   current-process GC snapshot, and then the whole metrics registry
   (pass and tier accounting, phase timings + GC deltas, pool
   per-domain telemetry, request counters). Backing for serve [METRICS]
   and `ivtool metrics`. *)
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
  render_rows (cache_rows @ store_rows @ gc_rows @ of_instruments t.metrics)

let passes_report t src =
  let base = base_key t src in
  let p = pipeline_for t base src in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "source %s  (sccp=%b)\n" (Fnv.to_hex base) t.options.use_sccp);
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
      let inputs =
        match Pipeline.inputs pass with
        | [] -> "(source)"
        | l -> String.concat ", " (List.map Pipeline.name l)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-14s %-6s %-8s <- %s\n" (Pipeline.name pass) status
           owner inputs))
    Pipeline.all;
  Buffer.contents buf
