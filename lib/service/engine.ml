(* Content-addressed memoization of the staged analysis pipeline.

   The engine keeps one cache entry per source, keyed by one digest of
   its text (computed once per request): a record holding the source's
   Analysis.Pipeline instance, whose stages force lazily (a trip-count
   request never runs range analysis or dependence testing), every
   report rendered for it, the passes the engine computes itself (the
   dependence report and the verify parts) and what the disk store holds
   for it. Evicting or invalidating the record drops all of that at
   once. Unit artifacts are the other kind of entry: keyed by unit
   digest, because nests are shared across sources. *)

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

(* Everything the engine keeps for one source. [lock] guards the mutable
   fields; no analysis runs under it. *)
type source = {
  pipeline : Pipeline.t;
  ekey : Fnv.t; (* the source's store entry key *)
  lock : Mutex.t;
  (* Every report rendered here or promoted from the store. *)
  mutable texts : (artifact * string) list;
  (* The engine's own passes: the dependence report and the verify
     parts, once run. *)
  mutable deps : string option;
  mutable parts : (Pipeline.pass * Verify.Check.part) list;
  (* The store whose entry this record has read or published, the
     sections that entry holds, and the promoted sections whose first
     serve (counted tier=disk) is still to come. *)
  mutable store : Store.Disk.t option;
  mutable stored : artifact list;
  mutable unserved : artifact list;
}

type entry = E_source of source | E_unit of Pipeline.unit_artifact

let all_artifacts = [ Classify; Deps; Trip; Check; Ranges ]

(* The engine's accounting lives in its metrics registry, under the
   names METRICS exports: [pass.hits{pass=…}] / [pass.misses{pass=…}]
   per pipeline pass, and [artifact.served{artifact=…,tier=…}] per
   artifact kind and the tier that served it — the memory tier (a
   forced pass or a held report), the disk store, or a fresh
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
  }

let options t = t.options
let metrics t = t.metrics
let cache_stats t = Cache.stats t.cache
let store t = t.store

(* A record's store state describes the store it was read from or
   published to; after a switch each record reads the new store once. *)
let set_store t s = t.store <- s

(* -- keys: the source text is digested exactly once per request; every
   key below derives from that digest -- *)

let base_key t src = Fnv.feed_bool (Fnv.of_strings [ src ]) t.options.use_sccp
let source_key base = Fnv.feed_string base "source"

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

let store_schema = 5
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

let locked r f = Mutex.protect r.lock f

let knows (r : source) s = match r.store with Some known -> known == s | None -> false

(* Read the source's entry from store [s], once per resident record and
   store, and promote each section the record does not hold yet. *)
let load_entry r s =
  let probe () = Store.Disk.get_table s ~kind:entry_kind r.ekey in
  let table =
    Option.value ~default:[]
      (if Obs.Trace.enabled () then Obs.Trace.with_span ~cat:"engine" "engine.store" probe
       else probe ())
  in
  let sections =
    List.filter_map
      (fun a -> Option.map (fun text -> (a, text)) (List.assoc_opt (artifact_to_string a) table))
      all_artifacts
  in
  locked r (fun () ->
      let promoted = List.filter (fun (a, _) -> not (List.mem_assq a r.texts)) sections in
      r.texts <- promoted @ r.texts;
      r.unserved <- List.map fst promoted @ r.unserved;
      r.store <- Some s;
      r.stored <- List.map fst sections)

(* Publish the source's entry when [rendered] (this request's sections)
   adds one the store does not hold yet. The entry is every report the
   request rendered or the record holds: with the entry read first, the
   union of the stored sections and this process's. *)
let publish t r rendered =
  match t.store with
  | None -> ()
  | Some s -> (
    let entry =
      locked r (fun () ->
          let stored = if knows r s then r.stored else [] in
          if List.for_all (fun (a, _) -> List.mem a stored) rendered then []
          else
            let text a =
              match List.assq_opt a rendered with
              | Some text -> Some (a, text)
              | None -> Option.map (fun text -> (a, text)) (List.assq_opt a r.texts)
            in
            let sections = List.filter_map text all_artifacts in
            r.store <- Some s;
            r.stored <- List.map fst sections;
            sections)
    in
    if entry <> [] then
      Store.Disk.put_table s ~kind:entry_kind r.ekey
        (List.map (fun (a, text) -> (artifact_to_string a, text)) entry))

(* [resident t base fresh] is the source's record, inserting [fresh ()]
   when it is not resident. *)
let resident t base fresh =
  match Cache.find_or_add t.cache (source_key base) (fun () -> E_source (fresh ())) with
  | E_source r -> r
  | E_unit _ -> assert false

let source_for t base src =
  resident t base (fun () ->
      {
        pipeline = Pipeline.create ~options:{ Pipeline.use_sccp = t.options.use_sccp } src;
        ekey = entry_key t base;
        lock = Mutex.create ();
        texts = [];
        deps = None;
        parts = [];
        store = None;
        stored = [];
        unserved = [];
      })

let pipeline t src = (source_for t (base_key t src) src).pipeline

(* -- per-pass forcing with hit/miss accounting -- *)

let count_pass t pass ~hit =
  let hits, misses = List.assq pass t.passes in
  Instrument.incr (if hit then hits else misses)

(* A pass miss is timed under "phase.<pass>", the dependence report
   under "phase.deps". *)
let phase_metric = function
  | Pipeline.Depgraph -> "phase.deps"
  | pass -> "phase." ^ Pipeline.name pass

(* Run a pass that missed: count the miss, tick the cooperative timeout
   and time [compute] under the pass's phase metric. *)
let run t pass compute =
  count_pass t pass ~hit:false;
  Pool.tick ();
  Obs.Prof.time t.metrics (phase_metric pass) compute

(* The unit-artifact cache interface handed to the pipeline's unit
   walk. [Cache.find] bumps recency, so reused artifacts stay warm in
   the LRU. *)
let unit_lookup t d =
  match Cache.find t.cache (unit_key d) with
  | Some (E_unit a) -> Some a
  | Some (E_source _) | None -> None

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
  if Pipeline.forced p Pipeline.Classify then begin
    count_pass t Pipeline.Classify ~hit:true;
    Ok []
  end
  else run t Pipeline.Classify (fun () -> classify_units ?pool t p)

(* A Ranges miss runs through the unit layer too: each unit whose
   cached artifact holds a range section under the root's current key
   is answered from it, and the rest are solved and stored. Per unit,
   one [unit.range_hits] or [unit.range_misses] count. *)
let range_units t p : (unit, string) result =
  match Pipeline.ranges_with_units ~lookup:(unit_lookup t) ~store:(unit_store t) p with
  | Error e -> Error e
  | Ok outcomes ->
    let hits = List.length (List.filter (fun o -> o.Pipeline.u_hit) outcomes) in
    Instrument.incr ~by:hits (Instrument.counter t.metrics "unit.range_hits");
    Instrument.incr ~by:(List.length outcomes - hits)
      (Instrument.counter t.metrics "unit.range_misses");
    Ok ()

(* Force one pass: a hit when the pipeline already holds its result
   (even a cached error), a miss when it must run. Classify and Ranges
   route through the unit layer. *)
let ensure ?pool t p pass : (unit, string) result =
  match pass with
  | Pipeline.Classify -> Result.map ignore (classify_outcomes ?pool t p)
  | _ when Pipeline.forced p pass ->
    count_pass t pass ~hit:true;
    Ok ()
  | Pipeline.Ranges -> run t pass (fun () -> range_units t p)
  | _ -> run t pass (fun () -> Pipeline.force p pass)

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

let analyze ?pool t src : (Analysis.Pipeline.analysis, string) result =
  Instrument.incr (Instrument.counter t.metrics "requests.analyze");
  let p = pipeline t src in
  match ensure_chain ?pool t p classify_chain with
  | Error e -> Error e
  | Ok () -> Pipeline.promoted p

(* -- the dependence report (the service layer's own pass) -- *)

let deps_text ?pool t r : (string, string) result =
  let p = r.pipeline in
  let chain = if t.options.use_ranges then ranges_chain else classify_chain in
  match ensure_chain ?pool t p chain with
  | Error e -> Error e
  | Ok () -> (
    match (Pipeline.promoted p, r.deps) with
    | Error e, _ -> Error e
    | Ok _, Some text ->
      count_pass t Pipeline.Depgraph ~hit:true;
      Ok text
    | Ok a, None ->
      let ranges =
        if t.options.use_ranges then
          match Pipeline.ranges p with Ok r -> Some r | Error _ -> None
        else None
      in
      let text =
        run t Pipeline.Depgraph (fun () ->
            let g = Dependence.Dep_graph.build ?ranges a in
            if g = [] then "no dependences\n" else Dependence.Dep_graph.to_string a g)
      in
      locked r (fun () -> r.deps <- Some text);
      Ok text)

(* -- checked mode: the four verify passes (lib/verify) --

   Each part is kept on the source's record, so `ivtool passes` and
   STATS show checked mode like any other pass. *)

(* Force one verify pass, with the same hit/miss accounting, timeout
   tick and phase timing as any other pass. *)
let part t r pass compute () : Verify.Check.part =
  match List.assq_opt pass r.parts with
  | Some part ->
    count_pass t pass ~hit:true;
    part
  | None ->
    let part = run t pass compute in
    locked r (fun () -> r.parts <- (pass, part) :: r.parts);
    part

(* The check chain forces Lower (unlike every other artifact): the
   structural verifier is the lowered CFG's consumer. *)
let check_chain = Pipeline.[ Parse; Lower; Ssa; Looptree; Sccp; Units; Classify ]

let check_parts ?pool t r : (Verify.Check.report, string) result =
  let p = r.pipeline in
  match ensure_chain ?pool t p check_chain with
  | Error e -> Error e
  | Ok () ->
    let get = function Ok v -> v | Error _ -> assert false (* chain forced *) in
    let prog = get (Pipeline.parse p) in
    let lower = get (Pipeline.lower p) in
    let ssa = get (Pipeline.ssa p) in
    let a = get (Pipeline.promoted p) in
    let iters = t.options.check_iters in
    let part = part t r in
    let ranges () =
      if not t.options.use_ranges then None
      else
        match Result.bind (ensure ?pool t p Pipeline.Ranges) (fun () -> Pipeline.ranges p)
        with
        | Error _ -> None
        | Ok ranges ->
          Some
            (part Pipeline.VerifyRanges
               (fun () -> Verify.Check.oracle_part ~iters (Verify.Oracle.Ranges ranges) a)
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
  check_parts t (source_for t (base_key t src) src)

(* -- rendered artifacts -- *)

let final_pass = function
  | Classify -> Pipeline.Classify
  | Trip -> Pipeline.Trip
  | Deps -> Pipeline.Depgraph
  | Check -> Pipeline.VerifyTrans
  | Ranges -> Pipeline.Ranges

(* Has [pass] run for the source: the engine's own passes per the
   record, the rest per the pipeline. *)
let ran r = function
  | Pipeline.Depgraph -> r.deps <> None
  | (Pipeline.VerifyIr | VerifyClass | VerifyRanges | VerifyTrans) as pass ->
    List.mem_assq pass r.parts
  | pass -> Pipeline.forced r.pipeline pass

(* Keep [text] as the record's [artifact] report; the first kept wins. *)
let hold r artifact text =
  locked r (fun () ->
      if not (List.mem_assq artifact r.texts) then r.texts <- (artifact, text) :: r.texts)

(* The record's [artifact] report, rendered from its pipeline and kept
   on first use. *)
let kept_text r artifact render =
  match List.assq_opt artifact r.texts with
  | Some text -> Ok text
  | None -> Result.map (fun text -> hold r artifact text; text) (render r.pipeline)

(* The read path for one artifact: memory (a forced final pass, or a
   report promoted from the store), then the source's store entry, then
   compute. A forced artifact is re-ensured pass by pass, so every pass
   it needs counts a hit, and its held report is served. *)
let render_one ?pool t r artifact : (string, string) result =
  let tag = artifact_to_string artifact in
  Instrument.incr (Instrument.counter t.metrics ("requests." ^ tag));
  let served tier =
    Instrument.incr (List.assq tier (List.assq artifact t.served));
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
  let forced = ran r (final_pass artifact) in
  (match t.store with
   | Some s when (not forced) && not (knows r s) -> load_entry r s
   | _ -> ());
  let held, first =
    locked r (fun () ->
        let first = List.mem artifact r.unserved in
        if first then r.unserved <- List.filter (( <> ) artifact) r.unserved;
        (List.assq_opt artifact r.texts, first))
  in
  match held with
  | Some text when first || not forced ->
    (* A promoted section: its first serve counts as a disk serve. *)
    served (if first then Disk else Mem);
    Ok text
  | _ ->
    let rendered chain render =
      Result.bind (ensure_chain ?pool t r.pipeline chain) (fun () -> kept_text r artifact render)
    in
    let compute () =
      match artifact with
      | Classify -> rendered classify_chain Pipeline.report
      | Trip -> rendered trip_chain Pipeline.trip_report
      | Deps -> deps_text ?pool t r
      | Check -> Result.map Verify.Check.to_text (check_parts ?pool t r)
      | Ranges -> rendered ranges_chain Pipeline.range_report
    in
    let result =
      if forced || not (Obs.Trace.enabled ()) then compute ()
      else
        Obs.Trace.with_span ~cat:"engine"
          ~attrs:[ ("artifact", Obs.Trace.Str tag) ]
          "engine.compute" compute
    in
    served (if forced then Mem else Computed);
    Result.iter (hold r artifact) result;
    result

(* Render [artifacts] in order (the first error stops the rest), each
   through one lookup of the source's record, then publish the source's
   store entry once, with every section rendered here. A later lookup
   re-seats the request's own record: in a small cache a Classify miss's
   unit inserts may have evicted it, and a fresh record would parse and
   classify again. *)
let renders ?pool t artifacts src : (string list, string) result =
  let base = base_key t src in
  let rec go last acc = function
    | [] -> (last, acc, None)
    | a :: rest -> (
      let r =
        match last with
        | None -> source_for t base src
        | Some r -> resident t base (fun () -> r)
      in
      match render_one ?pool t r a with
      | Ok text -> go (Some r) ((a, text) :: acc) rest
      | Error e -> (Some r, acc, Some e))
  in
  let last, rendered, failed = go None [] artifacts in
  Option.iter (fun r -> publish t r rendered) last;
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
   and hand back the per-unit outcomes alongside the source's record. *)
let classify_with_outcomes ?pool t src =
  let r = source_for t (base_key t src) src in
  match ensure_chain ?pool t r.pipeline Pipeline.[ Parse; Ssa; Looptree; Sccp; Units ] with
  | Error e -> Error e
  | Ok () -> Result.map (fun outcomes -> (r, outcomes)) (classify_outcomes ?pool t r.pipeline)

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
    | Ok (r_new, outcomes) -> (
      match (Pipeline.units r_new.pipeline, Pipeline.looptree r_new.pipeline) with
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
  | Ok (r, outcomes) -> (
    match kept_text r Classify Pipeline.report with
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
  if Cache.invalidate t.cache (source_key (base_key t src)) then 1 else 0

let clear t =
  Cache.clear t.cache;
  Cache.reset_stats t.cache;
  Instrument.reset t.metrics

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
  let r = source_for t base src in
  (* A report the record holds for a pass that never ran here came from
     the store; counted once it has been served. *)
  let from_store pass =
    List.exists
      (fun (a, _) -> final_pass a = pass && not (List.mem a r.unserved))
      r.texts
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "source %s  (sccp=%b)\n" (Fnv.to_hex base) t.options.use_sccp);
  List.iter
    (fun pass ->
      let forced = ran r pass in
      let status = if forced then "forced" else "lazy" in
      (* Provenance: [store] when the pass's artifact was satisfied from
         the disk store and the pass itself never ran here; otherwise
         who would compute it. *)
      let owner =
        if (not forced) && from_store pass then "store"
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
