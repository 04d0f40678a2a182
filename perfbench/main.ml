(* The analysis-service benchmark.

   Three workloads run through the entry points `ivtool` itself calls —
   [Service.Batch.run], [Service.Server.handle] and
   [Service.Engine.create ~store] — on one resident [Service.Pool] of
   [nproc] domains:

   - batch-cold: a generated corpus, a fresh store-less engine per pass.
     Every file misses, so the analysis layers do all the work.
   - edit-session: one closed-loop client editing a few 64-nest files
     through serve requests on one persistent engine — the editor loop
     the unit layer exists for.
   - store-restart: a fresh engine per pass over a populated disk store
     (the restarted-process shape), with one file in eight replaced by a
     program never stored.

   [--trace 0] prints the end-to-end metrics of the timed region;
   [--trace 1] also runs each workload once more, layer by layer, under
   the benchmark's own spans, and prints the per-layer metrics. Every
   output is checked: batch renders against a 1-domain cold engine,
   serve replies against a fresh engine on a seeded sample of steps, and
   a seeded sample of programs against the interpreter oracle
   ([Verify.Check.run]). The last line of standard output is one JSON
   object; see README.md for its fields and for every metric. *)

module Engine = Service.Engine
module Pipeline = Analysis.Pipeline
module Pool = Service.Pool
module Instrument = Obs.Instrument

(* -- command line -- *)

let workload = ref ""
let seed = ref 1992
let seconds = ref 10.0
let traced = ref false
let work_root = ref ".perfbench_work"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME batch-cold | edit-session | store-restart");
    ("--seed", Arg.Set_int seed, "N input seed (default 1992)");
    ("--seconds", Arg.Set_float seconds, "S length of the timed region (default 10)");
    ( "--trace",
      Arg.Int (fun n -> traced := n <> 0),
      "0|1 print the end-to-end (0) or the per-layer (1) metrics" );
    ("--work", Arg.Set_string work_root, "DIR scratch directory (default .perfbench_work)");
  ]

(* -- sizes: every knob of the inputs, recorded in the provenance line -- *)

let knobs = Corpus.Gen.default_knobs
let corpus_files = 2000

(* A batch pass sends the corpus as one [Batch.run] request per shard of
   this many files — one `ivtool batch` invocation per CI shard. *)
let shard_files = 80
let session_files = 4
let nests_per_file = 64

(* An edit session is a seeded script of this many steps, replayed on a
   fresh warm engine as often as the time allows. *)
let session_steps = 60

(* Setup is repeated and its median reported, so that work moved into
   set-up shows up as a change of [setup_s] rather than as noise. *)
let setup_reps = 3

(* The traced layer-by-layer run replays this many files (batch
   workloads) or edit steps (edit-session). *)
let traced_files = 400
let traced_steps = 40

(* Serve replies are compared with a fresh engine on one step in
   [check_every]; [verify_sample] programs per run go through the
   interpreter oracle. *)
let check_every = 8
let verify_sample = 6

(* A batch file holds at most one pipeline, its unit artifacts (one per
   generated program), a dependence report and three promoted texts. *)
let capacity_for files = (8 * files) + 64

let domains = Pool.default_domains ()
let artifacts = Engine.[ Classify; Deps; Trip ]

(* -- utilities -- *)

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fastest xs = List.fold_left Float.min Float.infinity xs

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM: the peak resident set of this process, which runs one
   workload only. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let open_store root =
  match Store.Disk.open_store ~root () with
  | Ok s -> s
  | Error e -> failwith ("cannot open store " ^ root ^ ": " ^ e)

(* -- the outcome tally: every checked operation, and every failure -- *)

let attempted = ref 0
let failed = ref 0

let fail what =
  incr failed;
  Printf.eprintf "perfbench: FAILED %s\n%!" what

(* One operation attempted; [ok] says whether its output was right. *)
let op what ok =
  incr attempted;
  if not ok then fail what

(* A property of the workload itself (no evictions, no analysis of
   stored files): a violation counts as a failure. *)
let invariant what ok = if not ok then fail what

let result_eq a b =
  match (a, b) with Ok x, Ok y -> String.equal x y | _ -> false

(* The interpreter oracle, independent of the classifier. *)
let verify_programs rng sources =
  let a = Array.of_list sources in
  if Array.length a > 0 then
    for _ = 1 to verify_sample do
      let src = a.(Random.State.int rng (Array.length a)) in
      match Verify.Check.run src with
      | Ok report ->
        op "Verify.Check.run reported errors" (Verify.Check.errors report = 0)
      | Error e -> op ("Verify.Check.run: " ^ e) false
    done

(* -- setup timing -- *)

(* Run [setup] [setup_reps] times; keep the last result, release the
   others, and return the median duration. *)
let repeated_setup ~release setup =
  let rec go i times last =
    if i = setup_reps then (Option.get last, median times)
    else begin
      Option.iter release last;
      Gc.full_major ();
      let t0 = now () in
      let r = setup i in
      go (i + 1) ((now () -. t0) :: times) (Some r)
    end
  in
  go 0 [] None

(* Passes or steps run until [--seconds] have gone by, and at least
   [min_iters] times. *)
let timed_loop ~min_iters f =
  let deadline = now () +. !seconds in
  let rec go i acc =
    if i >= min_iters && now () >= deadline then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

(* -- the pool's scheduler telemetry ([Pool.create ~metrics], or the
   engine registry a [Batch.run] job reports into) -- *)

type pool_tel = {
  mutable tasks : int;
  mutable wait_s : float;
  mutable steals : int;
  mutable promoted : int;
}

let pool_tel () = { tasks = 0; wait_s = 0.0; steals = 0; promoted = 0 }

(* Add the registry's pool telemetry to [tel], scaled by [sign]: a
   region's share is its end reading added and its start subtracted. *)
let add_pool_tel ?(sign = 1) tel registry =
  List.iter
    (fun (name, view) ->
      let has prefix = String.starts_with ~prefix name in
      match view with
      | Instrument.V_counter n when has "pool.tasks{" -> tel.tasks <- tel.tasks + (sign * n)
      | Instrument.V_counter n when has "pool.steals{" -> tel.steals <- tel.steals + (sign * n)
      | Instrument.V_counter n when has "pool.gc.promoted_words{" ->
        tel.promoted <- tel.promoted + (sign * n)
      | Instrument.V_histogram { v_sum; _ } when has "pool.queue_wait{" ->
        tel.wait_s <- tel.wait_s +. (float sign *. v_sum)
      | _ -> ())
    (Instrument.snapshot registry)

(* -- per-layer accounting for the traced run -- *)

type layers = (string, float) Hashtbl.t

let add (acc : layers) k v =
  Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))

let get (acc : layers) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)

let span name f = Obs.Trace.with_span ~cat:"bench" name f

(* The timed layers, in pipeline order; [service.engine.overhead_us] is
   what the operations' wall time leaves after them and the store. *)
let layer_spans =
  [ "ir.parse"; "ir.ssa"; "analysis.sccp"; "analysis.units"; "analysis.classify";
    "analysis.range"; "dependence.depgraph" ]

let pass_counts engine pass =
  let name = Pipeline.name pass in
  match List.find_opt (fun (n, _, _) -> n = name) (Engine.pass_stats engine) with
  | Some (_, h, m) -> (h, m)
  | None -> (0, 0)

(* Same-array reference pairs with at least one write: the pairs the
   dependence graph tests. *)
let dependence_pairs p =
  match Pipeline.promoted p with
  | Error _ -> 0
  | Ok a ->
    let refs =
      Array.of_list (Dependence.Dep_graph.collect_refs (Analysis.Driver.of_analysis a))
    in
    let n = ref 0 in
    Array.iteri
      (fun i (r : Dependence.Dep_graph.array_ref) ->
        for j = i + 1 to Array.length refs - 1 do
          let s = refs.(j) in
          if
            Ir.Ident.equal r.Dependence.Dep_graph.array s.Dependence.Dep_graph.array
            && (r.kind = Dependence.Dep_graph.Write || s.kind = Dependence.Dep_graph.Write)
          then incr n
        done)
      refs;
    !n

(* One source through the layers by their public functions, in pipeline
   order. Classification goes through [Engine.render Classify] — the unit
   walk the engine serves — and nothing forces [Pipeline.classified] or
   [Pipeline.promoted] before it. Returns the renders and the wall time
   of the calls. With [book], GC deltas and work counts are added to it
   after the timed calls. *)
let layered ?book engine src =
  let before = Obs.Prof.sample () in
  let units0, _ = pass_counts engine Pipeline.Unitclassify in
  let t0 = now () in
  let p = span "service.pipeline" (fun () -> Engine.pipeline engine src) in
  let parsed = span "ir.parse" (fun () -> Pipeline.parse p) in
  let ssa =
    span "ir.ssa" (fun () ->
        match Pipeline.ssa p with
        | Ok s -> Result.map (fun _ -> s) (Pipeline.looptree p)
        | Error e -> Error e)
  in
  let sccp = span "analysis.sccp" (fun () -> Pipeline.sccp p) in
  let units = span "analysis.units" (fun () -> Pipeline.units p) in
  let c0 = Obs.Prof.sample () in
  let tc = now () in
  let cls = span "analysis.classify" (fun () -> Engine.render engine Engine.Classify src) in
  let cls_s = now () -. tc in
  let cd = Obs.Prof.delta c0 (Obs.Prof.sample ()) in
  let trip = span "service.trip" (fun () -> Engine.render engine Engine.Trip src) in
  let ranges = span "analysis.range" (fun () -> Pipeline.ranges p) in
  let deps = span "dependence.depgraph" (fun () -> Engine.render engine Engine.Deps src) in
  let wall = now () -. t0 in
  let d = Obs.Prof.delta before (Obs.Prof.sample ()) in
  op "layered run"
    (Result.is_ok parsed && Result.is_ok ssa && Result.is_ok sccp && Result.is_ok units
   && Result.is_ok cls && Result.is_ok trip && Result.is_ok ranges && Result.is_ok deps);
  Option.iter
    (fun acc ->
      let units1, _ = pass_counts engine Pipeline.Unitclassify in
      let nodes = match ssa with Ok s -> Ir.Cfg.num_instrs (Ir.Ssa.cfg s) | Error _ -> 0 in
      add acc "nodes" (float nodes);
      add acc "pairs" (float (dependence_pairs p));
      add acc "classify.minor_words" (float cd.Obs.Prof.d_minor_words);
      add acc "classify.promoted_words" (float cd.Obs.Prof.d_promoted_words);
      add acc "gc.minor_words" (float d.Obs.Prof.d_minor_words);
      add acc "gc.promoted_words" (float d.Obs.Prof.d_promoted_words);
      (* C1 compares classification cost per SSA node only where every
         unit was classified afresh. *)
      if units1 = units0 then begin
        add acc "c1.classify_us" (cls_s *. 1e6);
        add acc "c1.minor_words" (float cd.Obs.Prof.d_minor_words);
        add acc "c1.nodes" (float nodes)
      end)
    book;
  ([ cls; deps; trip ], wall)

(* Sum the benchmark's spans by name. [engine.store] spans (the disk
   tier's read path, emitted by the engine) are taken out of the
   benchmark span that encloses them. *)
let span_totals (acc : layers) t =
  let spans = Obs.Trace.spans t in
  let by_sid = Hashtbl.create 4096 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_sid s.Obs.Trace.sid s) spans;
  let dur (s : Obs.Trace.span) =
    Obs.Clock.ns_to_us (Int64.sub s.Obs.Trace.stop_ns s.Obs.Trace.start_ns)
  in
  let rec bench_ancestor (s : Obs.Trace.span) =
    match Option.bind s.Obs.Trace.parent (Hashtbl.find_opt by_sid) with
    | None -> None
    | Some a when a.Obs.Trace.cat = "bench" -> Some a
    | Some a -> bench_ancestor a
  in
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.Obs.Trace.cat = "bench" then add acc (s.Obs.Trace.name ^ ".us") (dur s)
      else if s.Obs.Trace.name = "engine.store" then begin
        add acc "store.get.us" (dur s);
        Option.iter
          (fun (b : Obs.Trace.span) -> add acc (b.Obs.Trace.name ^ ".us") (-.dur s))
          (bench_ancestor s)
      end)
    spans;
  if Obs.Trace.dropped t > 0 then fail "trace collector dropped spans"

(* The traced run keeps two engines in step. Every operation runs on
   the untraced twin — its wall time is the baseline of
   [trace.overhead_ratio], and its GC deltas and work counts are the
   per-layer counts — and on the traced twin under a fresh collector,
   whose spans give the per-layer times. Pairing the two per operation
   keeps drift of the host out of the ratio. *)
type twin = {
  acc : layers;
  mutable ops : int;
  mutable untraced_wall : float;
  mutable traced_wall : float;
}

let twin () = { acc = Hashtbl.create 64; ops = 0; untraced_wall = 0.0; traced_wall = 0.0 }

(* [untraced] and [traced] run one operation and return its wall time.
   The twin that goes first alternates, so that neither pays more of
   the cold caches (the disk tier's, the processor's). *)
let twin_op tw ~untraced ~traced =
  let run_traced () =
    let w, t = Obs.Trace.collect traced in
    span_totals tw.acc t;
    tw.traced_wall <- tw.traced_wall +. w
  in
  let run_untraced () = tw.untraced_wall <- tw.untraced_wall +. untraced () in
  if tw.ops mod 2 = 0 then begin
    run_untraced ();
    run_traced ()
  end
  else begin
    run_traced ();
    run_untraced ()
  end;
  tw.ops <- tw.ops + 1

type traced_result = {
  tw : twin;
  cache : Service.Cache.stats;
  unit_hits : int;
  unit_misses : int;
  store_stats : Store.Disk.stats option;
}

(* The per-layer metrics, per operation (a file, or an edit step). *)
let per_layer_metrics ~tel ~tel_ops ~split r =
  let a = r.tw.acc in
  let ops = float (max 1 r.tw.ops) in
  let per k = get a k /. ops in
  let layer_total = List.fold_left (fun s l -> s +. get a (l ^ ".us")) 0.0 layer_spans in
  let { Service.Cache.hits; misses; evictions; _ } = r.cache in
  let store_hit_ratio, store_puts =
    match r.store_stats with
    | Some s -> (ratio (float s.Store.Disk.hits) (float (s.hits + s.misses)), float s.puts /. ops)
    | None -> (0.0, 0.0)
  in
  let preserving, changing = split in
  let tel_ops = float (max 1 tel_ops) in
  [
    ("ir.parse.us", per "ir.parse.us", "us");
    ("ir.ssa.us", per "ir.ssa.us", "us");
    ("ir.ssa.nodes", per "nodes", "count");
    ("analysis.sccp.us", per "analysis.sccp.us", "us");
    ("analysis.units.us", per "analysis.units.us", "us");
    ("analysis.classify.us", per "analysis.classify.us", "us");
    ("analysis.classify.minor_words", per "classify.minor_words", "words");
    ("analysis.classify.promoted_words", per "classify.promoted_words", "words");
    ("analysis.classify.us_per_ssa_node", ratio (get a "c1.classify_us") (get a "c1.nodes"), "us/node");
    ( "analysis.classify.minor_words_per_ssa_node",
      ratio (get a "c1.minor_words") (get a "c1.nodes"),
      "words/node" );
    ("analysis.range.us", per "analysis.range.us", "us");
    ("dependence.depgraph.us", per "dependence.depgraph.us", "us");
    ("dependence.pairs", per "pairs", "count");
    ("dependence.us_per_pair", ratio (get a "dependence.depgraph.us") (get a "pairs"), "us/pair");
    ( "service.engine.overhead_us",
      ((r.tw.traced_wall *. 1e6) -. layer_total -. get a "store.get.us") /. ops,
      "us" );
    ("service.cache.hit_ratio", ratio (float hits) (float (hits + misses)), "ratio");
    ("service.cache.evictions", float evictions, "count");
    ( "service.unit.reuse_ratio",
      ratio (float r.unit_hits) (float (r.unit_hits + r.unit_misses)),
      "ratio" );
    ("service.unit.reuse_ratio.size_preserving", preserving, "ratio");
    ("service.unit.reuse_ratio.size_changing", changing, "ratio");
    ("service.pool.queue_wait_us", ratio (tel.wait_s *. 1e6) (float tel.tasks), "us");
    ("service.pool.steals", float tel.steals /. tel_ops, "count");
    ("service.pool.promoted_words", float tel.promoted /. tel_ops, "words");
    ("store.get.us", per "store.get.us", "us");
    ("store.put.us", per "store.put.us", "us");
    ("store.hit_ratio", store_hit_ratio, "ratio");
    ("store.puts", store_puts, "count");
    ("gc.minor_words_per_file", per "gc.minor_words", "words");
    ("gc.promoted_words_per_file", per "gc.promoted_words", "words");
    ("trace.overhead_ratio", ratio r.tw.traced_wall r.tw.untraced_wall, "ratio");
  ]

(* -- batch-cold and store-restart -- *)

type corpus_setup = {
  dir : string;
  items : Service.Batch.item array;
  refs : (string, string) result array;
  pool : Pool.pool;
  store_root : string option;
  stored : (string, unit) Hashtbl.t;  (** every source the store has been offered *)
}

(* The reference outputs: a fresh 1-domain cold engine's renders, over
   [store] when given (which they then populate). *)
let reference_renders ?store items =
  let engine = Engine.create ~capacity:(capacity_for (Array.length items)) ?store () in
  Array.map (Service.Batch.report engine ~artifacts) items

(* Generate and write the corpus, read it back the way `ivtool batch`
   does, spawn the pool, and render the references — with a store
   attached, the store's population. *)
let setup_corpus ~with_store rep =
  let dir = Filename.concat !work_root (Printf.sprintf "corpus-%d" rep) in
  rm_rf dir;
  mkdir_p dir;
  let corpus = Corpus.Gen.corpus ~knobs ~seed:!seed ~count:corpus_files () in
  List.iter (fun (name, src) -> write_file (Filename.concat dir name) src) corpus;
  let items =
    Array.of_list
      (List.map
         (fun (name, _) ->
           let path = Filename.concat dir name in
           { Service.Batch.name = path; source = read_file path })
         corpus)
  in
  let pool = Pool.create ~domains () in
  let store_root = if with_store then Some (Filename.concat dir "store") else None in
  let refs = reference_renders ?store:(Option.map open_store store_root) items in
  let stored = Hashtbl.create corpus_files in
  Array.iter (fun (it : Service.Batch.item) -> Hashtbl.replace stored it.source ()) items;
  { dir; items; refs; pool; store_root; stored }

let release_corpus s =
  Pool.shutdown s.pool;
  rm_rf s.dir

(* [count] programs never seen by the store (nor by an earlier pass),
   drawn from a stream disjoint from the corpus's. *)
let fresh_sources s ~stream count =
  List.init count (fun i ->
      let rec draw attempt =
        let st = Random.State.make [| !seed; 0x5eed; stream; i; attempt |] in
        let src = Corpus.Gen.source ~knobs st in
        if Hashtbl.mem s.stored src then draw (attempt + 1)
        else begin
          Hashtbl.replace s.stored src ();
          src
        end
      in
      draw 0)

(* Replace one in eight members of each shard of [items], chosen at
   random, by fresh programs; returns the new item array and the
   replaced indices. *)
let replace_eighth s rng ~stream items =
  let chosen =
    Array.concat
      (List.init
         (Array.length items / shard_files)
         (fun shard ->
           let perm = Array.init shard_files Fun.id in
           for i = shard_files - 1 downto 1 do
             let j = Random.State.int rng (i + 1) in
             let t = perm.(i) in
             perm.(i) <- perm.(j);
             perm.(j) <- t
           done;
           Array.map (fun k -> (shard * shard_files) + k) (Array.sub perm 0 (shard_files / 8))))
  in
  let fresh = Array.of_list (fresh_sources s ~stream (Array.length chosen)) in
  let items = Array.copy items in
  Array.iteri
    (fun k i ->
      items.(i) <-
        { Service.Batch.name = Printf.sprintf "fresh-%d-%d.iv" stream i; source = fresh.(k) })
    chosen;
  (items, chosen)

(* One timed pass: a fresh engine (over the store, when there is one)
   runs the corpus as one [Batch.run] request per shard on the resident
   pool. Returns each request's wall time; the renders are checked
   against the references afterwards, outside the timed region. *)
let batch_pass s tel items ~expected ~replaced =
  let store = Option.map open_store s.store_root in
  let engine = Engine.create ~capacity:(capacity_for (Array.length items)) ?store () in
  let shards = Array.length items / shard_files in
  Gc.full_major ();
  let runs =
    Array.init shards (fun k ->
        let shard = Array.to_list (Array.sub items (k * shard_files) shard_files) in
        let t0 = now () in
        let results = Service.Batch.run ~pool:s.pool ~domains ~engine ~artifacts shard in
        (results, now () -. t0))
  in
  Array.iteri
    (fun k (results, _) ->
      List.iteri
        (fun i (item, r) ->
          op ("render of " ^ item.Service.Batch.name)
            (result_eq r expected.((k * shard_files) + i)))
        results)
    runs;
  invariant "evictions in a timed pass" ((Engine.cache_stats engine).Service.Cache.evictions = 0);
  add_pool_tel tel (Engine.metrics engine);
  (match store with
   | Some _ ->
     (* Only the replaced files may run analysis passes. *)
     let _, parses = pass_counts engine Pipeline.Parse in
     invariant
       (Printf.sprintf "store-restart parsed %d files, %d replaced" parses replaced)
       (parses = replaced)
   | None -> ());
  Array.map snd runs

(* Each shard's request time is its fastest over the passes: a shared
   host only ever adds time, and the share of a run it spends slowed
   changes from minute to minute, which moves a median over passes by
   up to a fifth. A typical pass is their sum. *)
let batch_e2e passes ~setup_s =
  let shards = Array.length (List.hd passes) in
  let typical =
    List.init shards (fun k -> fastest (List.map (fun times -> times.(k)) passes))
  in
  let ms = List.map (fun t -> t *. 1e3) typical in
  [
    ("setup_s", setup_s, "s");
    ("files_per_s", float (shards * shard_files) /. List.fold_left ( +. ) 0.0 typical, "files/s");
    ("req_p50_ms", median ms, "ms");
    ("req_p95_ms", percentile 0.95 ms, "ms");
  ]

(* The traced run for the batch workloads: [traced_files] files on a
   pair of fresh 1-domain engines (see [twin]). In store-restart one file
   in eight is fresh — a different one on each twin, since the first
   twin's renders are published to the shared store — and goes through
   the layers; the stored ones are rendered, and served by the disk
   tier. *)
let batch_traced s rng =
  let sample = Array.sub s.items 0 (min traced_files (Array.length s.items)) in
  let side ~stream =
    let items, replaced =
      match s.store_root with
      | Some _ -> replace_eighth s rng ~stream sample
      | None -> (sample, [||])
    in
    let is_fresh = Array.make (Array.length items) (s.store_root = None) in
    Array.iter (fun i -> is_fresh.(i) <- true) replaced;
    let store = Option.map open_store s.store_root in
    let engine = Engine.create ~capacity:(capacity_for (Array.length items)) ?store () in
    (items, is_fresh, engine, store)
  in
  let ((_, _, engine, _) as untraced) = side ~stream:(-1) in
  let ((_, _, _, store) as traced) = side ~stream:(-2) in
  (* The engine publishes fresh renders inside its render calls; the
     same publishes are timed on a side store. *)
  let put_probe = Option.map (fun root -> open_store (root ^ "-putprobe")) s.store_root in
  let step ?book ~probe (items, is_fresh, engine, _) i () =
    let src = items.(i).Service.Batch.source in
    if is_fresh.(i) then begin
      let renders, wall = layered ?book engine src in
      if probe then
        Option.iter
          (fun ps ->
            let key = Hash.Fnv.of_strings [ src ] in
            List.iter2
              (fun a r ->
                let kind = Engine.artifact_to_string a in
                Result.iter
                  (fun text -> span "store.put" (fun () -> Store.Disk.put ps ~kind key text))
                  r)
              artifacts renders)
          put_probe;
      wall
    end
    else begin
      let t0 = now () in
      let r =
        span "service.render" (fun () -> List.map (fun a -> Engine.render engine a src) artifacts)
      in
      let wall = now () -. t0 in
      op "store render" (List.for_all Result.is_ok r);
      wall
    end
  in
  let tw = twin () in
  let h0, m0 = pass_counts engine Pipeline.Unitclassify in
  Gc.full_major ();
  Array.iteri
    (fun i _ ->
      twin_op tw
        ~untraced:(step ~book:tw.acc ~probe:false untraced i)
        ~traced:(step ~probe:true traced i))
    sample;
  Option.iter (fun ps -> rm_rf (Store.Disk.root ps)) put_probe;
  let h1, m1 = pass_counts engine Pipeline.Unitclassify in
  {
    tw;
    cache = Engine.cache_stats engine;
    unit_hits = h1 - h0;
    unit_misses = m1 - m0;
    store_stats = Option.map Store.Disk.stats store;
  }

let run_batch ~with_store =
  let s, setup_s =
    repeated_setup ~release:release_corpus (fun rep -> setup_corpus ~with_store rep)
  in
  let rng = Random.State.make [| !seed; 0xb47c |] in
  let tel = pool_tel () in
  let replaced_total = ref 0 in
  let one_pass ~tel stream =
    if with_store then begin
      let items, chosen = replace_eighth s rng ~stream s.items in
      let expected = Array.copy s.refs in
      let fresh_refs = reference_renders (Array.map (fun i -> items.(i)) chosen) in
      Array.iteri (fun k i -> expected.(i) <- fresh_refs.(k)) chosen;
      replaced_total := !replaced_total + Array.length chosen;
      batch_pass s tel items ~expected ~replaced:(Array.length chosen)
    end
    else batch_pass s tel s.items ~expected:s.refs ~replaced:0
  in
  (* One untimed pass first, so the heap has grown to its working size. *)
  ignore (one_pass ~tel:(pool_tel ()) (-3));
  replaced_total := 0;
  let passes = timed_loop ~min_iters:3 (one_pass ~tel) in
  let files_run = List.length passes * corpus_files in
  let e2e = batch_e2e passes ~setup_s in
  let rss = peak_rss_mb () in
  let layers =
    if !traced then begin
      let r = batch_traced s rng in
      per_layer_metrics ~tel ~tel_ops:files_run ~split:(0.0, 0.0) r
    end
    else []
  in
  verify_programs rng (Array.to_list (Array.map (fun (i : Service.Batch.item) -> i.source) s.items));
  let info =
    [
      ("files", string_of_int corpus_files);
      ("requests_per_pass", string_of_int (corpus_files / shard_files));
      ("files_per_request", string_of_int shard_files);
      ("passes", string_of_int (List.length passes));
      ("engine_capacity", string_of_int (capacity_for corpus_files));
      ("replaced_share", Printf.sprintf "%.4f" (ratio (float !replaced_total) (float files_run)));
    ]
  in
  release_corpus s;
  (e2e, rss, layers, info)

(* -- edit-session -- *)

type nest = { mutable stmts : Ir.Ast.stmt list; mutable inserted : bool }

type sfile = { path : string; nests : nest array; mutable text : string }

(* Give every loop and array of nest [k] of file [f] a name of its own,
   so that nests share no array and dependence testing stays within a
   nest. *)
let rename_nest ~f ~k stmts =
  let j = ref 0 in
  let fresh () =
    incr j;
    Printf.sprintf "F%dN%02dL%d" f k !j
  in
  let arr = Ir.Ident.of_string (Printf.sprintf "a%02d" k) in
  let open Ir.Ast in
  let rec e = function
    | Aref (_, es) -> Aref (arr, List.map e es)
    | Binop (o, a, b) -> Binop (o, e a, e b)
    | Neg x -> Neg (e x)
    | (Int _ | Var _) as x -> x
  in
  let c = function Cmp (o, a, b) -> Cmp (o, e a, e b) | Unknown -> Unknown in
  let rec stmt = function
    | For l ->
      let name = fresh () in
      For { l with name; lo = e l.lo; hi = e l.hi; body = List.map stmt l.body }
    | Loop (_, b) ->
      let name = fresh () in
      Loop (name, List.map stmt b)
    | If (cd, t, f) -> If (c cd, List.map stmt t, List.map stmt f)
    | Assign (v, x) -> Assign (v, e x)
    | Astore (_, es, x) -> Astore (arr, List.map e es, e x)
    | Exit_if cd -> Exit_if (c cd)
  in
  List.map stmt stmts

let render_file sf =
  Ir.Ast.to_string
    {
      Ir.Ast.decls = [];
      stmts = List.concat_map (fun n -> n.stmts) (Array.to_list sf.nests);
    }

(* [f] applied to every positive integer literal of [stmt], in a fixed
   order. *)
let map_positive f stmt =
  let open Ir.Ast in
  let rec e = function
    | Int v when v > 0 -> Int (f v)
    | (Int _ | Var _) as x -> x
    | Aref (a, es) -> Aref (a, List.map e es)
    | Binop (o, a, b) ->
      let a = e a in
      Binop (o, a, e b)
    | Neg x -> Neg (e x)
  in
  let c = function
    | Cmp (o, a, b) ->
      let a = e a in
      Cmp (o, a, e b)
    | Unknown -> Unknown
  in
  let rec s = function
    | Assign (v, x) -> Assign (v, e x)
    | Astore (a, es, x) ->
      let es = List.map e es in
      Astore (a, es, e x)
    | If (cd, t, f) ->
      let cd = c cd in
      let t = List.map s t in
      If (cd, t, List.map s f)
    | Loop (name, b) -> Loop (name, List.map s b)
    | For l ->
      let lo = e l.lo in
      let hi = e l.hi in
      For { l with lo; hi; body = List.map s l.body }
    | Exit_if cd -> Exit_if (c cd)
  in
  s stmt

(* A size-preserving edit: change one seeded-random positive literal of
   the nest's loop (its lower bound, 1, is always one). Literals stay
   positive, so no negation appears and the instruction count is
   unchanged. *)
let bump_constant rng n =
  let on_loop f = List.map (function Ir.Ast.For _ as st -> f st | st -> st) in
  let count = ref 0 in
  ignore (on_loop (map_positive (fun v -> incr count; v)) n.stmts);
  let target = Random.State.int rng !count in
  let seen = ref (-1) in
  let bump v =
    incr seen;
    if !seen <> target then v else if v = 1 then 2 else v - 1
  in
  n.stmts <- on_loop (map_positive bump) n.stmts

(* A size-changing edit: insert an increment at the head of the nest's
   outer loop body, or delete the one inserted earlier. *)
let toggle_statement n =
  let va = Ir.Ident.of_string "va" in
  let incr_va = Ir.Ast.Assign (va, Ir.Ast.Binop (Ir.Ops.Add, Ir.Ast.Var va, Ir.Ast.Int 1)) in
  n.stmts <-
    List.map
      (function
        | Ir.Ast.For l ->
          let body =
            match l.Ir.Ast.body with
            | _ :: rest when n.inserted -> rest
            | body -> incr_va :: body
          in
          Ir.Ast.For { l with Ir.Ast.body }
        | st -> st)
      n.stmts;
  n.inserted <- not n.inserted

(* One step of the edit script: the edited file and its contents after
   the edit, and on every other step the unchanged file classified
   afterwards, with its contents. *)
type step = { file : int; changing : bool; src : string; other : (int * string) option }

type session = {
  sdir : string;
  paths : string array;
  initial : string array;  (** the files' contents before the first edit *)
  final_nests : Ir.Ast.stmt list list;  (** every nest after the last edit *)
  script : step array;
  spool : Pool.pool;
  spool_metrics : Instrument.t;
  mutable warm : Engine.t option;  (** the engine for the next repetition *)
}

(* The requests after one edit: REANALYZE, DEPS and TRIP for the
   edited file and, on every other step, CLASSIFY for a file not edited
   since its last request (a memory hit). Two cheap requests in every
   four would put the median exactly in the gap between the cheap and
   the computing requests, where it measures noise; with three in seven
   it lies among the DEPS replies. *)
let requests s st =
  let path = s.paths.(st.file) in
  [ "REANALYZE " ^ path; "DEPS " ^ path; "TRIP " ^ path ]
  @ match st.other with Some (o, _) -> [ "CLASSIFY " ^ s.paths.(o) ] | None -> []

(* A session engine holds every version its repetition touches, so it
   never evicts: per step a pipeline, a dependence report and at most
   one unit artifact per nest. *)
let session_capacity = 1 lsl 20

(* The seeded edit script: each step edits one nest of one file, size-
   preserving on even steps and size-changing on odd ones. *)
let edit_script files rng =
  Array.init session_steps (fun i ->
      let f = Random.State.int rng session_files in
      let k = Random.State.int rng nests_per_file in
      let o = (f + 1 + Random.State.int rng (session_files - 1)) mod session_files in
      let changing = i mod 2 = 1 in
      let sf = files.(f) in
      if changing then toggle_statement sf.nests.(k) else bump_constant rng sf.nests.(k);
      sf.text <- render_file sf;
      let other = if changing then None else Some (o, files.(o).text) in
      { file = f; changing; src = sf.text; other })

(* Put the files back to their initial contents and start an engine
   that has analyzed each of them once, as an editor session would. *)
let warm_engine s =
  Array.iteri (fun f path -> write_file path s.initial.(f)) s.paths;
  let engine = Engine.create ~capacity:session_capacity () in
  Array.iter
    (fun path ->
      List.iter
        (fun verb -> ignore (Service.Server.handle ~pool:s.spool engine (verb ^ path)))
        [ "REANALYZE "; "DEPS "; "TRIP " ])
    s.paths;
  engine

(* Nests are [Corpus.Gen] programs of [nest_nodes] SSA instructions
   (bounds included): drawing them from the whole size distribution
   would let one seed's files be a quarter larger than another's. *)
let nest_nodes = (30, 46)

let rec sized_program st =
  let prog = Corpus.Gen.program ~knobs st in
  let n = Ir.Cfg.num_instrs (Ir.Ssa.cfg (Ir.Ssa.of_program prog)) in
  if n >= fst nest_nodes && n <= snd nest_nodes then prog else sized_program st

(* Generate the files and the edit script, write the files, spawn the
   pool and warm the first repetition's engine. *)
let setup_session rep =
  let sdir = Filename.concat !work_root (Printf.sprintf "session-%d" rep) in
  rm_rf sdir;
  mkdir_p sdir;
  let files =
    Array.init session_files (fun f ->
        let nests =
          Array.init nests_per_file (fun k ->
              let st = Random.State.make [| !seed; 0xed17; f; k |] in
              { stmts = rename_nest ~f ~k (sized_program st).Ir.Ast.stmts; inserted = false })
        in
        let path = Filename.concat sdir (Printf.sprintf "session-%d.iv" f) in
        let sf = { path; nests; text = "" } in
        sf.text <- render_file sf;
        sf)
  in
  let initial = Array.map (fun sf -> sf.text) files in
  let script = edit_script files (Random.State.make [| !seed; 0x5e55 |]) in
  let spool_metrics = Instrument.create () in
  let s =
    {
      sdir;
      paths = Array.map (fun sf -> sf.path) files;
      initial;
      final_nests =
        List.concat_map (fun sf -> List.map (fun n -> n.stmts) (Array.to_list sf.nests))
          (Array.to_list files);
      script;
      spool = Pool.create ~domains ~metrics:spool_metrics ();
      spool_metrics;
      warm = None;
    }
  in
  s.warm <- Some (warm_engine s);
  s

let release_session s =
  Pool.shutdown s.spool;
  rm_rf s.sdir

let reply_text = function
  | Service.Server.Ok_payload s -> Ok s
  | Service.Server.Err e -> Error e
  | Service.Server.Bye -> Error "BYE"

(* "reanalyze: N units, H reused, C computed" *)
let reuse_of_reply text =
  match Scanf.sscanf text "reanalyze: %d units, %d reused" (fun n h -> (n, h)) with
  | r -> Some r
  | exception _ -> None

let drop_first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> ""

(* What the first repetition learned: each reply's digest, and unit
   reuse after size-preserving [0] and size-changing [1] edits as
   (units, reused). *)
type first_rep = { digests : Hash.Fnv.t list array; reuse : (int * int) array }

(* One repetition of the edit script on a warm engine. Each request's
   latency is added to [lat]. The first repetition checks a seeded
   sample of steps against a fresh engine; later ones must reply
   byte-identically to the first. *)
let session_pass s rng tel lat (first : first_rep option) =
  let engine =
    match s.warm with
    | Some e -> e
    | None ->
      (* Collect the previous repetition's engine before warming the next:
         warmed while the old one was still live, repetitions alternated
         fast and slow by some 15%. *)
      Gc.full_major ();
      warm_engine s
  in
  s.warm <- None;
  let digests = Array.make session_steps [] in
  let reuse = [| (0, 0); (0, 0) |] in
  Gc.full_major ();
  add_pool_tel ~sign:(-1) tel s.spool_metrics;
  Array.iteri
    (fun i st ->
      let path = s.paths.(st.file) in
      (* The editor drops the old version before saving the new one, so
         the engine holds only live versions (and their units). *)
      ignore (Service.Server.handle engine ("INVALIDATE " ^ path));
      write_file path st.src;
      let replies =
        List.mapi
          (fun j line ->
            let t0 = now () in
            let r = Service.Server.handle ~pool:s.spool engine line in
            lat.(i).(j) <- (now () -. t0) :: lat.(i).(j);
            let r = reply_text r in
            op line (Result.is_ok r);
            r)
          (requests s st)
      in
      digests.(i) <-
        List.map (function Ok t -> Hash.Fnv.of_strings [ t ] | Error _ -> Hash.Fnv.empty) replies;
      match first with
      | Some f ->
        invariant (Printf.sprintf "step %d replies differ between repetitions" i)
          (List.equal Hash.Fnv.equal digests.(i) f.digests.(i))
      | None ->
        (match replies with
         | Ok text :: _ -> (
           match reuse_of_reply text with
           | Some (n, h) ->
             let c = if st.changing then 1 else 0 in
             let tn, th = reuse.(c) in
             reuse.(c) <- (tn + n, th + h)
           | None -> fail "REANALYZE reply without a reuse line")
         | _ -> ());
        if Random.State.int rng check_every = 0 then begin
          (* REANALYZE's reply is the classification under a reuse line. *)
          let fresh = Engine.create ~capacity:session_capacity () in
          let expect =
            [
              Engine.render fresh Engine.Classify st.src;
              Engine.render fresh Engine.Deps st.src;
              Engine.render fresh Engine.Trip st.src;
            ]
            @ match st.other with
              | Some (_, text) -> [ Engine.render fresh Engine.Classify text ]
              | None -> []
          in
          List.iteri
            (fun j (got, want) ->
              let got = if j = 0 then Result.map drop_first_line got else got in
              op (Printf.sprintf "step %d request %d against a fresh engine" i j)
                (result_eq got want))
            (List.combine replies expect)
        end)
    s.script;
  add_pool_tel tel s.spool_metrics;
  invariant "evictions in the edit session"
    ((Engine.cache_stats engine).Service.Cache.evictions = 0);
  { digests; reuse }

(* The traced run: replay the first [traced_steps] steps on a pair of
   fresh 1-domain engines warmed like the session's (see [twin]). Each
   step drops the file's old version, sends the new one through the
   layers, then classifies the unchanged file (a memory hit). *)
let session_traced s =
  let side () =
    let engine = Engine.create ~capacity:session_capacity () in
    Array.iter
      (fun src -> List.iter (fun a -> ignore (Engine.render engine a src)) artifacts)
      s.initial;
    (engine, Array.copy s.initial)
  in
  let ((engine, _) as untraced) = side () in
  let traced = side () in
  let step ?book (engine, texts) st () =
    ignore (Engine.invalidate engine texts.(st.file));
    texts.(st.file) <- st.src;
    let _, wall = layered ?book engine st.src in
    match st.other with
    | None -> wall
    | Some (_, other) ->
      let t0 = now () in
      let r = span "service.classify_hit" (fun () -> Engine.render engine Engine.Classify other) in
      let wall = wall +. (now () -. t0) in
      op "CLASSIFY of an unchanged file" (Result.is_ok r);
      wall
  in
  let tw = twin () in
  let h0, m0 = pass_counts engine Pipeline.Unitclassify in
  Gc.full_major ();
  Array.iteri
    (fun i st ->
      if i < traced_steps then
        twin_op tw ~untraced:(step ~book:tw.acc untraced st) ~traced:(step traced st))
    s.script;
  let h1, m1 = pass_counts engine Pipeline.Unitclassify in
  {
    tw;
    cache = Engine.cache_stats engine;
    unit_hits = h1 - h0;
    unit_misses = m1 - m0;
    store_stats = None;
  }

let run_session () =
  let s, setup_s = repeated_setup ~release:release_session setup_session in
  let tel = pool_tel () in
  let rng = Random.State.make [| !seed; 0xc4ec |] in
  let lat = Array.init session_steps (fun i -> Array.make (List.length (requests s s.script.(i))) []) in
  let first = ref None in
  let reps =
    timed_loop ~min_iters:3 (fun _ ->
        let r = session_pass s rng tel lat !first in
        if !first = None then first := Some r)
  in
  (* A request's latency is its fastest over the repetitions, for the
     reason given at [batch_e2e]. *)
  let typical =
    List.concat_map (fun row -> List.map fastest (Array.to_list row)) (Array.to_list lat)
  in
  let ms = List.map (fun t -> t *. 1e3) typical in
  let p95 = percentile 0.95 ms in
  let beyond_p95 = List.length (List.filter (fun x -> x > p95) ms) in
  invariant (Printf.sprintf "only %d samples beyond p95" beyond_p95) (beyond_p95 >= 10);
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("files_per_s", float session_steps /. List.fold_left ( +. ) 0.0 typical, "files/s");
      ("req_p50_ms", median ms, "ms");
      ("req_p95_ms", p95, "ms");
    ]
  in
  let rss = peak_rss_mb () in
  let reuse = match !first with Some f -> f.reuse | None -> [| (0, 0); (0, 0) |] in
  let share (n, h) = ratio (float h) (float n) in
  let layers =
    if !traced then begin
      per_layer_metrics ~tel
        ~tel_ops:(session_steps * List.length reps)
        ~split:(share reuse.(0), share reuse.(1))
        (session_traced s)
    end
    else []
  in
  verify_programs rng
    (List.map (fun stmts -> Ir.Ast.to_string { Ir.Ast.decls = []; stmts }) s.final_nests);
  let changing = Array.fold_left (fun n st -> if st.changing then n + 1 else n) 0 s.script in
  let info =
    [
      ("files", string_of_int session_files);
      ("nests_per_file", string_of_int nests_per_file);
      ("lines_per_file", string_of_int (List.length (String.split_on_char '\n' s.initial.(0))));
      ("steps", string_of_int session_steps);
      ("repetitions", string_of_int (List.length reps));
      ("requests", string_of_int (List.length typical));
      ("samples_beyond_p95", string_of_int beyond_p95);
      ("size_changing_share", Printf.sprintf "%.4f" (ratio (float changing) (float session_steps)));
      ("unit_reuse_size_preserving", Printf.sprintf "%.4f" (share reuse.(0)));
      ("unit_reuse_size_changing", Printf.sprintf "%.4f" (share reuse.(1)));
      ("engine_capacity", string_of_int session_capacity);
    ]
  in
  release_session s;
  (e2e, rss, layers, info)

(* -- output -- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_string s = Printf.sprintf "%S" s

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let run =
    match !workload with
    | "batch-cold" -> fun () -> run_batch ~with_store:false
    | "store-restart" -> fun () -> run_batch ~with_store:true
    | "edit-session" -> run_session
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  mkdir_p !work_root;
  let e2e, rss, layers, info = run () in
  let ok_ratio = 1.0 -. ratio (float !failed) (float (max 1 !attempted)) in
  let e2e = e2e @ [ ("peak_rss_mb", rss, "MB"); ("ok_ratio", ok_ratio, "ratio") ] in
  let provenance =
    [
      ("workload", !workload);
      ("seed", string_of_int !seed);
      ("seconds", json_number !seconds);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("domains", string_of_int domains);
      ("ocaml", Sys.ocaml_version);
      ("ocamlrunparam", Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"));
      ( "gen_knobs",
        Printf.sprintf "depth=%d max_trip=%d max_block=%d" knobs.Corpus.Gen.depth
          knobs.Corpus.Gen.max_trip knobs.Corpus.Gen.max_block );
      ("setup_reps", string_of_int setup_reps);
      ("failed_ratio", json_number (ratio (float !failed) (float (max 1 !attempted))));
    ]
    @ info
  in
  Printf.printf "# provenance {%s}\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v)) provenance));
  let metrics = if !traced then layers else e2e in
  List.iter (fun (n, v, u) -> Printf.printf "# %-44s %16.6f %s\n" n v u) (e2e @ layers);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_number v)
              (json_string u))
          metrics))
