(* GC/allocation profiling built on [Gc.quick_stat] deltas.

   [Gc.quick_stat] is cheap (no heap traversal) and, on OCaml 5,
   domain-local for the minor-heap counters — so sampling inside a pool
   worker attributes allocation to that worker's domain, which is
   exactly what the per-domain scheduler telemetry needs. Major-heap
   figures (major_words, major_collections, heap_words) are shared
   across domains; deltas of those taken on one domain over-attribute
   work done concurrently elsewhere, which is why the per-phase table
   leads with minor words (the reliable per-domain signal).

   Deltas land in plain [Instrument] counters named
   [<prefix>.minor_words], [<prefix>.promoted_words],
   [<prefix>.major_words], [<prefix>.minor_gcs], [<prefix>.major_gcs]
   (optionally with a trailing [{k="v"}] label block via
   [Instrument.labeled]), so every exposition surface — STATS dump,
   Prometheus, the --profile table — reads them with no new plumbing. *)

type sample = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

let sample () =
  let s = Gc.quick_stat () in
  {
    (* Not [s.minor_words]: on OCaml 5 the quick_stat field only
       advances at GC events, so short spans that trigger no minor
       collection would read as zero allocation. [Gc.minor_words ()]
       adds the live young-region delta and is exact per domain. *)
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    heap_words = s.Gc.heap_words;
  }

type delta = {
  d_minor_words : int;
  d_promoted_words : int;
  d_major_words : int;
  d_minor_gcs : int;
  d_major_gcs : int;
  d_heap_words : int;  (* level at the end sample, not a difference *)
}

let words f = if Float.is_finite f && f > 0.0 then int_of_float f else 0

let delta before after =
  {
    d_minor_words = words (after.minor_words -. before.minor_words);
    d_promoted_words = words (after.promoted_words -. before.promoted_words);
    d_major_words = words (after.major_words -. before.major_words);
    d_minor_gcs = max 0 (after.minor_collections - before.minor_collections);
    d_major_gcs = max 0 (after.major_collections - before.major_collections);
    d_heap_words = after.heap_words;
  }

let field_names =
  [| "minor_words"; "promoted_words"; "major_words"; "minor_gcs"; "major_gcs" |]

let field_values d =
  [| d.d_minor_words; d.d_promoted_words; d.d_major_words; d.d_minor_gcs; d.d_major_gcs |]

let fields d = Array.to_list (Array.map2 (fun f v -> (f, v)) field_names (field_values d))

(* The handles [record] writes: the counters in [field_names] order
   and the heap gauge. All are registered together on the first record,
   so a recorder exports every series of its prefix from then on, at
   zero where no delta reached it yet. Names are built once, and the
   registry lock is taken once per handle rather than once per field
   per call. *)
type recorder = {
  r_metrics : Instrument.t;
  r_names : string array;
  mutable r_handles : (Instrument.counter array * Instrument.gauge) option;
}

let recorder ?(labels = []) m ~prefix =
  {
    r_metrics = m;
    r_names =
      Array.map (fun field -> Instrument.labeled (prefix ^ "." ^ field) labels) field_names;
    r_handles = None;
  }

let record r d =
  let counters, heap =
    match r.r_handles with
    | Some h -> h
    | None ->
      let h =
        ( Array.map (Instrument.counter r.r_metrics) r.r_names,
          Instrument.gauge r.r_metrics "gc.heap_words" )
      in
      r.r_handles <- Some h;
      h
  in
  Array.iteri (fun i v -> if v <> 0 then Instrument.incr ~by:v counters.(i)) (field_values d);
  Instrument.set_gauge heap d.d_heap_words

let attrs d =
  List.filter_map
    (fun (field, v) -> if v = 0 then None else Some (field, Trace.Int v))
    (fields d)

let time m name f =
  let h = Instrument.histogram m name in
  let before = sample () in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Instrument.observe h (Unix.gettimeofday () -. t0);
      record (recorder m ~prefix:name) (delta before (sample ())))
    f

(* --- the --profile per-pass table --- *)

(* Rows come straight out of a registry snapshot: one row per
   [phase.<pass>] histogram, joined with its sibling GC counters. The
   label block (if any) stays part of the pass name, so per-domain
   phase breakdowns would render as distinct rows. *)
let phase_prefix = "phase."

let phase_table m =
  let snap = Instrument.snapshot m in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Instrument.V_counter v) -> v
    | _ -> 0
  in
  let rows =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Instrument.V_histogram { v_count; v_sum; _ }
          when String.length name > String.length phase_prefix
               && String.sub name 0 (String.length phase_prefix) = phase_prefix ->
          let pass =
            String.sub name (String.length phase_prefix)
              (String.length name - String.length phase_prefix)
          in
          Some
            ( pass,
              v_count,
              v_sum,
              counter (name ^ ".minor_words"),
              counter (name ^ ".promoted_words"),
              counter (name ^ ".major_words"),
              counter (name ^ ".minor_gcs"),
              counter (name ^ ".major_gcs") )
        | _ -> None)
      snap
  in
  let rows =
    List.sort
      (fun (na, _, sa, _, _, _, _, _) (nb, _, sb, _, _, _, _, _) ->
        match Float.compare sb sa with 0 -> String.compare na nb | c -> c)
      rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "profile: per-pass wall / allocation / GC (sorted by wall time)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-16s %6s %10s %12s %12s %12s %5s %5s\n" "pass" "calls"
       "wall_us" "minor_w" "promoted_w" "major_w" "mGC" "MGC");
  let t_calls = ref 0 and t_sum = ref 0.0 in
  let t_minor = ref 0 and t_prom = ref 0 and t_major = ref 0 in
  let t_mgc = ref 0 and t_mjgc = ref 0 in
  List.iter
    (fun (pass, calls, sum, minor, prom, major, mgc, mjgc) ->
      t_calls := !t_calls + calls;
      t_sum := !t_sum +. sum;
      t_minor := !t_minor + minor;
      t_prom := !t_prom + prom;
      t_major := !t_major + major;
      t_mgc := !t_mgc + mgc;
      t_mjgc := !t_mjgc + mjgc;
      Buffer.add_string buf
        (Printf.sprintf "%-16s %6d %10s %12d %12d %12d %5d %5d\n" pass calls
           (Instrument.us_string sum) minor prom major mgc mjgc))
    rows;
  if rows = [] then Buffer.add_string buf "(no phase.* histograms recorded)\n"
  else
    Buffer.add_string buf
      (Printf.sprintf "%-16s %6d %10s %12d %12d %12d %5d %5d\n" "total" !t_calls
         (Instrument.us_string !t_sum)
         !t_minor !t_prom !t_major !t_mgc !t_mjgc);
  (match List.assoc_opt "gc.heap_words" snap with
   | Some (Instrument.V_gauge words) ->
     Buffer.add_string buf (Printf.sprintf "major heap: %d words\n" words)
   | _ -> ());
  Buffer.contents buf
