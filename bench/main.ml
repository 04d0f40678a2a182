(* Benchmark harness: regenerates every experiment of DESIGN.md's index.

   The paper's evaluation consists of (a) the worked examples of Figures
   1-10 / loops L1-L24, and (b) the complexity claim that the algorithm
   is "linear in the size of the SSA graph, not iterative". The harness
   therefore prints:

     1. the classification reproduction for every figure (paper row vs
        measured row) — experiments F1..F10, L14, T1;
     2. Bechamel timings for the SSA classifier vs the classical
        iterative baseline over growing loop bodies and derived-IV chain
        depths — experiments C1 (speed/shape) and C2 (generality);
     3. dependence-testing reproductions for the §6 examples.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Workload generators                                                  *)
(* ------------------------------------------------------------------ *)

(* A loop body of [n] independent linear updates: SSA-graph size grows
   linearly with [n]. *)
let straightline_loop n =
  let vars = List.init n (fun i -> Printf.sprintf "v%d" i) in
  let inits = List.map (fun v -> Printf.sprintf "%s = 0" v) vars in
  let updates = List.map (fun v -> Printf.sprintf "  %s = %s + 1" v v) vars in
  let uses = List.mapi (fun i v -> Printf.sprintf "A(%d) = %s" i v) vars in
  String.concat "\n"
    (inits
    @ [ "T: loop" ]
    @ updates
    @ [ "  if v0 > 100 exit"; "endloop" ]
    @ uses)

(* A derived chain of depth [k], announced in reverse program order: the
   classical algorithm discovers one link per pass (quadratic work), the
   SSA classifier does it in one Tarjan pass. *)
let chain_loop k =
  let defs =
    List.init k (fun idx ->
        let j = k - idx in
        if j = 1 then "  j1 = i * 2" else Printf.sprintf "  j%d = j%d + 1" j (j - 1))
  in
  let uses = List.init k (fun idx -> Printf.sprintf "A(%d) = j%d" idx (idx + 1)) in
  String.concat "\n"
    ([ "i = 0"; "T: loop"; "  i = i + 1" ]
    @ defs
    @ [ "  if i > 100 exit"; "endloop" ]
    @ uses)

(* A *forward* chain: j1 = i*2; j2 = j1 + 1; ... — same-iteration derived
   IVs, the friendly textual order. *)
let forward_chain_loop k =
  let defs =
    List.init k (fun idx ->
        let j = idx + 1 in
        if j = 1 then "  j1 = i * 2" else Printf.sprintf "  j%d = j%d + 1" j (j - 1))
  in
  let uses = List.init k (fun idx -> Printf.sprintf "A(%d) = j%d" idx (idx + 1)) in
  String.concat "\n"
    ([ "i = 0"; "T: loop"; "  i = i + 1" ]
    @ defs
    @ [ "  if i > 100 exit"; "endloop" ]
    @ uses)

(* Mixed-class body: every recurrence shape the paper names. *)
let mixed_loop () =
  {|
j = 1
k = 1
l = 1
m = 0
w = 9
p = 1
q = 2
mono = 0
T: for i = 1 to 100 loop
  j = j + i
  k = k + j + 1
  l = l * 2 + 1
  m = 3 * m + 2 * i + 1
  w = i
  t = p
  p = q
  q = t
  if ?? then
    mono = mono + 1
  else
    mono = mono + 2
  endif
  A(j) = k + l + m + w + p + mono
endloop
|}

(* ------------------------------------------------------------------ *)
(* Reproduction tables (figures -> measured classifications)            *)
(* ------------------------------------------------------------------ *)

let figure_rows =
  [
    ( "F1 (Fig 1, loop L7)",
      "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop",
      [
        ("j2", "(L7, n1, c1+k1)");
        ("i1", "(L7, n1+c1, c1+k1)" (* the paper's i3; i's dead phi is pruned here *));
        ("j3", "(L7, n1+c1+k1, c1+k1)");
      ] );
    ( "F3 (Fig 3, loop L8)",
      "i = 1\nL8: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 2\n  endif\nendloop\nA(i) = 1",
      [ ("i2", "(L8, 1, 2)"); ("i3", "(L8, 3, 2)"); ("i4", "(L8, 3, 2)"); ("i5", "(L8, 3, 2)") ] );
    ( "F4 (Fig 4, loop L10)",
      "k = 9\nj = 8\ni = 1\nL10: loop\n  A(k) = A(j) + A(i)\n  k = j\n  j = i\n  i = i + 1\nendloop",
      [
        ("i2", "(L10, 1, 1)");
        ("j2", "wrap order 1 of (L10, 1, 1)");
        ("k2", "wrap order 2 of (L10, 1, 1)");
      ] );
    ( "F5 (Fig 5, loop L13)",
      "j = 1\nk = 2\nl = 3\nL13: loop\n  t = j\n  j = k\n  k = l\n  l = t\n  A(j) = A(k)\nendloop",
      [
        ("j2", "periodic period 3 [1;2;3] phase 0");
        ("k2", "periodic period 3 phase 1");
        ("l2", "periodic period 3 phase 2");
      ] );
    ( "F6 (Fig 6, loop L16)",
      "k = 0\nL16: loop\n  if ?? then\n    k = k + 1\n  else\n    k = k + 2\n  endif\nendloop\nA(k) = 1",
      [ ("k2", "monotonic strictly increasing") ] );
    ( "F7/F8 (Figs 7-8, loops L17/L18)",
      "k = 0\nL17: loop\n  i = 1\n  L18: loop\n    k = k + 2\n    if i > 100 exit\n    i = i + 1\n  endloop\n  k = k + 2\nendloop",
      [
        ("k3", "(L18, (L17, 0, 204), 2)");
        ("k2", "(L17, 0, 204)");
        ("k5", "(L17, 204, 204)");
      ] );
    ( "F9 (Fig 9, loops L19/L20)",
      "j = 0\nL19: for i = 1 to n loop\n  j = j + i\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop",
      [
        ("j2", "(L19, 0, <quadratic>)");
        ("j4", "(L20, (L19, 1, ...), 1)");
        ("i2", "(L19, 1, 1)");
      ] );
    ( "L14 closed forms",
      "j = 1\nk = 1\nl = 1\nm = 0\nL14: for i = 1 to n loop\n  j = j + i\n  k = k + j + 1\n  l = l * 2 + 1\n  m = 3 * m + 2 * i + 1\nendloop\nA(j) = k + l + m",
      [
        ("j3", "(h^2+3h+4)/2");
        ("k3", "(h^3+6h^2+23h+24)/6");
        ("l3", "2^(h+2) - 1");
        ("m3", "6*3^h - h - 3");
      ] );
  ]

let print_reproductions () =
  print_endline "== Experiment F*: figure classifications (paper vs measured) ==";
  List.iter
    (fun (title, src, rows) ->
      Printf.printf "--- %s ---\n" title;
      let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
      List.iter
        (fun (name, paper) ->
          let measured =
            match Analysis.Pipeline.class_of_name t name with
            | Some c -> Analysis.Pipeline.class_to_string t c
            | None -> "<missing>"
          in
          Printf.printf "  %-5s paper: %-34s measured: %s\n" name paper measured)
        rows)
    figure_rows;
  print_newline ()

let print_trip_counts () =
  print_endline "== Experiment T1: trip counts (section 5.2 table) ==";
  let show title src loop expected =
    let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
    let loops = Ir.Ssa.loops t.Analysis.Pipeline.ssa in
    let measured =
      match Ir.Loops.find_by_name loops loop with
      | Some lp ->
        Format.asprintf "%a"
          (Analysis.Trip_count.pp_with (fun id ->
               Ir.Ssa.primary_name t.Analysis.Pipeline.ssa id))
          (Analysis.Pipeline.trip_count t lp.Ir.Loops.id)
      | None -> "<loop missing>"
    in
    Printf.printf "  %-38s paper: %-10s measured: %s\n" title expected measured
  in
  show "L18: i=1; ...; if i > 100 exit"
    "k = 0\nL17: loop\n  i = 1\n  L18: loop\n    k = k + 2\n    if i > 100 exit\n    i = i + 1\n  endloop\nendloop"
    "L18" "100";
  show "L20: for k = 1 to i (triangular)"
    "j = 0\nL19: for i = 1 to n loop\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop\nA(0) = j"
    "L20" "i";
  show "for i = 1 to n" "s = 0\nT: for i = 1 to n loop\n  s = s + 1\nendloop\nA(0) = s" "T" "n";
  show "for i = 10 to 1 by -2"
    "s = 0\nT: for i = 10 to 1 by -2 loop\n  s = s + 1\nendloop\nA(0) = s" "T" "5";
  print_newline ()

let print_dependence_repro () =
  print_endline "== Experiments L21/L22/L23, F10: dependence testing (section 6) ==";
  let show title src =
    Printf.printf "--- %s ---\n" title;
    let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
    let g = Dependence.Dep_graph.build t in
    if g = [] then print_endline "  (no dependences)"
    else
      List.iter
        (fun e -> Format.printf "  %a@." (Dependence.Dep_graph.pp_edge t) e)
        g
  in
  show "L21: A(i) = A(j - i) with i=(L21,1,1), j-i=(L21,2,1)"
    "i = 0\nj = 3\nL21: loop\n  i = i + 1\n  A(i) = A(j - i)\n  j = j + 2\n  if i > 50 exit\nendloop";
  show "L22: periodic relaxation ('=' on members -> '<>' on iterations)"
    "j = 1\nk = 2\nl = 3\nL22: loop\n  A(2 * j) = A(2 * k)\n  temp = j\n  j = k\n  k = l\n  l = temp\n  if ?? exit\nendloop";
  show "L23/L24 triangular nest (iteration-space distance (1,-1))"
    "L23: for i = 1 to n loop\n  L24: for j = i + 1 to n loop\n    A(i, j) = A(i - 1, j)\n  endloop\nendloop";
  show "Fig 10: monotonic directions (B '=', F flow '<=', F anti '<')"
    "k = 0\nL15: for i = 1 to n loop\n  F(k) = A(i)\n  if ?? then\n    k = k + 1\n    B(k) = A(i)\n    E(i) = B(k)\n  endif\n  G(i) = F(k)\nendloop";
  show "L9: wrap-around subscript (dependence holds after 1 iteration)"
    "iml = n\nL9: for i = 1 to n loop\n  A(i) = A(iml) + 1\n  iml = i\nendloop";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Generality comparison (experiment C2)                                *)
(* ------------------------------------------------------------------ *)

let print_generality () =
  print_endline "== Experiment C2: generality (variables recognized) ==";
  let cases =
    [
      ( "textbook (i, j=i*4, k=j+2)",
        "i = 0\nT: loop\n  i = i + 1\n  j = i * 4\n  k = j + 2\n  if i > 9 exit\nendloop\nA(j) = k"
      );
      ( "mutual pair (loop L2)",
        "j = 0\nT: loop\n  i = j + 1\n  j = i + 2\n  if j > 50 exit\nendloop\nA(i) = j" );
      ( "conditional same-offset (Fig 3)",
        "i = 1\nT: loop\n  if ?? then\n    i = i + 2\n  else\n    i = i + 2\n  endif\n  if i > 40 exit\nendloop\nA(i) = 1"
      );
      ("mixed classes (L14 + periodic + monotonic)", mixed_loop ());
    ]
  in
  Printf.printf "  %-45s %10s %10s\n" "workload" "classical" "ssa-based";
  List.iter
    (fun (name, src) ->
      let classical =
        List.fold_left
          (fun acc (_, r) -> acc + Analysis.Baseline.iv_count r)
          0
          (Analysis.Baseline.find_all (Ir.Lower.lower_source src))
      in
      let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
      let ssa = t.Analysis.Pipeline.ssa in
      let ours = ref 0 in
      Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ (i : Ir.Instr.t) ->
          match Analysis.Pipeline.class_of t i.Ir.Instr.id with
          | Analysis.Ivclass.Linear _ | Analysis.Ivclass.Poly _
          | Analysis.Ivclass.Geometric _ | Analysis.Ivclass.Wrap _
          | Analysis.Ivclass.Periodic _ | Analysis.Ivclass.Monotonic _ ->
            incr ours
          | _ -> ());
      Printf.printf "  %-45s %10d %10d\n" name classical !ours)
    cases;
  print_endline
    "  (classical counts source variables; ssa-based counts classified defs —";
  print_endline "   the shape that matters: 0 vs many on the paper's new classes)";
  print_newline ()

let print_ablations () =
  print_endline "== Ablations: what each design piece buys ==";
  (* (a) SCCP: constant initial values vs symbolic ones. *)
  let src = "c = 2 + 3\nk = 0\nT: loop\n  k = k + c\n  if k > 100 exit\nendloop\nA(k) = 1" in
  let step use_sccp =
    let t = Analysis.Pipeline.analyze ~use_sccp (Ir.Ssa.of_source src) in
    match Analysis.Pipeline.class_of_name t "k2" with
    | Some c -> Analysis.Pipeline.class_to_string t c
    | None -> "<missing>"
  in
  Printf.printf "  SCCP on : k2 = %s\n" (step true);
  Printf.printf "  SCCP off: k2 = %s\n" (step false);
  (* (b) Exit-value substitution: the triangular quadratic only exists
     because inner loops collapse to closed-form exit values. *)
  let tri =
    "j = 0\nL19: for i = 1 to n loop\n  j = j + i\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop"
  in
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source tri) in
  (match Analysis.Pipeline.class_of_name t "j2" with
   | Some c ->
     Printf.printf "  with exit-value substitution: j2 = %s\n"
       (Analysis.Pipeline.class_to_string t c)
   | None -> ());
  print_endline
    "  (without section-5.3 exit values the outer cycle would touch an\n\
    \   unclassifiable inner def and j2 would be unknown)";
  (* (c) Coupled-subscript solving: the L23/L24 distance vector. *)
  let nest =
    "L23: for i = 1 to n loop\n  L24: for j = i + 1 to n loop\n    A(i, j) = A(i - 1, j)\n  endloop\nendloop"
  in
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source nest) in
  List.iter
    (fun e -> Format.printf "  coupled system: %a@." (Dependence.Dep_graph.pp_edge t) e)
    (Dependence.Dep_graph.build t);
  print_newline ()

let print_pass_counts () =
  print_endline "== Experiment C1a: scans over the loop body (iterative vs one pass) ==";
  Printf.printf "  %-28s %18s %12s\n" "reversed chain depth" "classical passes" "ssa passes";
  List.iter
    (fun k ->
      let cfg = Ir.Lower.lower_source (chain_loop k) in
      let passes =
        List.fold_left
          (fun acc (_, r) -> Stdlib.max acc r.Analysis.Baseline.passes)
          0
          (Analysis.Baseline.find_all cfg)
      in
      (* The SSA classifier visits each SSA-graph node once by
         construction (Tarjan emission order): always one pass. *)
      Printf.printf "  %-28d %18d %12d\n" k passes 1)
    [ 4; 16; 64 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches (experiment C1)                              *)
(* ------------------------------------------------------------------ *)

let classify_whole src () =
  ignore (Analysis.Pipeline.analyze (Ir.Ssa.of_source src))

let classify_prepared ssa () =
  let loops = Ir.Ssa.loops ssa in
  List.iter
    (fun (lp : Ir.Loops.loop) -> ignore (Analysis.Classify.classify_loop ssa lp))
    (Ir.Loops.postorder loops)

let baseline_prepared cfg () = ignore (Analysis.Baseline.find_all cfg)

let tests () =
  let scaling =
    List.concat_map
      (fun n ->
        let src = straightline_loop n in
        let ssa = Ir.Ssa.of_source src in
        let cfg = Ir.Lower.lower_source src in
        [
          Test.make
            ~name:(Printf.sprintf "scaling/ssa-classify/%d" n)
            (Staged.stage (classify_prepared ssa));
          Test.make
            ~name:(Printf.sprintf "scaling/classical/%d" n)
            (Staged.stage (baseline_prepared cfg));
        ])
      [ 10; 40; 160 ]
  in
  let fwd_chains =
    List.concat_map
      (fun k ->
        let src = forward_chain_loop k in
        let ssa = Ir.Ssa.of_source src in
        let cfg = Ir.Lower.lower_source src in
        [
          Test.make
            ~name:(Printf.sprintf "fwd-chain/ssa-classify/%d" k)
            (Staged.stage (classify_prepared ssa));
          Test.make
            ~name:(Printf.sprintf "fwd-chain/classical/%d" k)
            (Staged.stage (baseline_prepared cfg));
        ])
      [ 4; 16; 64 ]
  in
  let chains =
    List.concat_map
      (fun k ->
        let src = chain_loop k in
        let ssa = Ir.Ssa.of_source src in
        let cfg = Ir.Lower.lower_source src in
        [
          Test.make
            ~name:(Printf.sprintf "chain/ssa-classify/%d" k)
            (Staged.stage (classify_prepared ssa));
          Test.make
            ~name:(Printf.sprintf "chain/classical/%d" k)
            (Staged.stage (baseline_prepared cfg));
        ])
      [ 4; 16; 64 ]
  in
  let pipeline =
    [
      Test.make ~name:"pipeline/fig1"
        (Staged.stage
           (classify_whole "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop"));
      Test.make ~name:"pipeline/l14-closed-forms"
        (Staged.stage (classify_whole (mixed_loop ())));
      Test.make ~name:"pipeline/fig9-triangular"
        (Staged.stage
           (classify_whole
              "j = 0\nL19: for i = 1 to n loop\n  j = j + i\n  L20: for k = 1 to i loop\n    j = j + 1\n  endloop\nendloop"));
      Test.make ~name:"pipeline/dependence-graph"
        (Staged.stage (fun () ->
             let t =
               Analysis.Pipeline.analyze
                 (Ir.Ssa.of_source
                    "L23: for i = 1 to n loop\n  L24: for j = i + 1 to n loop\n    A(i, j) = A(i - 1, j)\n  endloop\nendloop")
             in
             ignore (Dependence.Dep_graph.build t)));
      Test.make ~name:"pipeline/sccp"
        (Staged.stage (fun () ->
             ignore (Analysis.Sccp.run (Ir.Ssa.of_source (straightline_loop 40)))));
      Test.make ~name:"pipeline/ssa-construction"
        (Staged.stage (fun () -> ignore (Ir.Ssa.of_source (straightline_loop 40))));
    ]
  in
  scaling @ fwd_chains @ chains @ pipeline

let run_benchmarks () =
  print_endline "== Experiment C1: timing (Bechamel, monotonic clock) ==";
  print_endline
    "   claim: ssa-classify is ~linear in loop size; the classical pass is";
  print_endline "   superlinear on derived chains (one scan per chain link)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
      List.iter
        (fun (name, ols_result) ->
          let nanos =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> Float.nan
          in
          Printf.printf "  %-32s %12.1f ns/run\n" name nanos)
        (List.sort compare rows))
    (List.map (fun t -> Test.make_grouped ~name:"bench" [ t ]) (tests ()));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Experiment B1: service batch reuse                                   *)
(* ------------------------------------------------------------------ *)

(* Batch-analyze a generated corpus through lib/service at one domain,
   three ways: cold (fresh engine), disk (a fresh engine over a
   populated persistent store — the restarted-server shape, see
   docs/STORE.md) and warm (the cold engine again). Each row holds only
   deterministic counters — cache and store traffic, the engine's pass
   misses and the minor words allocated per file — so `make bench-gate`
   can hold them to 1%. Wall-clock comparison lives in perfbench. The
   run fails outright when the warm pass misses the cache or the disk
   pass misses the store: that is a broken experiment, not a
   measurement. *)

(* The corpus is drawn from the seeded generator (Corpus.Gen — the
   same engine as `ivtool gen` and the property tests), so every run
   sees identical programs. *)
let b1_seed = 1992
let b1_files = 32
let b1_artifacts = [ Service.Engine.Classify; Service.Engine.Deps; Service.Engine.Trip ]

let rec b1_rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> b1_rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let b1_open_store root =
  match Store.Disk.open_store ~root () with
  | Ok s -> s
  | Error msg -> failwith ("B1: " ^ msg)

let b1_counters engine =
  let c = Service.Engine.cache_stats engine in
  let s = Option.map Store.Disk.stats (Service.Engine.store engine) in
  [
    ("cache_hits", c.Service.Cache.hits);
    ("cache_misses", c.Service.Cache.misses);
    ("store_hits", Option.fold ~none:0 ~some:(fun s -> s.Store.Disk.hits) s);
    ("store_misses", Option.fold ~none:0 ~some:(fun s -> s.Store.Disk.misses) s);
    ( "passes_run",
      List.fold_left (fun acc (_, _, m) -> acc + m) 0
        (Service.Engine.pass_stats engine) );
  ]

(* One pass over [items]: the engine's counters as deltas across it,
   and the minor words it allocated per file. At one domain the pass
   runs inline, so this domain's [Gc.minor_words] sees every word. *)
let b1_pass engine items =
  let before = b1_counters engine in
  let w0 = Gc.minor_words () in
  let results =
    Service.Batch.run ~domains:1 ~engine ~artifacts:b1_artifacts items
  in
  let words = Gc.minor_words () -. w0 in
  List.iter
    (fun ((item : Service.Batch.item), r) ->
      match r with
      | Ok _ -> ()
      | Error msg -> failwith (Printf.sprintf "B1: %s failed: %s" item.name msg))
    results;
  List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (b1_counters engine)
  @ [ ("minor_words_per_file", int_of_float (words /. float_of_int b1_files)) ]

let b1_rows () =
  let items =
    List.map
      (fun (name, source) -> { Service.Batch.name; source })
      (Corpus.Gen.corpus ~seed:b1_seed ~count:b1_files ())
  in
  let store_root = Filename.temp_file "ivbench_store" "" in
  Sys.remove store_root;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store_root then b1_rm_rf store_root)
    (fun () ->
      let populate =
        Service.Engine.create ~capacity:4096 ~store:(b1_open_store store_root) ()
      in
      ignore (Service.Batch.run ~domains:1 ~engine:populate ~artifacts:b1_artifacts items);
      let engine = Service.Engine.create ~capacity:4096 () in
      let cold = b1_pass engine items in
      let disk =
        b1_pass
          (Service.Engine.create ~capacity:4096 ~store:(b1_open_store store_root) ())
          items
      in
      let warm = b1_pass engine items in
      if List.assoc "cache_misses" warm > 0 then
        failwith "B1: the warm pass missed the memory cache";
      if List.assoc "store_misses" disk > 0 then
        failwith "B1: the disk pass missed the store";
      [ ("cold", cold); ("disk", disk); ("warm", warm) ])

(* Every BENCH_*.json has one shape: the experiment's name, its
   description and its header fields one per line, then its rows, one
   object per line under [rows_key]. bench-diff reads them as JSON; the
   one-row-per-line layout and the ["key": value] spacing are what line
   tools (CI's gate-bite edit) rely on. *)
type json = Int of int | Str of string | Bool of bool | Strs of string list

let json_value = function
  | Int n -> string_of_int n
  | Str s -> Printf.sprintf "\"%s\"" s
  | Bool b -> string_of_bool b
  | Strs l -> "[" ^ String.concat ", " (List.map (Printf.sprintf "\"%s\"") l) ^ "]"

let json_field (k, v) = Printf.sprintf "\"%s\": %s" k (json_value v)

let write_bench file ~experiment ~description header rows_key rows =
  let field f = "  " ^ json_field f ^ "," in
  let row fields = "    {" ^ String.concat ", " (List.map json_field fields) ^ "}" in
  let header = ("experiment", Str experiment) :: ("description", Str description) :: header in
  let lines =
    ("{" :: List.map field header)
    @ [ Printf.sprintf "  \"%s\": [" rows_key; String.concat ",\n" (List.map row rows) ]
    @ [ "  ]"; "}" ]
  in
  let oc = open_out file in
  output_string oc (String.concat "\n" lines ^ "\n");
  close_out oc;
  Printf.printf "   wrote %s\n" file

let experiment_b1 () =
  print_endline "== Experiment B1: service batch reuse (lib/service) ==";
  let rows = b1_rows () in
  Printf.printf "   corpus: %d generated programs x %d artifacts, 1 domain\n"
    b1_files (List.length b1_artifacts);
  List.iter
    (fun (cache, fields) ->
      Printf.printf "  %-4s %s\n" cache
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fields)))
    rows;
  write_bench "BENCH_service.json" ~experiment:"B1"
    ~description:
      "service batch reuse at 1 domain: cold vs disk-warm (persistent store, fresh \
       engine) vs memory-warm cache"
    [ ("corpus_files", Int b1_files); ("artifacts", Strs [ "classify"; "deps"; "trip" ]) ]
    "runs"
    (List.map
       (fun (cache, fields) ->
         ("cache", Str cache) :: List.map (fun (k, v) -> (k, Int v)) fields)
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Experiment B2: incremental re-analysis (per-nest units)             *)
(* ------------------------------------------------------------------ *)

(* One program of [b2_nests] independent top-level loop nests; edit
   exactly one nest and re-analyze. The full run classifies every nest;
   the incremental runs reuse the unit cache for the untouched nests and
   recompute only the edited one, whether the edit keeps every id
   ([edited]: an operator flips) or shifts them ([inserted]: one more
   statement, so every later id and every phi id moves). All must
   render byte-identical classify/trip/deps reports. *)

let b2_nests = 24

let b2_program ?edited ?inserted n =
  String.concat "\n"
    (List.init n (fun i ->
         let body =
           if edited = Some i then Printf.sprintf "s%d - i%d" i i
           else Printf.sprintf "s%d + i%d" i i
         in
         let extra =
           if inserted = Some i then Printf.sprintf "  s%d = s%d + 1\n" i i else ""
         in
         Printf.sprintf
           "s%d = 0\nN%d: for i%d = 1 to n loop\n  s%d = %s\n%s  A%d(i%d) = s%d\nendloop"
           i i i i body extra i i i))
  ^ "\n"

let b2_artifacts = [ Service.Engine.Classify; Service.Engine.Trip; Service.Engine.Deps ]

let b2_render engine src =
  List.map
    (fun a ->
      match Service.Engine.render engine a src with
      | Ok text -> text
      | Error msg -> failwith ("B2: " ^ msg))
    b2_artifacts

let b2_unit_stat engine =
  match
    List.find_opt (fun (p, _, _) -> p = "unit_classify")
      (Service.Engine.pass_stats engine)
  with
  | Some (_, hits, misses) -> (hits, misses)
  | None -> (0, 0)

let b2_rows () =
  let old_src = b2_program b2_nests in
  let full = Service.Engine.create ~capacity:4096 () in
  (* Each incremental engine primes on [old_src] first: the serve-mode
     REANALYZE shape. *)
  let incremental new_src =
    let cold = b2_render (Service.Engine.create ~capacity:4096 ()) new_src in
    let inc = Service.Engine.create ~capacity:4096 () in
    ignore (b2_render inc old_src);
    let h0, m0 = b2_unit_stat inc in
    let merged = b2_render inc new_src in
    let h1, m1 = b2_unit_stat inc in
    (* Byte-identity is part of the experiment's claim: check it on every
       harness run, not only in the test suite. *)
    if merged <> cold then failwith "B2: incremental reports diverge from cold run";
    (h1 - h0, m1 - m0)
  in
  ignore (b2_render full (b2_program ~edited:(b2_nests / 2) b2_nests));
  [
    ("full", b2_unit_stat full);
    ("incremental", incremental (b2_program ~edited:(b2_nests / 2) b2_nests));
    ( "incremental-size-changing",
      incremental (b2_program ~inserted:(b2_nests / 2) b2_nests) );
  ]

let experiment_b2 () =
  print_endline "== Experiment B2: incremental re-analysis (per-nest units) ==";
  let rows = b2_rows () in
  Printf.printf
    "   program: %d top-level nests; edit one nest, re-render classify+trip+deps\n"
    b2_nests;
  List.iter
    (fun (mode, (hits, misses)) ->
      Printf.printf "  %-12s unit hits=%d misses=%d\n" mode hits misses)
    rows;
  print_endline "   merged reports byte-identical";
  write_bench "BENCH_incremental.json" ~experiment:"B2"
    ~description:
      "incremental re-analysis: edit one of N top-level loop nests, reuse per-unit \
       artifacts for the rest"
    [
      ("nests", Int b2_nests);
      ("artifacts", Strs [ "classify"; "trip"; "deps" ]);
      ("byte_identical", Bool true);
    ]
    "runs"
    (List.map
       (fun (mode, (hits, misses)) ->
         [ ("mode", Str mode); ("unit_hits", Int hits); ("unit_misses", Int misses) ])
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Experiment B4: range-sharpened dependence precision + bounds checks  *)
(* ------------------------------------------------------------------ *)

(* Over the examples corpus, count dependence edges with and without
   the value-range analysis feeding the Banerjee tests, and count the
   bounds checks the same intervals eliminate. The headline numbers:
   pairs newly proven independent (baseline edges minus ranged edges)
   and checks eliminated — both must be nonzero for the pass to have
   earned its place in the pipeline. *)

(* The corpus is looked up when B4 runs (from the repo root or one level
   below it), so B1 and B2 have run and written their files first. *)
let b4_corpus () =
  let candidates =
    [
      Filename.concat "examples" "programs";
      Filename.concat (Filename.concat ".." "examples") "programs";
    ]
  in
  let dir =
    match List.find_opt Sys.file_exists candidates with
    | Some dir -> dir
    | None ->
      failwith
        ("B4: corpus not found at " ^ String.concat " or " candidates
       ^ " (run from the repo root)")
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".iv")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         let ic = open_in_bin path in
         let src = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, src))

type b4_row = {
  b4_name : string;
  b4_baseline_edges : int;
  b4_ranged_edges : int;
  b4_eliminated : int;
  b4_retained : int;
}

let b4_rows () =
  List.map
    (fun (name, src) ->
      let d = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
      let r = Analysis.Pipeline.range_of d in
      let baseline = List.length (Dependence.Dep_graph.build d) in
      let ranged = List.length (Dependence.Dep_graph.build ~ranges:r d) in
      let eliminated, retained =
        match Ir.Parser.parse_result src with
        | Ok prog when prog.Ir.Ast.decls <> [] ->
          let s =
            Transform.Bounds_elim.analyze r d.Analysis.Pipeline.ssa prog
          in
          (s.Transform.Bounds_elim.eliminated, s.Transform.Bounds_elim.retained)
        | _ -> (0, 0)
      in
      {
        b4_name = name;
        b4_baseline_edges = baseline;
        b4_ranged_edges = ranged;
        b4_eliminated = eliminated;
        b4_retained = retained;
      })
    (b4_corpus ())

let experiment_b4 () =
  print_endline
    "== Experiment B4: range-sharpened dependence precision (lib/analysis) ==";
  let rows = b4_rows () in
  List.iter
    (fun r ->
      Printf.printf
        "  %-26s edges: %d -> %d with ranges; checks: %d eliminated, %d retained\n"
        r.b4_name r.b4_baseline_edges r.b4_ranged_edges r.b4_eliminated
        r.b4_retained)
    rows;
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let independent = total (fun r -> r.b4_baseline_edges - r.b4_ranged_edges) in
  let eliminated = total (fun r -> r.b4_eliminated) in
  Printf.printf
    "   corpus total: %d pairs newly proven independent, %d bounds checks eliminated\n"
    independent eliminated;
  (* The pass must pay for itself: nonzero precision gain on both
     consumers, checked on every harness run. *)
  if independent <= 0 then failwith "B4: range sharpening proved nothing";
  if eliminated <= 0 then failwith "B4: no bounds check eliminated";
  write_bench "BENCH_ranges.json" ~experiment:"B4"
    ~description:
      "value-range precision: dependence edges with/without range sharpening, and \
       bounds checks eliminated, over the examples corpus"
    [
      ("corpus_files", Int (List.length rows));
      ("pairs_proven_independent", Int independent);
      ("checks_eliminated", Int eliminated);
      ("checks_retained", Int (total (fun r -> r.b4_retained)));
    ]
    "rows"
    (List.map
       (fun r ->
         [
           ("file", Str r.b4_name);
           ("baseline_edges", Int r.b4_baseline_edges);
           ("ranged_edges", Int r.b4_ranged_edges);
           ("checks_eliminated", Int r.b4_eliminated);
           ("checks_retained", Int r.b4_retained);
         ])
       rows);
  print_newline ()

let () =
  (* The three counter experiments run in every mode; `--smoke` (what
     `make bench-gate` runs) skips the reproduction tables and the
     Bechamel sweep. *)
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  if not smoke then begin
    print_reproductions ();
    print_trip_counts ();
    print_dependence_repro ();
    print_generality ();
    print_ablations ();
    print_pass_counts ()
  end;
  experiment_b1 ();
  experiment_b2 ();
  experiment_b4 ();
  if not smoke then run_benchmarks ();
  print_endline "bench: done"
