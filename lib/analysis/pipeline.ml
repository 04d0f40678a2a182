(* The demand-driven analysis pipeline.

   The classification walk runs one set of loop nests at a time
   ([analyze_nests]): per analysis unit in a pipeline instance, over the
   whole loop forest for SSA-only callers ([Driver.analyze]). The lazy
   instance below adds per-pass memoization with stable result digests
   for the service layer's cache keys. *)

(* -- the pass DAG -- *)

type pass =
  | Parse
  | Lower
  | Ssa
  | Looptree
  | Sccp
  | Units
  | Unitclassify
  | Classify
  | Trip
  | Ranges
  | Depgraph
  | VerifyIr
  | VerifyClass
  | VerifyRanges
  | VerifyTrans

let all =
  [
    Parse;
    Lower;
    Ssa;
    VerifyIr;
    Looptree;
    Sccp;
    Units;
    Unitclassify;
    Classify;
    Trip;
    Ranges;
    Depgraph;
    VerifyClass;
    VerifyRanges;
    VerifyTrans;
  ]

let name = function
  | Parse -> "parse"
  | Lower -> "lower"
  | Ssa -> "ssa"
  | Looptree -> "looptree"
  | Sccp -> "sccp"
  | Units -> "units"
  | Unitclassify -> "unit_classify"
  | Classify -> "classify"
  | Trip -> "trip"
  | Ranges -> "range"
  | Depgraph -> "depgraph"
  | VerifyIr -> "verify_ir"
  | VerifyClass -> "verify_class"
  | VerifyRanges -> "verify_ranges"
  | VerifyTrans -> "verify_trans"

let of_name = function
  | "parse" -> Some Parse
  | "lower" -> Some Lower
  | "ssa" -> Some Ssa
  | "looptree" -> Some Looptree
  | "sccp" -> Some Sccp
  | "units" -> Some Units
  | "unit_classify" -> Some Unitclassify
  | "classify" -> Some Classify
  | "trip" -> Some Trip
  | "range" -> Some Ranges
  | "depgraph" -> Some Depgraph
  | "verify_ir" -> Some VerifyIr
  | "verify_class" -> Some VerifyClass
  | "verify_ranges" -> Some VerifyRanges
  | "verify_trans" -> Some VerifyTrans
  | _ -> None

(* Ssa depends on Parse, not Lower: SSA conversion mutates the CFG it
   consumes, so the Lower pass keeps the pristine pre-SSA view and the
   SSA pass lowers its own copy from the AST. *)
let inputs = function
  | Parse -> []
  | Lower -> [ Parse ]
  | Ssa -> [ Parse ]
  | Looptree -> [ Ssa ]
  | Sccp -> [ Ssa ]
  | Units -> [ Looptree; Sccp ]
  | Unitclassify -> [ Units ]
  | Classify -> [ Units ]
  | Trip -> [ Classify ]
  | Ranges -> [ Classify ]
  | Depgraph -> [ Classify ]
  | VerifyIr -> [ Lower; Ssa ]
  | VerifyClass -> [ Classify ]
  | VerifyRanges -> [ Ranges ]
  | VerifyTrans -> [ Parse; Classify ]

let description = function
  | Parse -> "source text -> AST"
  | Lower -> "AST -> pre-SSA control-flow graph"
  | Ssa -> "AST -> SSA form (CFG, dominators, loop forest)"
  | Looptree -> "SSA -> loop-nesting forest"
  | Sccp -> "conditional constant propagation"
  | Units -> "analysis-unit partition: loop nests + straight runs, per-unit digests"
  | Unitclassify -> "per-unit classification walk through the unit cache (service layer)"
  | Classify -> "per-nest IV classification, trip counts, exit values, multiloop promotion"
  | Trip -> "trip-count report"
  | Ranges -> "per-def value intervals (classification + SCCP seeds, widened fixpoint)"
  | Depgraph -> "dependence graph (service layer)"
  | VerifyIr -> "structural IR verification: CFG, SSA, looptree (service layer)"
  | VerifyClass -> "classification oracle vs the interpreter (service layer)"
  | VerifyRanges -> "range-interval oracle vs the interpreter (service layer)"
  | VerifyTrans -> "transform validation, structural + differential (service layer)"

(* Passes whose results the pipeline cannot compute itself: the engine
   forces them (dependence testing lives in lib/dependence, checked mode
   in lib/verify, and the unit walk needs the engine's shared artifact
   cache) and records completion with [note]. *)
let engine_forced = function
  | Depgraph | VerifyIr | VerifyClass | VerifyRanges | VerifyTrans
  | Unitclassify ->
    true
  | Parse | Lower | Ssa | Looptree | Sccp | Units | Classify | Trip | Ranges ->
    false

(* -- options -- *)

type options = { use_sccp : bool }

let default_options = { use_sccp = true }

(* -- the analysis payload -- *)

type loop_result = {
  loop : Ir.Loops.loop;
  table : Ivclass.t Ir.Instr.Id.Table.t;
  graph : Ssa_graph.t;
  trip : Trip_count.t;
}

type analysis = {
  ssa : Ir.Ssa.t;
  sccp : Sccp.result option;
  by_loop : loop_result option array; (* indexed by loop id *)
  exit_values : Sym.t Ir.Instr.Id.Table.t;
}

(* -- exit values (paper §5.3) -- *)

let compute_exit_values (t : analysis) (r : loop_result) =
  match (Trip_count.count_sym r.trip, r.trip.Trip_count.exit_block) with
  | Some tc, Some exit_block ->
    let cfg = Ir.Ssa.cfg t.ssa in
    let dom = Ir.Ssa.dom t.ssa in
    let tc_int =
      match Trip_count.count_int r.trip with Some n -> Some n | None -> None
    in
    List.iter
      (fun (instr : Ir.Instr.t) ->
        let d = instr.Ir.Instr.id in
        match Ir.Instr.Id.Table.find_opt r.table d with
        | None | Some Ivclass.Unknown | Some (Ivclass.Monotonic _) -> ()
        | Some c ->
          let block = Ir.Cfg.block_of_instr cfg d in
          (* Code not dominated by the exit test runs tc+1 times (last
             iteration index tc); code dominated by it and executed every
             stay-iteration runs tc times (last index tc-1). *)
          let above = Ir.Dom.dominates dom block exit_block in
          let below =
            (not (Ir.Label.equal block exit_block))
            && Ir.Dom.dominates dom exit_block block
            && List.for_all
                 (fun latch -> Ir.Dom.dominates dom block latch)
                 r.loop.Ir.Loops.latches
          in
          let h_sym =
            if above then Some tc
            else if below then begin
              match tc_int with
              | Some 0 -> None (* the body below the test never ran *)
              | _ -> Some (Sym.sub tc Sym.one)
            end
            else None
          in
          let exit_sym =
            match h_sym with
            | None -> None
            | Some h -> (
              match Algebra.sym_at_sym c h with
              | Some s -> Some s
              | None -> (
                (* Non-polynomial closed forms still evaluate at a
                   concrete trip count. *)
                match tc_int with
                | Some n ->
                  let h_int = if above then n else n - 1 in
                  if h_int < 0 then None else Algebra.sym_at c h_int
                | None -> None))
          in
          (match exit_sym with
           | Some s -> Ir.Instr.Id.Table.replace t.exit_values d s
           | None -> ()))
      (Ssa_graph.nodes r.graph)
  | _ -> ()

(* -- the inner-to-outer classification walk (§5.2–5.3) -- *)

let outer_const_of sccp =
  match sccp with
  | Some r -> fun d -> Option.map Sym.of_int (Sccp.const_of r d)
  | None -> fun _ -> None

let empty_analysis ?sccp (ssa : Ir.Ssa.t) =
  {
    ssa;
    sccp;
    by_loop = Array.make (Ir.Loops.num_loops (Ir.Ssa.loops ssa)) None;
    exit_values = Ir.Instr.Id.Table.create 64;
  }

(* Classify one loop (its SCRs, trip count and exit values) into [t].
   Inner loops of the same nest must already be classified — nothing
   else: exit values never cross a nest boundary (the [inner_exit]
   lookup is guarded by loop membership in [Classify.class_of_def]), so
   walking one nest at a time is equivalent to walking the forest. *)
let classify_one (t : analysis) ~outer_const ~inner_exit (lp : Ir.Loops.loop) =
  Obs.Trace.with_span ~cat:"pipeline"
    ~attrs:
      [ ("loop", Obs.Trace.Str lp.Ir.Loops.name);
        ("depth", Obs.Trace.Int lp.Ir.Loops.depth) ]
    "pipeline.classify_loop"
  @@ fun () ->
  let table, graph =
    Classify.classify_loop ~outer_const ~inner_exit t.ssa lp
  in
  let ctx =
    { Classify.ssa = t.ssa; loop = lp; graph; table; outer_const; inner_exit }
  in
  let trip =
    Obs.Trace.with_span ~cat:"pipeline"
      ~attrs:[ ("loop", Obs.Trace.Str lp.Ir.Loops.name) ]
      "pipeline.trip_count"
      (fun () -> Trip_count.compute ctx)
  in
  let r = { loop = lp; table; graph; trip } in
  t.by_loop.(lp.Ir.Loops.id) <- Some r;
  Obs.Trace.with_span ~cat:"pipeline"
    ~attrs:[ ("loop", Obs.Trace.Str lp.Ir.Loops.name) ]
    "pipeline.exit_values"
    (fun () -> compute_exit_values t r)

(* -- multiloop promotion (§5.3 and Figs 8-9) -- *)

(* Promotion relates a loop only to its ancestors in the same nest, so
   promoting one nest's roots at a time is equivalent to the whole
   forest. *)
let promote_roots (t : analysis) roots =
  let loops = Ir.Ssa.loops t.ssa in
  (* Outer loops first, so inner promotions can nest through them. *)
  let rec preorder id acc =
    let lp = Ir.Loops.loop loops id in
    List.fold_left (fun acc c -> preorder c acc) (id :: acc) lp.Ir.Loops.loop_children
  in
  let order = List.rev (List.fold_left (fun acc r -> preorder r acc) [] roots) in
  List.iter
    (fun id ->
      let lp = Ir.Loops.loop loops id in
      match (lp.Ir.Loops.parent, t.by_loop.(id)) with
      | Some parent_id, Some r -> (
        match t.by_loop.(parent_id) with
        | None -> ()
        | Some parent_r ->
          let parent_ctx =
            {
              Classify.ssa = t.ssa;
              loop = parent_r.loop;
              graph = parent_r.graph;
              table = parent_r.table;
              outer_const = (fun _ -> None);
              inner_exit = (fun d -> Ir.Instr.Id.Table.find_opt t.exit_values d);
            }
          in
          let entries =
            Ir.Instr.Id.Table.fold (fun d c acc -> (d, c) :: acc) r.table []
          in
          List.iter
            (fun (d, c) ->
              match c with
              | Ivclass.Linear { loop; base = Ivclass.Invariant s; step }
                when not (Sym.is_const s) -> (
                let base_class = Classify.class_of_sym parent_ctx s in
                let step_inv =
                  match Classify.class_of_sym parent_ctx step with
                  | Ivclass.Invariant _ -> true
                  | _ -> false
                in
                match base_class with
                | Ivclass.Linear _ | Ivclass.Poly _ | Ivclass.Geometric _
                  when step_inv ->
                  Ir.Instr.Id.Table.replace r.table d
                    (Ivclass.Linear { loop; base = base_class; step })
                | _ -> ())
              | _ -> ())
            entries)
      | _ -> ())
    order

module Int_set = Set.Make (Int)

(* All loops of the given nests, inner-to-outer (the forest's postorder
   restricted to the nests' descendants). *)
let unit_loop_ids loops uroots =
  let rec add acc id =
    let lp = Ir.Loops.loop loops id in
    List.fold_left add (Int_set.add id acc) lp.Ir.Loops.loop_children
  in
  let mine = List.fold_left add Int_set.empty uroots in
  List.filter_map
    (fun (lp : Ir.Loops.loop) ->
      if Int_set.mem lp.Ir.Loops.id mine then Some lp.Ir.Loops.id else None)
    (Ir.Loops.postorder loops)

(* The classification walk: classify every loop of the nests rooted at
   [roots] inner-to-outer into a fresh analysis, then promote within
   those nests. *)
let analyze_nests ?sccp (ssa : Ir.Ssa.t) roots : analysis =
  let t = empty_analysis ?sccp ssa in
  let outer_const = outer_const_of sccp in
  let inner_exit d = Ir.Instr.Id.Table.find_opt t.exit_values d in
  let loops = Ir.Ssa.loops ssa in
  List.iter
    (fun id -> classify_one t ~outer_const ~inner_exit (Ir.Loops.loop loops id))
    (unit_loop_ids loops roots);
  promote_roots t roots;
  t

(* -- report renderers -- *)

let namer_of (t : analysis) : Ivclass.namer =
  let loops = Ir.Ssa.loops t.ssa in
  {
    Ivclass.loop_name =
      (fun id ->
        if id >= 0 && id < Ir.Loops.num_loops loops then
          (Ir.Loops.loop loops id).Ir.Loops.name
        else "L?");
    atom_name =
      (fun a ->
        match a with
        | Sym.Param x -> Ir.Ident.name x
        | Sym.Def id -> Ir.Ssa.primary_name t.ssa id);
  }

let pp_report fmt (t : analysis) =
  let nm = namer_of t in
  let loops = Ir.Ssa.loops t.ssa in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (lp : Ir.Loops.loop) ->
      match t.by_loop.(lp.Ir.Loops.id) with
      | None -> ()
      | Some r ->
        Format.fprintf fmt "@[<v 2>loop %s (depth %d, trip count %a):@,"
          lp.Ir.Loops.name lp.Ir.Loops.depth
          (Trip_count.pp_with (fun id -> Ir.Ssa.primary_name t.ssa id))
          r.trip;
        List.iter
          (fun (instr : Ir.Instr.t) ->
            let name = Ir.Ssa.primary_name t.ssa instr.Ir.Instr.id in
            let c =
              Option.value ~default:Ivclass.Unknown
                (Ir.Instr.Id.Table.find_opt r.table instr.Ir.Instr.id)
            in
            Format.fprintf fmt "%-8s %a@," name (Ivclass.pp_with nm) c)
          (Ssa_graph.nodes r.graph);
        Format.fprintf fmt "@]@,")
    (Ir.Loops.postorder loops);
  Format.fprintf fmt "@]"

let report_of (t : analysis) = Format.asprintf "%a" pp_report t

let trip_report_of (t : analysis) =
  let loops = Ir.Ssa.loops t.ssa in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun (lp : Ir.Loops.loop) ->
      let trip =
        match t.by_loop.(lp.Ir.Loops.id) with
        | Some r -> r.trip
        | None -> Trip_count.unknown
      in
      Format.fprintf fmt "loop %-8s trips: %a" lp.Ir.Loops.name
        (Trip_count.pp_with (fun id -> Ir.Ssa.primary_name t.ssa id))
        trip;
      (match Trip_count.max_count_int trip with
       | Some n when Trip_count.count_int trip = None ->
         Format.fprintf fmt " (at most %d)" n
       | _ -> ());
      Format.fprintf fmt "@.")
    (Ir.Loops.postorder loops);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* -- analysis units (incremental re-analysis) -- *)

type unit_info = {
  region : Ir.Region.unit_;
  uroots : int list; (* root loop ids of the unit's nests, program order *)
  uloops : int list; (* every loop id of the unit, inner-to-outer *)
  udigest : Hash.Fnv.t; (* exact key over the unit's slice of the program *)
}

type unit_artifact = {
  ua_results : loop_result list; (* promoted; aligned with [uloops] *)
  ua_exits : (Ir.Instr.Id.t * Sym.t) list; (* the unit's exit values *)
}

type unit_outcome = {
  u_index : int; (* Region unit index *)
  u_loops : string list; (* the unit's outermost loop names *)
  u_hit : bool; (* the artifact came from the unit cache *)
}

(* Each loop-forest root belongs to the unit whose top-level statement
   lowered its header: lowering allocates labels in statement order, so
   the owner is the last statement starting at or before the header
   ([Ir.Cfg.stmt_starts]). Loops the CFG drops as unreachable are not in
   the forest, so every root lands in exactly one unit, and a nest unit
   may own none. *)
let map_units ssa (regions : Ir.Region.unit_ list) =
  let loops = Ir.Ssa.loops ssa in
  let starts = Ir.Cfg.stmt_starts (Ir.Ssa.cfg ssa) in
  let rec stmt_of label i =
    if i + 1 < Array.length starts && starts.(i + 1) <= label then
      stmt_of label (i + 1)
    else i
  in
  let owned =
    List.map
      (fun r -> (stmt_of (Ir.Loops.loop loops r).Ir.Loops.header 0, r))
      (Ir.Loops.roots loops)
  in
  List.map
    (fun (region : Ir.Region.unit_) ->
      ( region,
        List.filter_map
          (fun (stmt, r) ->
            if stmt >= region.Ir.Region.first && stmt <= region.Ir.Region.last
            then Some r
            else None)
          owned ))
    regions

let feed_value d (v : Ir.Instr.value) =
  match v with
  | Ir.Instr.Const n -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "c") n
  | Ir.Instr.Def id -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "d") id
  | Ir.Instr.Param x ->
    Hash.Fnv.feed_string (Hash.Fnv.feed_string d "p") (Ir.Ident.name x)

let feed_op d (op : Ir.Instr.op) =
  let d = Hash.Fnv.feed_string d (Ir.Instr.op_name op) in
  match op with
  | Ir.Instr.Load x | Ir.Instr.Store x | Ir.Instr.Aload x | Ir.Instr.Astore x
    ->
    Hash.Fnv.feed_string d (Ir.Ident.name x)
  | Ir.Instr.Binop _ | Ir.Instr.Relop _ | Ir.Instr.Neg | Ir.Instr.Phi
  | Ir.Instr.Rand ->
    d

let feed_term d (term : Ir.Cfg.terminator) =
  match term with
  | Ir.Cfg.Jump l -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "jmp") l
  | Ir.Cfg.Branch (v, a, b) ->
    Hash.Fnv.feed_int
      (Hash.Fnv.feed_int (feed_value (Hash.Fnv.feed_string d "br") v) a)
      b
  | Ir.Cfg.Halt -> Hash.Fnv.feed_string d "halt"

(* The unit key: an exact digest of everything the per-unit walk can
   observe. The canonical source slice and options; the unit's loops
   (ids, headers, forest shape); every in-loop instruction with its id,
   operation and operands; block terminators (in-nest control flow
   determines dominance and exit structure); and, for every def the
   unit defines or reads, its SSA primary name and SCCP constant fact
   (this covers defs flowing in from outside the unit, such as
   initializers). A key hit therefore guarantees the cached
   instruction-id-keyed tables are valid verbatim in the new program. *)
let unit_digest ~use_sccp ssa sccp (region : Ir.Region.unit_) uloops =
  let loops = Ir.Ssa.loops ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let d = ref (Hash.Fnv.of_strings [ "unit"; Ir.Region.source_slice region ]) in
  let feed f x = d := f !d x in
  d := Hash.Fnv.feed_bool !d use_sccp;
  let mentioned = ref Ir.Instr.Id.Set.empty in
  let mention id = mentioned := Ir.Instr.Id.Set.add id !mentioned in
  let blocks = ref Ir.Label.Set.empty in
  List.iter
    (fun lid ->
      let lp = Ir.Loops.loop loops lid in
      feed Hash.Fnv.feed_int lp.Ir.Loops.id;
      feed Hash.Fnv.feed_string lp.Ir.Loops.name;
      feed Hash.Fnv.feed_int lp.Ir.Loops.header;
      feed Hash.Fnv.feed_int lp.Ir.Loops.depth;
      feed Hash.Fnv.feed_int (Option.value ~default:(-1) lp.Ir.Loops.parent);
      List.iter (feed Hash.Fnv.feed_int) lp.Ir.Loops.loop_children;
      List.iter (feed Hash.Fnv.feed_int) lp.Ir.Loops.latches;
      blocks := Ir.Label.Set.union !blocks lp.Ir.Loops.blocks)
    uloops;
  Ir.Label.Set.iter
    (fun label ->
      let b = Ir.Cfg.block cfg label in
      feed Hash.Fnv.feed_int label;
      (match b.Ir.Cfg.loop_name with
       | Some n -> feed Hash.Fnv.feed_string n
       | None -> ());
      List.iter
        (fun (instr : Ir.Instr.t) ->
          mention instr.Ir.Instr.id;
          feed Hash.Fnv.feed_int instr.Ir.Instr.id;
          d := feed_op !d instr.Ir.Instr.op;
          Array.iter
            (fun v ->
              (match v with Ir.Instr.Def id -> mention id | _ -> ());
              d := feed_value !d v)
            instr.Ir.Instr.args)
        b.Ir.Cfg.instrs;
      (match b.Ir.Cfg.term with
       | Ir.Cfg.Branch (Ir.Instr.Def id, _, _) -> mention id
       | _ -> ());
      d := feed_term !d b.Ir.Cfg.term)
    !blocks;
  Ir.Instr.Id.Set.iter
    (fun id ->
      feed Hash.Fnv.feed_int id;
      feed Hash.Fnv.feed_string (Ir.Ssa.primary_name ssa id);
      feed Hash.Fnv.feed_int
        (match sccp with
         | Some r -> Option.value ~default:min_int (Sccp.const_of r id)
         | None -> min_int))
    !mentioned;
  !d

(* Analyze one unit in isolation (see [classify_one] and
   [promote_roots] for why the restriction to its nests is
   equivalence-preserving). Promotion happens here, before the artifact
   reaches the shared cache: a cached table must never be mutated
   again. *)
let analyze_unit ?sccp (ssa : Ir.Ssa.t) (info : unit_info) : unit_artifact =
  Obs.Trace.with_span ~cat:"pipeline"
    ~attrs:[ ("unit", Obs.Trace.Int info.region.Ir.Region.index) ]
    "pipeline.unit"
  @@ fun () ->
  let t = analyze_nests ?sccp ssa info.uroots in
  {
    ua_results = List.filter_map (fun id -> t.by_loop.(id)) info.uloops;
    ua_exits =
      Ir.Instr.Id.Table.fold (fun d s acc -> (d, s) :: acc) t.exit_values [];
  }

(* Reassemble the whole-program analysis from per-unit artifacts. The
   report renderers and the dependence pass run on the merged record
   unchanged, so incremental output is byte-identical to a cold run by
   construction. *)
let merge_units ?sccp ssa (artifacts : unit_artifact list) : analysis =
  let t = empty_analysis ?sccp ssa in
  List.iter
    (fun ua ->
      List.iter
        (fun r -> t.by_loop.(r.loop.Ir.Loops.id) <- Some r)
        ua.ua_results;
      List.iter
        (fun (d, s) -> Ir.Instr.Id.Table.replace t.exit_values d s)
        ua.ua_exits)
    artifacts;
  t

(* -- the lazy per-source instance -- *)

type t = {
  src : string;
  opts : options;
  base : Hash.Fnv.t;
  lock : Mutex.t;
  mutable v_parse : (Ir.Ast.program, string) result option;
  mutable v_lower : (Ir.Cfg.t, string) result option;
  mutable v_ssa : (Ir.Ssa.t, string) result option;
  mutable v_looptree : (Ir.Loops.t, string) result option;
  mutable v_sccp : (Sccp.result option, string) result option;
  mutable v_units : (unit_info list, string) result option;
  (* The promoted analysis and its rendered classification report. *)
  mutable v_classify : (analysis * string, string) result option;
  mutable v_trip : (string, string) result option;
  mutable v_range : (Range.t * string, string) result option;
  digests : (pass, Hash.Fnv.t) Hashtbl.t;
}

let create ?(options = default_options) src =
  {
    src;
    opts = options;
    base = Hash.Fnv.feed_bool (Hash.Fnv.of_strings [ src ]) options.use_sccp;
    lock = Mutex.create ();
    v_parse = None;
    v_lower = None;
    v_ssa = None;
    v_looptree = None;
    v_sccp = None;
    v_units = None;
    v_classify = None;
    v_trip = None;
    v_range = None;
    digests = Hashtbl.create 11;
  }

let options t = t.opts
let source_digest t = t.base

let set_digest t pass s = Hashtbl.replace t.digests pass (Hash.Fnv.of_strings [ s ])

(* Each stage runs under a "pipeline.<pass>" span on first forcing.
   Callers hold [t.lock]. *)
let staged pass compute =
  Obs.Trace.with_span ~cat:"pipeline"
    ~attrs:[ ("pass", Obs.Trace.Str (name pass)) ]
    ("pipeline." ^ name pass)
    compute

let ensure_parse t =
  match t.v_parse with
  | Some v -> v
  | None ->
    let v =
      staged Parse (fun () -> Ir.Parser.parse_result t.src)
    in
    (match v with
     | Ok prog -> set_digest t Parse (Ir.Ast.to_string prog)
     | Error _ -> ());
    t.v_parse <- Some v;
    v

let ensure_lower t =
  match t.v_lower with
  | Some v -> v
  | None ->
    let v =
      match ensure_parse t with
      | Error e -> Error e
      | Ok prog ->
        let cfg = staged Lower (fun () -> Ir.Lower.lower prog) in
        set_digest t Lower (Ir.Cfg.to_string cfg);
        Ok cfg
    in
    t.v_lower <- Some v;
    v

let ensure_ssa t =
  match t.v_ssa with
  | Some v -> v
  | None ->
    let v =
      match ensure_parse t with
      | Error e -> Error e
      | Ok prog -> (
        let ssa = staged Ssa (fun () -> Ir.Ssa.of_program prog) in
        match Ir.Ssa.check ssa with
        | [] ->
          set_digest t Ssa (Ir.Ssa.to_string ssa);
          Ok ssa
        | errs ->
          Error (String.concat "\n" (List.map Ir.Diag.to_string errs)))
    in
    t.v_ssa <- Some v;
    v

let ensure_looptree t =
  match t.v_looptree with
  | Some v -> v
  | None ->
    let v =
      match ensure_ssa t with
      | Error e -> Error e
      | Ok ssa ->
        let loops = staged Looptree (fun () -> Ir.Ssa.loops ssa) in
        set_digest t Looptree (Format.asprintf "%a" Ir.Loops.pp loops);
        Ok loops
    in
    t.v_looptree <- Some v;
    v

(* The SCCP digest feeds every def's proven constant (in instruction
   order), so two sources with the same constant facts share a digest. *)
let sccp_digest ssa (r : Sccp.result) =
  let d = ref (Hash.Fnv.of_strings [ "sccp" ]) in
  Ir.Cfg.iter_instrs (Ir.Ssa.cfg ssa) (fun _ instr ->
      let id = instr.Ir.Instr.id in
      match Sccp.const_of r id with
      | Some c -> d := Hash.Fnv.feed_int (Hash.Fnv.feed_int !d id) c
      | None -> ());
  !d

let ensure_sccp t =
  match t.v_sccp with
  | Some v -> v
  | None ->
    let v =
      match ensure_ssa t with
      | Error e -> Error e
      | Ok ssa ->
        if not t.opts.use_sccp then begin
          set_digest t Sccp "sccp:off";
          Ok None
        end
        else begin
          let r = staged Sccp (fun () -> Sccp.run ssa) in
          Hashtbl.replace t.digests Sccp (sccp_digest ssa r);
          Ok (Some r)
        end
    in
    t.v_sccp <- Some v;
    v

let ensure_units t =
  match t.v_units with
  | Some v -> v
  | None ->
    let v =
      match
        (ensure_parse t, ensure_looptree t, ensure_sccp t, ensure_ssa t)
      with
      | Ok prog, Ok loops, Ok sccp, Ok ssa ->
        staged Units (fun () ->
            let infos =
              List.map
                (fun ((region : Ir.Region.unit_), uroots) ->
                  let uloops = unit_loop_ids loops uroots in
                  {
                    region;
                    uroots;
                    uloops;
                    udigest =
                      unit_digest ~use_sccp:t.opts.use_sccp ssa sccp region
                        uloops;
                  })
                (map_units ssa (Ir.Region.partition prog))
            in
            Hashtbl.replace t.digests Units
              (Hash.Fnv.of_strings
                 ("units" :: List.map (fun i -> Hash.Fnv.to_hex i.udigest) infos));
            Ok infos)
      | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
        ->
        Error e
    in
    t.v_units <- Some v;
    v

(* The Classify pass: the unit walk. Probe [lookup] with each nest
   unit's digest, run [analyze_unit] for the misses (fanned out through
   [pool_run] when given and more than one unit missed), [store] the
   fresh artifacts, and install the merged analysis with its rendered
   report. A bare pipeline passes no cache; the engine passes its shared
   unit-artifact cache. Returns one outcome per nest unit (none when
   Classify was already forced). Callers hold [t.lock]. *)
let classify_units ?pool_run ~lookup ~store t =
  match t.v_classify with
  | Some (Error e) -> Error e
  | Some (Ok _) -> Ok []
  | None -> (
    match (ensure_units t, ensure_sccp t, ensure_ssa t) with
    | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      t.v_classify <- Some (Error e);
      Error e
    | Ok infos, Ok sccp, Ok ssa ->
      staged Unitclassify (fun () ->
          let loops = Ir.Ssa.loops ssa in
          let probed =
            List.filter_map
              (fun i ->
                if i.uroots = [] then None else Some (i, lookup i.udigest))
              infos
          in
          let misses =
            List.filter_map
              (fun (i, probe) -> if probe = None then Some i else None)
              probed
          in
          (* Lazily built per-SSA state (dominators, the instruction
             index) must exist before a parallel walk can share it. *)
          if misses <> [] then begin
            ignore (Ir.Ssa.dom ssa);
            ignore (Ir.Cfg.find_instr_opt (Ir.Ssa.cfg ssa) 0)
          end;
          let computed =
            let thunks =
              Array.of_list
                (List.map (fun i () -> analyze_unit ?sccp ssa i) misses)
            in
            match pool_run with
            | Some run when Array.length thunks > 1 -> run thunks
            | _ -> Array.map (fun f -> f ()) thunks
          in
          let results =
            let next = ref 0 in
            List.map
              (fun (i, probe) ->
                match probe with
                | Some a -> (i, a, true)
                | None ->
                  let a = computed.(!next) in
                  incr next;
                  store i.udigest a;
                  (i, a, false))
              probed
          in
          let merged =
            merge_units ?sccp ssa (List.map (fun (_, a, _) -> a) results)
          in
          let rendered = report_of merged in
          t.v_classify <- Some (Ok (merged, rendered));
          set_digest t Classify (rendered ^ "\x00" ^ trip_report_of merged);
          Hashtbl.replace t.digests Unitclassify
            (Hash.Fnv.of_strings
               ("unit_classify"
               :: List.map (fun (i, _, _) -> Hash.Fnv.to_hex i.udigest) results));
          Ok
            (List.map
               (fun (i, _, hit) ->
                 {
                   u_index = i.region.Ir.Region.index;
                   u_loops =
                     List.map
                       (fun id -> (Ir.Loops.loop loops id).Ir.Loops.name)
                       i.uroots;
                   u_hit = hit;
                 })
               results)))

let ensure_classify t =
  match classify_units ~lookup:(fun _ -> None) ~store:(fun _ _ -> ()) t with
  | Error e -> Error e
  | Ok _ -> Option.get t.v_classify

let ensure_trip t =
  match t.v_trip with
  | Some v -> v
  | None ->
    let v =
      match ensure_classify t with
      | Error e -> Error e
      | Ok (a, _) ->
        let text = staged Trip (fun () -> trip_report_of a) in
        set_digest t Trip text;
        Ok text
    in
    t.v_trip <- Some v;
    v

(* The range analysis consumes the promoted classification tables; the
   closures keep [Range] free of a dependency on this module. *)
let range_of (a : analysis) : Range.t =
  let loops = Ir.Ssa.loops a.ssa in
  let cfg = Ir.Ssa.cfg a.ssa in
  let class_of id =
    match Ir.Loops.innermost loops (Ir.Cfg.block_of_instr cfg id) with
    | Some lp -> (
      match a.by_loop.(lp) with
      | Some r -> Ir.Instr.Id.Table.find_opt r.table id
      | None -> None)
    | None -> None
    | exception Not_found -> None
  in
  let trip_of l = Option.map (fun r -> r.trip) a.by_loop.(l) in
  Range.compute ?sccp:a.sccp ~class_of ~trip_of a.ssa

let ensure_range t =
  match t.v_range with
  | Some v -> v
  | None ->
    let v =
      match ensure_classify t with
      | Error e -> Error e
      | Ok (a, _) ->
        let r, text =
          staged Ranges (fun () ->
              let r = range_of a in
              (r, Range.report r))
        in
        set_digest t Ranges text;
        Ok (r, text)
    in
    t.v_range <- Some v;
    v

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let parse t = locked t (fun () -> ensure_parse t)
let lower t = locked t (fun () -> ensure_lower t)
let ssa t = locked t (fun () -> ensure_ssa t)
let looptree t = locked t (fun () -> ensure_looptree t)
let sccp t = locked t (fun () -> ensure_sccp t)
let trip_report t = locked t (fun () -> ensure_trip t)
let promoted t = locked t (fun () -> Result.map fst (ensure_classify t))
let report t = locked t (fun () -> Result.map snd (ensure_classify t))
let units t = locked t (fun () -> ensure_units t)
let ranges t = locked t (fun () -> Result.map fst (ensure_range t))
let range_report t = locked t (fun () -> Result.map snd (ensure_range t))

let classify_with_units ?pool_run ~lookup ~store t =
  locked t (fun () -> classify_units ?pool_run ~lookup ~store t)

let discard : _ -> (unit, string) result = function
  | Ok _ -> Ok ()
  | Error e -> Error e

let force t pass =
  locked t (fun () ->
      match pass with
      | Parse -> discard (ensure_parse t)
      | Lower -> discard (ensure_lower t)
      | Ssa -> discard (ensure_ssa t)
      | Looptree -> discard (ensure_looptree t)
      | Sccp -> discard (ensure_sccp t)
      | Units -> discard (ensure_units t)
      | Classify -> discard (ensure_classify t)
      | Trip -> discard (ensure_trip t)
      | Ranges -> discard (ensure_range t)
      | Depgraph -> Error "pass depgraph is forced by the service layer"
      | Unitclassify | VerifyIr | VerifyClass | VerifyRanges | VerifyTrans ->
        Error ("pass " ^ name pass ^ " is forced by the service layer"))

let forced t pass =
  locked t (fun () ->
      match pass with
      | Parse -> Option.is_some t.v_parse
      | Lower -> Option.is_some t.v_lower
      | Ssa -> Option.is_some t.v_ssa
      | Looptree -> Option.is_some t.v_looptree
      | Sccp -> Option.is_some t.v_sccp
      | Units -> Option.is_some t.v_units
      | Classify -> Option.is_some t.v_classify
      | Trip -> Option.is_some t.v_trip
      | Ranges -> Option.is_some t.v_range
      | ( Depgraph | Unitclassify | VerifyIr | VerifyClass | VerifyRanges
        | VerifyTrans ) as p ->
        Hashtbl.mem t.digests p)

let digest t pass = locked t (fun () -> Hashtbl.find_opt t.digests pass)

let note t pass d = locked t (fun () -> Hashtbl.replace t.digests pass d)
