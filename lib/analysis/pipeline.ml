(* The demand-driven analysis pipeline.

   The classification walk runs one loop-forest root at a time ([walk])
   and returns that unit's artifact; [merge_units] assembles artifacts
   into the [analysis] record, for a pipeline instance's Classify pass
   and for SSA-only callers ([analyze]) alike. That record is the one
   analysis result; the queries below it (classification by def, by SSA
   name, in the whole nest's frame) are what the transforms, dependence
   testing and verification read. The lazy instance adds per-pass
   memoization and records which passes have run. *)

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

(* Passes whose results the pipeline cannot compute itself: the engine
   forces them (dependence testing lives in lib/dependence, checked mode
   in lib/verify, and the unit walk needs the engine's shared artifact
   cache) and keeps their results. *)
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
  table : Ivclass.t Ir.Instr.Id.Table.t;
  trip : Trip_count.t;
  nodes : Ir.Instr.Id.t array; (* the loop's direct instructions, program order *)
}

type analysis = {
  ssa : Ir.Ssa.t;
  sccp : Sccp.result option;
  by_loop : loop_result option array; (* indexed by loop id *)
  exit_values : Sym.t Ir.Instr.Id.Table.t;
}

(* -- queries over the analysis -- *)

let trip_count t loop_id =
  match t.by_loop.(loop_id) with
  | Some r -> r.trip
  | None -> Trip_count.unknown

let exit_value t id = Ir.Instr.Id.Table.find_opt t.exit_values id

(* The innermost loop containing def [id], if any. *)
let innermost_loop t id =
  Ir.Loops.innermost (Ir.Ssa.loops t.ssa)
    (Ir.Cfg.block_of_instr (Ir.Ssa.cfg t.ssa) id)

(* Def [id]'s entry in loop [lp]'s classification table. *)
let table_entry t lp id =
  match t.by_loop.(lp) with
  | Some r -> Ir.Instr.Id.Table.find_opt r.table id
  | None -> None

(* [class_of t id] is the classification of a def in its innermost loop;
   defs outside all loops are invariant. *)
let class_of t id : Ivclass.t =
  match innermost_loop t id with
  | Some lp -> Option.value ~default:Ivclass.Unknown (table_entry t lp id)
  | None -> Invariant (Sym.def id)

(* [class_of_name t name] looks a classification up by SSA name ("j2"). *)
let class_of_name t name : Ivclass.t option =
  match Ir.Ssa.value_of_name t.ssa name with
  | Some (Ir.Instr.Def id) -> Some (class_of t id)
  | Some (Ir.Instr.Const c) -> Some (Invariant (Sym.of_int c))
  | Some (Ir.Instr.Param x) -> Some (Invariant (Sym.param x))
  | None -> None

(* [global_class_of t v] expresses a value's classification in the frame
   of the whole loop nest: invariant symbols whose atoms are defs that
   vary in *outer* loops are expanded through those defs' classifications
   (so a subscript like "i - 1" computed in an inner loop resolves to a
   linear IV of the outer loop, as dependence testing needs). *)
let rec global_class_of t (v : Ir.Instr.value) : Ivclass.t =
  match v with
  | Ir.Instr.Const c -> Invariant (Sym.of_int c)
  | Ir.Instr.Param x -> Invariant (Sym.param x)
  | Ir.Instr.Def d -> (
    match class_of t d with
    (* Opaque invariants are their own atom; expanding would loop. *)
    | Ivclass.Invariant s when Sym.equal s (Sym.def d) -> Ivclass.Invariant s
    | c -> resolve_global t c)

and resolve_global t (c : Ivclass.t) : Ivclass.t =
  match c with
  | Ivclass.Invariant s -> global_class_of_sym t s
  | Ivclass.Linear l -> (
    match resolve_global t l.Ivclass.base with
    | Ivclass.Unknown -> Ivclass.Unknown
    | base -> Ivclass.Linear { l with base })
  | c -> c

and global_class_of_sym t (s : Sym.t) : Ivclass.t =
  let atom_class = function
    | Sym.Param x -> Ivclass.Invariant (Sym.param x)
    | Sym.Def d -> (
      match global_class_of t (Ir.Instr.Def d) with
      | Ivclass.Unknown ->
        (* An unknown-classified def is not provably invariant anywhere:
           stay conservative. *)
        Ivclass.Unknown
      | c -> c)
  in
  List.fold_left
    (fun acc ((mono, coeff) : Sym.mono * Bignum.Rat.t) ->
      let term =
        List.fold_left
          (fun acc (a, p) ->
            let rec pow acc n =
              if n = 0 then acc else pow (Algebra.mul acc (atom_class a)) (n - 1)
            in
            pow acc p)
          (Ivclass.Invariant (Sym.of_rat coeff))
          mono
      in
      Algebra.add acc term)
    (Ivclass.Invariant Sym.zero)
    (s : (Sym.mono * Bignum.Rat.t) list)

(* -- analysis units -- *)

(* A unit's canonical numbering: the program's instruction id, block
   label and loop id at each canonical index. Two programs that share a
   unit key number that unit alike up to these vectors. [c_loops] is
   the unit's loops inner-to-outer, the order the walk visits them. *)
type canon = {
  c_defs : Ir.Instr.Id.t array;
  c_labels : Ir.Label.t array;
  c_loops : int array;
}

type unit_info = {
  uroot : int; (* the unit's loop-forest root *)
  udigest : Hash.Fnv.t; (* exact key, in the unit's own numbering *)
  ucanon : canon; (* this program's numbering of the unit *)
}

(* A root's range facts in the unit's canonical numbering: indices into
   [c_defs], [c_loops] and [c_labels], so a hit maps into any program
   through that program's own numbering. *)
type range_section = {
  rs_key : Hash.Fnv.t; (* the unit digest plus what the fixpoint reads from outside *)
  rs_full : (int * Interval.t) array; (* own def, full interval *)
  rs_body : (int * int * int * Interval.t) array; (* own def, loop, exit block, body *)
  rs_rounds : int;
}

type unit_artifact = {
  ua_results : loop_result list; (* promoted; aligned with [c_loops] *)
  ua_exits : (Ir.Instr.Id.t * Sym.t) list; (* the unit's exit values *)
  ua_canon : canon; (* the numbering of the program that computed it *)
  ua_ranges : range_section option; (* the root's range facts, once solved *)
}

type unit_outcome = {
  u_index : int; (* position in [units] *)
  u_loop : string; (* the root loop's name *)
  u_hit : bool; (* the artifact came from the unit cache *)
  u_relocated : bool; (* ... from a differently numbered program *)
}

(* All loops of the nest rooted at [root], inner-to-outer (postorder). *)
let nest_loops loops root =
  let rec visit acc id =
    id :: List.fold_left visit acc (Ir.Loops.loop loops id).Ir.Loops.loop_children
  in
  Array.of_list (List.rev (visit [] root))

(* -- exit values (paper §5.3) -- *)

let compute_exit_values ssa exits (lp : Ir.Loops.loop) (r : loop_result) =
  match (Trip_count.count_sym r.trip, r.trip.Trip_count.exit_block) with
  | Some tc, Some exit_block ->
    let cfg = Ir.Ssa.cfg ssa in
    let dom = Ir.Ssa.dom ssa in
    let tc_int =
      match Trip_count.count_int r.trip with Some n -> Some n | None -> None
    in
    Array.iter
      (fun d ->
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
                 lp.Ir.Loops.latches
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
           | Some s -> Ir.Instr.Id.Table.replace exits d s
           | None -> ()))
      r.nodes
  | _ -> ()

(* -- the inner-to-outer classification walk (§5.2–5.3) -- *)

let outer_const_of sccp =
  match sccp with
  | Some r -> fun d -> Option.map Sym.of_int (Sccp.const_of r d)
  | None -> fun _ -> None

(* Classify one loop (its SCRs, trip count and exit values, added to
   [exits]) and return its result with its SSA graph, which promotion
   reads and nothing keeps. Inner loops of the same nest must already
   be classified — nothing else: exit values never cross a nest
   boundary (the [inner_exit] lookup is guarded by loop membership in
   [Classify.class_of_def]), so walking one nest at a time is
   equivalent to walking the forest. *)
let classify_one ssa exits ~outer_const ~inner_exit (lp : Ir.Loops.loop) =
  Obs.Trace.with_span ~cat:"pipeline"
    ~attrs:
      [ ("loop", Obs.Trace.Str lp.Ir.Loops.name);
        ("depth", Obs.Trace.Int lp.Ir.Loops.depth) ]
    "pipeline.classify_loop"
  @@ fun () ->
  let table, graph = Classify.classify_loop ~outer_const ~inner_exit ssa lp in
  let ctx = { Classify.ssa; loop = lp; graph; table; outer_const; inner_exit } in
  let trip =
    Obs.Trace.with_span ~cat:"pipeline"
      ~attrs:[ ("loop", Obs.Trace.Str lp.Ir.Loops.name) ]
      "pipeline.trip_count"
      (fun () -> Trip_count.compute ctx)
  in
  let nodes =
    Array.of_list (List.map (fun (i : Ir.Instr.t) -> i.Ir.Instr.id) (Ssa_graph.nodes graph))
  in
  let r = { table; trip; nodes } in
  Obs.Trace.with_span ~cat:"pipeline"
    ~attrs:[ ("loop", Obs.Trace.Str lp.Ir.Loops.name) ]
    "pipeline.exit_values"
    (fun () -> compute_exit_values ssa exits lp r);
  (r, graph)

(* Multiloop promotion (§5.3 and Figs 8-9) of loop result [r] against its
   parent's result and SSA graph: an inner initial value that is an
   outer-loop IV becomes a nested tuple. *)
let promote ssa exits r (parent : Ir.Loops.loop) (parent_r, graph) =
  let parent_ctx =
    {
      Classify.ssa;
      loop = parent;
      graph;
      table = parent_r.table;
      outer_const = (fun _ -> None);
      inner_exit = (fun d -> Ir.Instr.Id.Table.find_opt exits d);
    }
  in
  let entries = Ir.Instr.Id.Table.fold (fun d c acc -> (d, c) :: acc) r.table [] in
  List.iter
    (fun (d, c) ->
      match c with
      | Ivclass.Linear { loop; base = Ivclass.Invariant s; step } when not (Sym.is_const s)
        -> (
        let base_class = Classify.class_of_sym parent_ctx s in
        let step_inv =
          match Classify.class_of_sym parent_ctx step with
          | Ivclass.Invariant _ -> true
          | _ -> false
        in
        match base_class with
        | (Ivclass.Linear _ | Ivclass.Poly _ | Ivclass.Geometric _) when step_inv ->
          Ir.Instr.Id.Table.replace r.table d (Ivclass.Linear { loop; base = base_class; step })
        | _ -> ())
      | _ -> ())
    entries

(* The classification walk over one unit: classify the loops of
   [c.c_loops] inner-to-outer, then promote outer loops first (so inner
   promotions nest through them; a loop relates only to its ancestors,
   which all lie in the unit). Promotion happens here, before the
   artifact can reach a shared cache: a cached table is never mutated
   again. The loops' SSA graphs live only until the walk returns. *)
let walk ?sccp ssa (c : canon) : unit_artifact =
  let loops = Ir.Ssa.loops ssa in
  let exits = Ir.Instr.Id.Table.create 64 in
  let outer_const = outer_const_of sccp in
  let inner_exit d = Ir.Instr.Id.Table.find_opt exits d in
  let walked = Hashtbl.create (Array.length c.c_loops) in
  Array.iter
    (fun id ->
      Hashtbl.replace walked id
        (classify_one ssa exits ~outer_const ~inner_exit (Ir.Loops.loop loops id)))
    c.c_loops;
  for k = Array.length c.c_loops - 1 downto 0 do
    let lp = Ir.Loops.loop loops c.c_loops.(k) in
    Option.iter
      (fun p ->
        promote ssa exits
          (fst (Hashtbl.find walked lp.Ir.Loops.id))
          (Ir.Loops.loop loops p) (Hashtbl.find walked p))
      lp.Ir.Loops.parent
  done;
  {
    ua_results = Array.to_list (Array.map (fun id -> fst (Hashtbl.find walked id)) c.c_loops);
    ua_exits = Ir.Instr.Id.Table.fold (fun d s acc -> (d, s) :: acc) exits [];
    ua_canon = c;
    ua_ranges = None;
  }

(* The one assembler of an [analysis]: each artifact's results land at
   its loops ([c_loops]) and its exit values are added. The report
   renderers and the dependence pass run on the merged record, so
   output assembled from cached artifacts is byte-identical to a cold
   run by construction. *)
let merge_units ?sccp ssa (artifacts : unit_artifact list) : analysis =
  let t =
    {
      ssa;
      sccp;
      by_loop = Array.make (Ir.Loops.num_loops (Ir.Ssa.loops ssa)) None;
      exit_values = Ir.Instr.Id.Table.create 64;
    }
  in
  List.iter
    (fun ua ->
      List.iteri (fun k r -> t.by_loop.(ua.ua_canon.c_loops.(k)) <- Some r) ua.ua_results;
      List.iter (fun (d, s) -> Ir.Instr.Id.Table.replace t.exit_values d s) ua.ua_exits)
    artifacts;
  t

(* The walk for callers that hold only SSA: SCCP, then each root walked
   and merged as the Classify pass does, without unit keys (only the
   loops of the numbering are filled in). *)
let analyze ?(use_sccp = true) (ssa : Ir.Ssa.t) : analysis =
  Obs.Trace.with_span ~cat:"pipeline" "pipeline.analyze" @@ fun () ->
  let sccp =
    if use_sccp then
      Some (Obs.Trace.with_span ~cat:"pipeline" "pipeline.sccp" (fun () -> Sccp.run ssa))
    else None
  in
  let loops = Ir.Ssa.loops ssa in
  merge_units ?sccp ssa
    (List.map
       (fun root ->
         walk ?sccp ssa { c_defs = [||]; c_labels = [||]; c_loops = nest_loops loops root })
       (Ir.Loops.roots loops))

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

let class_to_string t c = Ivclass.to_string_with (namer_of t) c

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
        Array.iter
          (fun id ->
            let c =
              Option.value ~default:Ivclass.Unknown (Ir.Instr.Id.Table.find_opt r.table id)
            in
            Format.fprintf fmt "%-8s %a@," (Ir.Ssa.primary_name t.ssa id)
              (Ivclass.pp_with nm) c)
          r.nodes;
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
      let trip = trip_count t lp.Ir.Loops.id in
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

(* -- unit keys (incremental re-analysis) -- *)

(* Per-program scratch for [unit_digest]: the canonical index of each
   instruction id and label, valid where its stamp is the current
   unit's, and the inverse vectors. One set of arrays serves every unit
   of a program. *)
type numbering = {
  mutable stamp : int;
  def_stamp : int array;
  def_index : int array;
  defs : Ir.Instr.Id.t array;
  mutable ndefs : int;
  label_stamp : int array;
  label_index : int array;
  labels : Ir.Label.t array;
  mutable nlabels : int;
  loop_index : int array; (* units own disjoint loops: no stamp needed *)
}

let numbering ssa =
  let cfg = Ir.Ssa.cfg ssa in
  let ni = Ir.Cfg.instr_id_bound cfg and nl = Ir.Cfg.num_blocks cfg in
  {
    stamp = -1;
    def_stamp = Array.make ni (-1);
    def_index = Array.make ni 0;
    defs = Array.make ni 0;
    ndefs = 0;
    label_stamp = Array.make nl (-1);
    label_index = Array.make nl 0;
    labels = Array.make nl 0;
    nlabels = 0;
    loop_index = Array.make (Ir.Loops.num_loops (Ir.Ssa.loops ssa)) (-1);
  }

let canon_def nb id =
  if nb.def_stamp.(id) = nb.stamp then nb.def_index.(id)
  else begin
    let k = nb.ndefs in
    nb.def_stamp.(id) <- nb.stamp;
    nb.def_index.(id) <- k;
    nb.defs.(k) <- id;
    nb.ndefs <- k + 1;
    k
  end

let canon_label nb l =
  if nb.label_stamp.(l) = nb.stamp then nb.label_index.(l)
  else begin
    let k = nb.nlabels in
    nb.label_stamp.(l) <- nb.stamp;
    nb.label_index.(l) <- k;
    nb.labels.(k) <- l;
    nb.nlabels <- k + 1;
    k
  end

let feed_value nb d (v : Ir.Instr.value) =
  match v with
  | Ir.Instr.Const n -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "c") n
  | Ir.Instr.Def id -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "d") (canon_def nb id)
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

let feed_term nb d (term : Ir.Cfg.terminator) =
  match term with
  | Ir.Cfg.Jump l -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "jmp") (canon_label nb l)
  | Ir.Cfg.Branch (v, a, b) ->
    let d = feed_value nb (Hash.Fnv.feed_string d "br") v in
    let d = Hash.Fnv.feed_int d (canon_label nb a) in
    Hash.Fnv.feed_int d (canon_label nb b)
  | Ir.Cfg.Halt -> Hash.Fnv.feed_string d "halt"

(* The unit key: an exact digest of everything the walk over the nest
   rooted at [root] can observe, in the unit's own numbering, so it
   does not depend on where the nest sits in the program. Instruction
   ids, block labels (exit targets and outside predecessors included)
   are numbered by first appearance in the nest's block order (label
   order), loops by position in [c_loops]. The key feeds the options;
   per loop its header, depth, parent, children and latches; per block
   its innermost loop, source label, predecessors (their order is the
   phi argument order), every instruction's index, operation and
   operands, and the terminator. The walk also reads the relative order
   of the unit's own ids (a periodic cycle anchors at its lowest-id
   phi, and inner exit values are visited in atom order), so the
   canonical indices of the unit's instructions are fed once more,
   sorted by id. Last, each def the unit defines or reads gets its SCCP
   constant fact: this is how a value flowing *into* the nest takes
   part in the key. SSA version names are left out: only renderers
   read them. A key hit means the cached artifact is valid once mapped
   through the two numberings ([relocate]). [index] is the unit's
   position, which stamps its numbering. *)
let unit_digest ~use_sccp ssa sccp nb ~index root =
  let loops = Ir.Ssa.loops ssa in
  let cfg = Ir.Ssa.cfg ssa in
  nb.stamp <- index;
  nb.ndefs <- 0;
  nb.nlabels <- 0;
  let d = ref (Hash.Fnv.feed_bool (Hash.Fnv.of_strings [ "unit" ]) use_sccp) in
  let feed_int n = d := Hash.Fnv.feed_int !d n in
  Ir.Label.Set.iter
    (fun l -> ignore (canon_label nb l))
    (Ir.Loops.loop loops root).Ir.Loops.blocks;
  let nblocks = nb.nlabels in
  let uloops = nest_loops loops root in
  Array.iteri (fun k lid -> nb.loop_index.(lid) <- k) uloops;
  let canon_loop lid = nb.loop_index.(lid) in
  Array.iter
    (fun lid ->
      let lp = Ir.Loops.loop loops lid in
      feed_int (canon_label nb lp.Ir.Loops.header);
      feed_int lp.Ir.Loops.depth;
      feed_int (match lp.Ir.Loops.parent with Some p -> canon_loop p | None -> -1);
      feed_int (List.length lp.Ir.Loops.loop_children);
      List.iter (fun c -> feed_int (canon_loop c)) lp.Ir.Loops.loop_children;
      feed_int (List.length lp.Ir.Loops.latches);
      List.iter (fun l -> feed_int (canon_label nb l)) lp.Ir.Loops.latches)
    uloops;
  let own = ref [] in
  for k = 0 to nblocks - 1 do
    let label = nb.labels.(k) in
    let b = Ir.Cfg.block cfg label in
    feed_int
      (match Ir.Loops.innermost loops label with Some l -> canon_loop l | None -> -1);
    d := Hash.Fnv.feed_string !d (Option.value ~default:"" b.Ir.Cfg.loop_name);
    let preds = Ir.Ssa.preds ssa label in
    feed_int (List.length preds);
    List.iter (fun p -> feed_int (canon_label nb p)) preds;
    feed_int (List.length b.Ir.Cfg.instrs);
    List.iter
      (fun (instr : Ir.Instr.t) ->
        own := instr.Ir.Instr.id :: !own;
        feed_int (canon_def nb instr.Ir.Instr.id);
        d := feed_op !d instr.Ir.Instr.op;
        feed_int (Array.length instr.Ir.Instr.args);
        Array.iter (fun v -> d := feed_value nb !d v) instr.Ir.Instr.args)
      b.Ir.Cfg.instrs;
    d := feed_term nb !d b.Ir.Cfg.term
  done;
  let own = Array.of_list !own in
  Array.sort Int.compare own;
  Array.iter (fun id -> feed_int nb.def_index.(id)) own;
  for k = 0 to nb.ndefs - 1 do
    feed_int
      (match sccp with
       | Some r -> Option.value ~default:min_int (Sccp.const_of r nb.defs.(k))
       | None -> min_int)
  done;
  ( !d,
    {
      c_defs = Array.sub nb.defs 0 nb.ndefs;
      c_labels = Array.sub nb.labels 0 nb.nlabels;
      c_loops = uloops;
    } )

exception Unmapped

(* The index of [x] in [a]. @raise Unmapped *)
let position a x =
  let rec go k = if k = Array.length a then raise Unmapped else if a.(k) = x then k else go (k + 1) in
  go 0

(* [relocate c a] maps artifact [a], stored by a program that numbers
   the same unit differently, into the program whose numbering is [c]:
   table keys, class atoms, loop ids, families, exit blocks, nodes and
   exit values go through the two numberings. [None] when [a] names an
   id the numberings do not cover, so the caller recomputes. *)
let relocate (c : canon) (a : unit_artifact) : unit_artifact option =
  let s = a.ua_canon in
  if
    Array.length s.c_defs <> Array.length c.c_defs
    || Array.length s.c_labels <> Array.length c.c_labels
    || Array.length s.c_loops <> Array.length c.c_loops
  then None
  else begin
    let defs = Ir.Instr.Id.Table.create (Array.length s.c_defs) in
    Array.iteri (fun k id -> Ir.Instr.Id.Table.replace defs id c.c_defs.(k)) s.c_defs;
    let def id =
      match Ir.Instr.Id.Table.find_opt defs id with
      | Some id' -> id'
      | None -> raise Unmapped
    in
    let through from into x = into.(position from x) in
    let label = through s.c_labels c.c_labels in
    let loop = through s.c_loops c.c_loops in
    let sym = Sym.rename (function Sym.Def d -> Sym.Def (def d) | a -> a) in
    let result r =
      (* Sized like [Classify.classify_loop]'s tables, so lookups in a
         relocated table cost what they cost in a computed one. *)
      let table = Ir.Instr.Id.Table.create 64 in
      Ir.Instr.Id.Table.iter
        (fun id cl ->
          Ir.Instr.Id.Table.replace table (def id) (Ivclass.rename ~loop ~sym ~def cl))
        r.table;
      { table; trip = Trip_count.rename ~sym ~label r.trip; nodes = Array.map def r.nodes }
    in
    try
      Some
        {
          ua_results = List.map result a.ua_results;
          ua_exits = List.map (fun (d, x) -> (def d, sym x)) a.ua_exits;
          ua_canon = c;
          ua_ranges = a.ua_ranges;
        }
    with Unmapped -> None
  end

(* -- the lazy per-source instance -- *)

type t = {
  src : string;
  opts : options;
  lock : Mutex.t;
  mutable v_parse : (Ir.Ast.program, string) result option;
  mutable v_lower : (Ir.Cfg.t, string) result option;
  mutable v_ssa : (Ir.Ssa.t, string) result option;
  mutable v_looptree : (Ir.Loops.t, string) result option;
  mutable v_sccp : (Sccp.result option, string) result option;
  mutable v_units : (unit_info list, string) result option;
  mutable v_classify : (analysis, string) result option;
  mutable v_trip : (string, string) result option;
  mutable v_range : (Range.t, string) result option;
}

let create ?(options = default_options) src =
  {
    src;
    opts = options;
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
  }

let options t = t.opts

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
    let v = staged Parse (fun () -> Ir.Parser.parse_result t.src) in
    t.v_parse <- Some v;
    v

let ensure_lower t =
  match t.v_lower with
  | Some v -> v
  | None ->
    let v =
      match ensure_parse t with
      | Error e -> Error e
      | Ok prog -> Ok (staged Lower (fun () -> Ir.Lower.lower prog))
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
        | [] -> Ok ssa
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
      | Ok ssa -> Ok (staged Looptree (fun () -> Ir.Ssa.loops ssa))
    in
    t.v_looptree <- Some v;
    v

let ensure_sccp t =
  match t.v_sccp with
  | Some v -> v
  | None ->
    let v =
      match ensure_ssa t with
      | Error e -> Error e
      | Ok ssa ->
        if not t.opts.use_sccp then Ok None
        else Ok (Some (staged Sccp (fun () -> Sccp.run ssa)))
    in
    t.v_sccp <- Some v;
    v

let ensure_units t =
  match t.v_units with
  | Some v -> v
  | None ->
    let v =
      match (ensure_looptree t, ensure_sccp t, ensure_ssa t) with
      | Ok loops, Ok sccp, Ok ssa ->
        staged Units (fun () ->
            let nb = numbering ssa in
            Ok
              (List.mapi
                 (fun index uroot ->
                   let udigest, ucanon =
                     unit_digest ~use_sccp:t.opts.use_sccp ssa sccp nb ~index uroot
                   in
                   { uroot; udigest; ucanon })
                 (Ir.Loops.roots loops)))
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    in
    t.v_units <- Some v;
    v

(* The Classify pass: probe [lookup] with each unit's digest,
   [relocate] each hit stored by a differently numbered program and
   [walk] the misses (together fanned out through [pool_run] when given
   and more than one unit needs either), [store] the relocated and
   fresh artifacts, and install the merged analysis. A bare pipeline
   passes no cache; the engine passes its shared unit-artifact cache.
   Returns one outcome per unit (none when Classify was already
   forced). Callers hold [t.lock]. *)
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
          let probed = List.mapi (fun k i -> (k, i, lookup i.udigest)) infos in
          (* A hit stored in this numbering is reused as is. The rest
             are relocated (a hit from a differently numbered program)
             or computed (a miss, or a hit that does not map), in one
             fan-out. *)
          let current i = function
            | Some a -> a.ua_canon = i.ucanon
            | None -> false
          in
          let work =
            Array.of_list (List.filter (fun (_, i, probe) -> not (current i probe)) probed)
          in
          (* Lazily built per-SSA state (dominators, the instruction
             index) must exist before a parallel walk can share it. *)
          if work <> [||] then begin
            ignore (Ir.Ssa.dom ssa);
            ignore (Ir.Cfg.find_instr_opt (Ir.Ssa.cfg ssa) 0)
          end;
          let relocated = Array.make (Array.length work) false in
          let finished =
            let thunks =
              Array.mapi
                (fun k (index, i, probe) () ->
                  match Option.bind probe (relocate i.ucanon) with
                  | Some a ->
                    relocated.(k) <- true;
                    a
                  | None ->
                    Obs.Trace.with_span ~cat:"pipeline"
                      ~attrs:[ ("unit", Obs.Trace.Int index) ]
                      "pipeline.unit"
                      (fun () -> walk ?sccp ssa i.ucanon))
                work
            in
            match pool_run with
            | Some run when Array.length thunks > 1 -> run thunks
            | _ -> Array.map (fun f -> f ()) thunks
          in
          let next = ref 0 in
          let outcomes, artifacts =
            List.split
              (List.map
                 (fun (index, i, probe) ->
                   let a, hit, relocated =
                     match probe with
                     | Some a when current i probe -> (a, true, false)
                     | _ ->
                       let k = !next in
                       incr next;
                       let a = finished.(k) in
                       (* A relocated artifact replaces the one it came
                          from, so the next request in this numbering
                          (the common case: the same file again) reuses
                          it as is. *)
                       store i.udigest a;
                       (a, relocated.(k), relocated.(k))
                   in
                   ( {
                       u_index = index;
                       u_loop = (Ir.Loops.loop loops i.uroot).Ir.Loops.name;
                       u_hit = hit;
                       u_relocated = relocated;
                     },
                     a ))
                 probed)
          in
          t.v_classify <- Some (Ok (merge_units ?sccp ssa artifacts));
          Ok outcomes))

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
      | Ok a -> Ok (staged Trip (fun () -> trip_report_of a))
    in
    t.v_trip <- Some v;
    v

(* The range analysis consumes the promoted classification tables; the
   closures keep [Range] free of a dependency on this module. *)
let range_of ?through (a : analysis) : Range.t =
  let class_of id =
    match innermost_loop a id with
    | Some lp -> table_entry a lp id
    | None -> None
    | exception Not_found -> None
  in
  let trip_of l = Option.map (fun r -> r.trip) a.by_loop.(l) in
  Range.compute ?sccp:a.sccp ?through ~class_of ~trip_of a.ssa

(* -- range sections (the Ranges pass through the unit layer) -- *)

let feed_extint d = function
  | Extint.Neg_inf -> Hash.Fnv.feed_string d "-inf"
  | Extint.Pos_inf -> Hash.Fnv.feed_string d "+inf"
  | Extint.Fin n -> Hash.Fnv.feed_int (Hash.Fnv.feed_string d "fin") n

(* The key of a root's range section: the unit digest (which fixes the
   root's instructions, loop shape, SCCP constants and classification)
   plus every fact the root's fixpoint reads from outside the unit —
   the SCCP executability of each canonical block, and the interval of
   each canonical def the unit reads but does not define, as the
   top-level pass left it. *)
let range_key (i : unit_info) (g : Range.region) =
  let c = i.ucanon in
  let d = ref (Hash.Fnv.feed_string i.udigest "ranges") in
  Array.iter (fun l -> d := Hash.Fnv.feed_bool !d (g.Range.executable l)) c.c_labels;
  Array.iter
    (fun id ->
      if not (g.Range.owns id) then
        d :=
          match g.Range.interval_now id with
          | None -> Hash.Fnv.feed_string !d "none"
          | Some iv -> feed_extint (feed_extint !d (Interval.lo iv)) (Interval.hi iv))
    c.c_defs;
  !d

(* A section's facts in the program numbered [c]. *)
let facts_of_section (c : canon) (s : range_section) : Range.facts =
  {
    Range.f_full = Array.fold_right (fun (k, iv) acc -> (c.c_defs.(k), iv) :: acc) s.rs_full [];
    f_body =
      Array.fold_right
        (fun (k, l, b, iv) acc -> (c.c_defs.(k), c.c_loops.(l), c.c_labels.(b), iv) :: acc)
        s.rs_body [];
    f_rounds = s.rs_rounds;
  }

(* Facts solved in the program numbered [c], in canonical indices;
   [None] when they name an id the numbering does not cover. *)
let section_of_facts (c : canon) key (f : Range.facts) : range_section option =
  let defs = Ir.Instr.Id.Table.create (Array.length c.c_defs) in
  Array.iteri (fun k id -> Ir.Instr.Id.Table.replace defs id k) c.c_defs;
  let def id =
    match Ir.Instr.Id.Table.find_opt defs id with Some k -> k | None -> raise Unmapped
  in
  try
    Some
      {
        rs_key = key;
        rs_full = Array.of_list (List.map (fun (id, iv) -> (def id, iv)) f.Range.f_full);
        rs_body =
          Array.of_list
            (List.map
               (fun (id, l, b, iv) -> (def id, position c.c_loops l, position c.c_labels b, iv))
               f.Range.f_body);
        rs_rounds = f.Range.f_rounds;
      }
  with Unmapped -> None

(* The Ranges pass: solve the range fixpoint root by root, answering
   each unit whose cached artifact holds a section under the same key
   from that section, and storing each freshly solved section with the
   unit's artifact by functional update (a unit whose artifact has left
   the cache keeps no section). Without [cache] (a bare pipeline) every
   root is solved. Returns one outcome per unit (none when Ranges
   was already forced). Callers hold [t.lock]. *)
let range_units ?cache t =
  match t.v_range with
  | Some (Error e) -> Error e
  | Some (Ok _) -> Ok []
  | None -> (
    match (ensure_classify t, ensure_units t) with
    | Error e, _ | _, Error e ->
      t.v_range <- Some (Error e);
      Error e
    | Ok a, Ok infos ->
      staged Ranges (fun () ->
          let loops = Ir.Ssa.loops a.ssa in
          let by_root = Hashtbl.create 64 in
          List.iteri (fun k i -> Hashtbl.replace by_root i.uroot (k, i)) infos;
          let outcomes = ref [] in
          let through (lookup, store) (g : Range.region) =
            match Hashtbl.find_opt by_root g.Range.root with
            | None -> g.Range.solve ()
            | Some (index, i) ->
              let key = range_key i g in
              let cached = lookup i.udigest in
              let hit =
                match cached with
                | Some { ua_ranges = Some s; _ } when Hash.Fnv.equal s.rs_key key -> Some s
                | _ -> None
              in
              outcomes :=
                {
                  u_index = index;
                  u_loop = (Ir.Loops.loop loops i.uroot).Ir.Loops.name;
                  u_hit = hit <> None;
                  u_relocated = false;
                }
                :: !outcomes;
              match hit with
              | Some s -> facts_of_section i.ucanon s
              | None ->
                let f = g.Range.solve () in
                (match (cached, section_of_facts i.ucanon key f) with
                 | Some ua, (Some _ as section) -> store i.udigest { ua with ua_ranges = section }
                 | _ -> ());
                f
          in
          t.v_range <- Some (Ok (range_of ?through:(Option.map through cache) a));
          Ok (List.rev !outcomes)))

let ensure_range t =
  match range_units t with
  | Error e -> Error e
  | Ok _ -> Option.get t.v_range

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let parse t = locked t (fun () -> ensure_parse t)
let lower t = locked t (fun () -> ensure_lower t)
let ssa t = locked t (fun () -> ensure_ssa t)
let looptree t = locked t (fun () -> ensure_looptree t)
let sccp t = locked t (fun () -> ensure_sccp t)
let trip_report t = locked t (fun () -> ensure_trip t)
let promoted t = locked t (fun () -> ensure_classify t)
let report t = locked t (fun () -> Result.map report_of (ensure_classify t))
let units t = locked t (fun () -> ensure_units t)
let ranges t = locked t (fun () -> ensure_range t)
let range_report t = locked t (fun () -> Result.map Range.report (ensure_range t))

let classify_with_units ?pool_run ~lookup ~store t =
  locked t (fun () -> classify_units ?pool_run ~lookup ~store t)

let ranges_with_units ~lookup ~store t =
  locked t (fun () -> range_units ~cache:(lookup, store) t)

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
      | Depgraph | Unitclassify | VerifyIr | VerifyClass | VerifyRanges | VerifyTrans ->
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
      | Unitclassify -> ( match t.v_classify with Some (Ok _) -> true | _ -> false)
      | Depgraph | VerifyIr | VerifyClass | VerifyRanges | VerifyTrans -> false)
