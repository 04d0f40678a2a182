(* Loop-nest dependence graphs: every pair of references to the same
   array (with at least one write) is tested per subscript dimension and
   the results merged into a single edge — the structure the loop
   transformations of [PW86, WB87] consume. *)

module Sym = Analysis.Sym
module Ivclass = Analysis.Ivclass
module Pipeline = Analysis.Pipeline
module Trip_count = Analysis.Trip_count
module Range = Analysis.Range
module Interval = Analysis.Interval

type ref_kind = Read | Write

type array_ref = {
  instr : Ir.Instr.Id.t;
  array : Ir.Ident.t;
  kind : ref_kind;
  block : Ir.Label.t;
  subscripts : Ivclass.t list; (* one classification per dimension *)
  subscript_defs : Ir.Instr.Id.t option list; (* defs, for same-def tests *)
  pos : int; (* program order *)
  loops : int list; (* enclosing loops, outer first *)
}

type dep_kind = Flow | Anti | Output | Input

type edge = {
  src : array_ref;
  dst : array_ref;
  kind : dep_kind;
  outcome : Deptest.outcome;
}

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

(* Enclosing loops of a block, outer first. *)
let enclosing_loops (loops : Ir.Loops.t) label =
  let rec up acc = function
    | None -> acc
    | Some id -> up (id :: acc) (Ir.Loops.loop loops id).Ir.Loops.parent
  in
  up [] (Ir.Loops.innermost loops label)

(* Every loop a class's value varies in, nested bases included. *)
let rec class_loops (c : Ivclass.t) =
  match c with
  | Ivclass.Unknown | Ivclass.Invariant _ -> []
  | Ivclass.Linear { loop; base; _ } -> loop :: class_loops base
  | Ivclass.Wrap { loop; inner; _ } -> loop :: class_loops inner
  | Ivclass.Poly { loop; _ }
  | Ivclass.Geometric { loop; _ }
  | Ivclass.Periodic { loop; _ }
  | Ivclass.Monotonic { loop; _ } -> [ loop ]

(* Collect every array reference of the program, in program order. *)
let collect_refs (t : Pipeline.analysis) : array_ref list =
  let ssa = t.Pipeline.ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let loops = Ir.Ssa.loops ssa in
  let dom = Ir.Ssa.dom ssa in
  let class_of_value (v : Ir.Instr.value) = Pipeline.global_class_of t v in
  (* A subscript defined in a loop that does not enclose the reference
     holds that loop's exit value; its class in the defining loop's frame
     ranges over iterations the reference never sees. *)
  let subscript_class enclosing (v : Ir.Instr.value) =
    let in_frame c = List.for_all (fun l -> List.mem l enclosing) (class_loops c) in
    let c = class_of_value v in
    if in_frame c then c
    else
      match v with
      | Ir.Instr.Def d -> (
        match Pipeline.exit_value t d with
        | Some s ->
          let c = Pipeline.resolve_global t (Ivclass.Invariant s) in
          if in_frame c then c else Ivclass.Unknown
        | None -> Ivclass.Unknown)
      | Ir.Instr.Const _ | Ir.Instr.Param _ -> Ivclass.Unknown
  in
  let def_of (v : Ir.Instr.value) =
    match v with Ir.Instr.Def d -> Some d | _ -> None
  in
  let refs = ref [] in
  List.iter
    (fun label ->
      List.iter
        (fun (instr : Ir.Instr.t) ->
          let mk array kind idx =
            let enclosing = enclosing_loops loops label in
            refs :=
              {
                instr = instr.Ir.Instr.id;
                array;
                kind;
                block = label;
                subscripts = List.map (subscript_class enclosing) idx;
                subscript_defs = List.map def_of idx;
                (* Instruction ids are assigned in lowering order, which
                   is the program's textual order — block labels are not
                   (a loop's continuation block is created before its
                   body). *)
                pos = instr.Ir.Instr.id;
                loops = enclosing;
              }
              :: !refs
          in
          match instr.Ir.Instr.op with
          | Ir.Instr.Aload a -> mk a Read (Array.to_list instr.Ir.Instr.args)
          | Ir.Instr.Astore a ->
            let n = Array.length instr.Ir.Instr.args in
            mk a Write (Array.to_list (Array.sub instr.Ir.Instr.args 0 (n - 1)))
          | _ -> ())
        (Ir.Cfg.block cfg label).Ir.Cfg.instrs)
    (* Code the CFG drops as unreachable never runs, and has no
       classification to test. *)
    (List.filter (Ir.Dom.is_reachable dom) (Ir.Cfg.labels cfg));
  List.sort (fun (a : array_ref) b -> compare a.pos b.pos) !refs

let common_loops a b = List.filter (fun l -> List.mem l b.loops) a.loops

(* Merge per-dimension outcomes into one edge outcome: any independent
   dimension kills the dependence; the unions intersect (vector by
   vector); same-loop distances must agree. *)
let merge_outcomes common (outcomes : Deptest.outcome list) : Deptest.outcome =
  let exception Indep in
  try
    let deps =
      List.map
        (function Deptest.Independent -> raise Indep | Deptest.Dependent d -> d)
        outcomes
    in
    match deps with
    | [] ->
      (* No subscripts (scalar array?): treat as always dependent. *)
      Deptest.maybe common
    | first :: rest ->
      let inter (v : Deptest.vector) (w : Deptest.vector) =
        List.map
          (fun (l, ds) ->
            match List.assoc_opt l w with
            | Some ds' -> (l, Deptest.dirset_inter ds ds')
            | None -> (l, ds))
          v
      in
      let vectors =
        List.fold_left
          (fun acc (d : Deptest.dependence) ->
            List.concat_map (fun v -> List.map (inter v) d.Deptest.vectors) acc)
          first.Deptest.vectors rest
      in
      let distance =
        (* Union of known per-loop distances; conflicts are independence.
           The accumulator is borrowed per-domain scratch — this runs
           once per tested pair, which on a large corpus is the hottest
           allocation site of the dependence pass. *)
        Analysis.Scratch.with_distances @@ fun table ->
        let all_known = ref true in
        List.iter
          (fun (d : Deptest.dependence) ->
            match d.Deptest.distance with
            | None -> all_known := false
            | Some ds ->
              List.iter
                (fun (l, n) ->
                  match Hashtbl.find_opt table l with
                  | Some n' when n' <> n -> raise Indep
                  | _ -> Hashtbl.replace table l n)
                ds)
          deps;
        if !all_known then
          Some (Hashtbl.fold (fun l n acc -> (l, n) :: acc) table []
                |> List.sort Stdlib.compare)
        else None
      in
      Deptest.restrict
        {
          Deptest.vectors;
          distance;
          holds_after =
            List.fold_left (fun m (d : Deptest.dependence) -> Stdlib.max m d.Deptest.holds_after) 0 deps;
          exact = List.for_all (fun (d : Deptest.dependence) -> d.Deptest.exact) deps;
          note =
            List.find_map (fun (d : Deptest.dependence) -> d.Deptest.note) deps;
        }
  with Indep -> Deptest.Independent

(* Coupled-subscript refinement: when every dimension's equation has
   equal source and sink coefficients, the per-dimension distance
   constraints form a linear system; solving it can pin distances no
   single dimension determines (and can prove independence outright). *)
let coupled_refinement src dst (outcome : Deptest.outcome) : Deptest.outcome =
  match outcome with
  | Deptest.Independent -> outcome
  | Deptest.Dependent d -> (
    let ndims = Stdlib.min (List.length src.subscripts) (List.length dst.subscripts) in
    let rows =
      List.init ndims (fun i ->
          match
            ( Affine.of_class (List.nth src.subscripts i),
              Affine.of_class (List.nth dst.subscripts i) )
          with
          (* The distance system describes the steady state only; a
             wrap-around dimension also depends through its first
             iterations, so refinement must stand back. *)
          | Some a, Some b
            when a.Affine.holds_after = 0 && b.Affine.holds_after = 0 ->
            Deptest.equation_for_distances a b
          | _ -> None)
    in
    if not (List.for_all Option.is_some rows) then outcome
    else begin
      match Deptest.solve_distance_system (List.filter_map Fun.id rows) with
      | None -> Deptest.Independent
      | Some [] -> outcome (* nothing determined *)
      | Some dists ->
        let distance =
          match d.Deptest.distance with
          | Some old ->
            (* Union, preferring the coupled solution. *)
            let extra = List.filter (fun (l, _) -> not (List.mem_assoc l dists)) old in
            Some (List.sort Stdlib.compare (dists @ extra))
          | None -> Some dists
        in
        (* Sharpen directions with the determined distances. *)
        Deptest.restrict
          { d with distance; vectors = List.map (Deptest.sharpen dists) d.Deptest.vectors }
    end)

(* Execution-order filtering: an edge from [src] to [dst] only exists for
   direction vectors compatible with [src] executing first. When [src]
   precedes [dst] textually the same iteration is allowed; otherwise the
   dependence must be carried by some loop. Each vector is filtered the
   same per-loop way, constraining only the outermost common loop
   (sound: an inner '>' under an outer '<' is legal). *)
let carried_only = { Deptest.no_dirs with lt = true }
let not_backward = { Deptest.all_dirs with gt = false }

let time_filter ~src_first common (outcome : Deptest.outcome) : Deptest.outcome =
  match (outcome, common) with
  | Deptest.Independent, _ -> Deptest.Independent
  | Deptest.Dependent _, [] ->
    (* No common loop: only textual order can carry a dependence. *)
    if src_first then outcome else Deptest.Independent
  | Deptest.Dependent d, outermost :: rest ->
    (* With a single common loop and the source textually after the
       sink, the dependence must be strictly loop-carried. *)
    let allowed = if (not src_first) && rest = [] then carried_only else not_backward in
    let filter v =
      List.map
        (fun (l, ds) -> if l = outermost then (l, Deptest.dirset_inter ds allowed) else (l, ds))
        v
    in
    Deptest.restrict { d with vectors = List.map filter d.Deptest.vectors }

(* --- region strictness (paper §5.4) ---

   "Within the body of the conditional statement (e.g. at the assignment
   to array C), k2 also must be strictly monotonic. One way to detect
   this would be to notice that any uses of k2 in this region are
   post-dominated by the strictly monotonic assignment."

   [strict_region t loop family] is the set of loop blocks from which
   every in-loop path to a latch passes a block containing a *strict*
   member of the monotonic family: a family value used there cannot
   repeat on a later iteration. *)
let strict_region (t : Pipeline.analysis) loop_id family : Ir.Label.Set.t =
  let ssa = t.Pipeline.ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let loop = Ir.Loops.loop (Ir.Ssa.loops ssa) loop_id in
  match t.Pipeline.by_loop.(loop_id) with
  | None -> Ir.Label.Set.empty
  | Some r ->
    (* Blocks holding a strict update of this family. *)
    let strict_blocks =
      Ir.Instr.Id.Table.fold
        (fun d c acc ->
          match c with
          | Ivclass.Monotonic m when m.Ivclass.family = family && m.Ivclass.strict ->
            Ir.Label.Set.add (Ir.Cfg.block_of_instr cfg d) acc
          | _ -> acc)
        r.Pipeline.table Ir.Label.Set.empty
    in
    if Ir.Label.Set.is_empty strict_blocks then Ir.Label.Set.empty
    else begin
      (* Backward fixpoint: good(b) iff b contains a strict update, or b
         continues iterating only through good blocks (paths that leave
         the loop end the activation and cannot produce a repeat). *)
      let latches = loop.Ir.Loops.latches in
      let is_latch b = List.exists (Ir.Label.equal b) latches in
      let good = Hashtbl.create 16 in
      Ir.Label.Set.iter (fun b -> Hashtbl.replace good b true) loop.Ir.Loops.blocks;
      let changed = ref true in
      while !changed do
        changed := false;
        Ir.Label.Set.iter
          (fun b ->
            if Hashtbl.find good b && not (Ir.Label.Set.mem b strict_blocks) then begin
              let fails_here = is_latch b in
              let bad_succ =
                List.exists
                  (fun s ->
                    Ir.Label.Set.mem s loop.Ir.Loops.blocks
                    && not (Ir.Label.equal s loop.Ir.Loops.header)
                    && not (Hashtbl.find good s))
                  (Ir.Cfg.successors cfg b)
              in
              if fails_here || bad_succ then begin
                Hashtbl.replace good b false;
                changed := true
              end
            end)
          loop.Ir.Loops.blocks
      done;
      Ir.Label.Set.filter (fun b -> Hashtbl.find good b) loop.Ir.Loops.blocks
    end

(* Upgrade a reference's monotonic subscript classes using the region
   rule: at a block in the strict region, the family cannot repeat.
   [region loop family] is {!strict_region}, computed once per (loop,
   family) by the caller. *)
let refine_ref_strictness region (r : array_ref) : array_ref =
  let refined =
    List.map
      (fun c ->
        match c with
        | Ivclass.Monotonic m
          when (not m.Ivclass.strict) && m.Ivclass.family <> Ivclass.no_family ->
          if Ir.Label.Set.mem r.block (region m.Ivclass.loop m.Ivclass.family) then
            Ivclass.Monotonic { m with Ivclass.strict = true }
          else c
        | c -> c)
      r.subscripts
  in
  { r with subscripts = refined }

(* A self edge (a write against its own later executions) can never be
   satisfied by the same statement instance: the all-equal iteration
   vector is no dependence. *)
let drop_all_equal (outcome : Deptest.outcome) : Deptest.outcome =
  let all_equal v = v <> [] && List.for_all (fun (_, ds) -> ds = Deptest.eq_dir) v in
  match outcome with
  | Deptest.Dependent d when List.exists all_equal d.Deptest.vectors ->
    Deptest.restrict
      { d with vectors = List.filter (fun v -> not (all_equal v)) d.Deptest.vectors }
  | o -> o

(* Range-analysis pre-test: two subscript positions whose use-site value
   intervals never overlap can never index the same cell through this
   dimension — the pair is independent before any equation is built.
   Sound because [Range.interval_at] bounds every value the def computes
   over the whole execution (use-site refined below a counted exit
   test). *)
let range_disjoint ranges (src : array_ref) (dst : array_ref) dim : bool =
  match ranges with
  | None -> false
  | Some r -> (
    match
      (List.nth src.subscript_defs dim, List.nth dst.subscript_defs dim)
    with
    | Some d1, Some d2 when not (Ir.Instr.Id.equal d1 d2) ->
      let i1 = Range.interval_at r ~block:src.block d1
      and i2 = Range.interval_at r ~block:dst.block d2 in
      Interval.meet i1 i2 = None
    | _ -> false)

(* One directed edge, or [None] when disproved. *)
let directed_edge_untraced ?ranges ~bounds (src : array_ref) (dst : array_ref) :
    edge option =
  let kind =
    match (src.kind, dst.kind) with
    | Write, Read -> Flow
    | Read, Write -> Anti
    | Write, Write -> Output
    | Read, Read -> Input
  in
  let common = common_loops src dst in
  let ndims = Stdlib.min (List.length src.subscripts) (List.length dst.subscripts) in
  let sym_range =
    Option.map
      (fun r s ->
        match Range.sym_interval r s with
        | Some iv when not (Interval.is_top iv) ->
          Some (Interval.lo iv, Interval.hi iv)
        | _ -> None)
      ranges
  in
  let outcomes =
    List.init ndims (fun i ->
        if range_disjoint ranges src dst i then Deptest.Independent
        else
          Deptest.test ~bounds ~common
            ?src_def:(List.nth src.subscript_defs i)
            ?dst_def:(List.nth dst.subscript_defs i)
            ?sym_range
            (List.nth src.subscripts i) (List.nth dst.subscripts i))
  in
  let self = src.instr = dst.instr in
  let outcome =
    merge_outcomes common outcomes
    |> coupled_refinement src dst
    |> time_filter ~src_first:(src.pos < dst.pos) common
    |> if self then drop_all_equal else Fun.id
  in
  match outcome with
  | Deptest.Independent -> None
  | Deptest.Dependent _ -> Some { src; dst; kind; outcome }

let ref_kind_string = function Read -> "read" | Write -> "write"

let directed_edge ?ranges ~bounds (src : array_ref) (dst : array_ref) :
    edge option =
  if not (Obs.Trace.enabled ()) then
    directed_edge_untraced ?ranges ~bounds src dst
  else
    Obs.Trace.with_span ~cat:"deptest"
      ~attrs:
        [ ("array", Obs.Trace.Str (Ir.Ident.name src.array));
          ("src", Obs.Trace.Str (ref_kind_string src.kind));
          ("dst", Obs.Trace.Str (ref_kind_string dst.kind)) ]
      "deptest.pair"
      (fun () ->
        let e = directed_edge_untraced ?ranges ~bounds src dst in
        Obs.Trace.add_attrs
          [ ( "outcome",
              Obs.Trace.Str
                (match e with
                 | None -> "independent"
                 | Some e -> kind_to_string e.kind) ) ];
        e)

(* [build ?include_input t] is the dependence graph of the program: both
   directions of every same-array pair with at least one write are
   tested, and only surviving (possibly conservative) edges are kept. *)
let build ?(include_input = false) ?ranges (t : Pipeline.analysis) : edge list =
  Obs.Trace.with_span ~cat:"deptest" "deptest.build" @@ fun () ->
  let regions = Hashtbl.create 8 in
  let region loop family =
    match Hashtbl.find_opt regions (loop, family) with
    | Some r -> r
    | None ->
      let r = strict_region t loop family in
      Hashtbl.replace regions (loop, family) r;
      r
  in
  let refs = List.map (refine_ref_strictness region) (collect_refs t) in
  (* Iteration-count bounds for the Banerjee tests: an exact count when
     available, else the multi-exit maximum (paper §5.2: "useful for
     dependence testing, to place bounds on the solution space"). *)
  let bounds l =
    let trip = Pipeline.trip_count t l in
    match Trip_count.count_int trip with
    | Some n -> Some n
    | None -> Trip_count.max_count_int trip
  in
  let edges = ref [] in
  let add = function Some e -> edges := e :: !edges | None -> () in
  (* Pairs are enumerated within per-array buckets, each in program
     order: walking the references in program order and pairing each
     with the rest of its bucket yields the edges in the order a scan
     over every later reference would. *)
  let buckets = Ir.Ident.Tbl.create 16 in
  List.iter
    (fun (r : array_ref) ->
      Ir.Ident.Tbl.replace buckets r.array
        (r :: Option.value ~default:[] (Ir.Ident.Tbl.find_opt buckets r.array)))
    (List.rev refs);
  List.iter
    (fun (r1 : array_ref) ->
      let rest =
        match Ir.Ident.Tbl.find buckets r1.array with _ :: rest -> rest | [] -> []
      in
      Ir.Ident.Tbl.replace buckets r1.array rest;
      (* A write also depends on itself across iterations (output): the
         self-edge is how the §5.4 strict-region rule shows C(k2)'s
         cells are written at most once. *)
      if r1.kind = Write then add (directed_edge ?ranges ~bounds r1 r1);
      List.iter
        (fun (r2 : array_ref) ->
          if r1.kind = Write || r2.kind = Write || include_input then begin
            add (directed_edge ?ranges ~bounds r1 r2);
            add (directed_edge ?ranges ~bounds r2 r1)
          end)
        rest)
    refs;
  List.rev !edges

(* [direction_vectors_of ~bounds edge] enumerates full direction vectors
   for an edge whose every dimension is affine, intersecting the
   per-dimension vector sets (used by interchange legality for
   precision beyond the per-loop direction summary). *)
let direction_vectors_of ~(bounds : int -> int option) (e : edge) :
    Deptest.simple_dir list list option =
  let common = common_loops e.src e.dst in
  let ndims = Stdlib.min (List.length e.src.subscripts) (List.length e.dst.subscripts) in
  let per_dim =
    List.init ndims (fun i ->
        match
          ( Affine.of_class (List.nth e.src.subscripts i),
            Affine.of_class (List.nth e.dst.subscripts i) )
        with
        | Some a, Some b -> Deptest.direction_vectors ~bounds ~common a b
        | _ -> None)
  in
  if List.for_all Option.is_some per_dim then begin
    match List.filter_map Fun.id per_dim with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun acc vs -> List.filter (fun v -> List.mem v vs) acc)
           first rest)
  end
  else None

(* --- the legality query: what loop transformations ask of the graph --- *)

(* Loop [l] carries an edge when some vector lets source and sink run in
   different iterations of [l] ('<' or '>' feasible); a loop not common
   to both references carries nothing. *)
let carried_by l e =
  match e.outcome with
  | Deptest.Independent -> false
  | Deptest.Dependent d ->
    List.exists
      (fun v ->
        match List.assoc_opt l v with
        | Some ds -> ds.Deptest.lt || ds.Deptest.gt
        | None -> false)
      d.Deptest.vectors

let carries g l = List.exists (carried_by l) g

(* Interchanging (outer, inner) runs a dependence of direction (<, >)
   sink-first. Exact distances decide when both loops have one;
   otherwise any vector that allows (<, >) blocks. *)
let blocks_interchange ~outer ~inner e =
  match e.outcome with
  | Deptest.Independent -> false
  | Deptest.Dependent d -> (
    match d.Deptest.distance with
    | Some dists when List.mem_assoc outer dists && List.mem_assoc inner dists ->
      List.assoc outer dists > 0 && List.assoc inner dists < 0
    | _ ->
      let dir v l = Option.value ~default:Deptest.all_dirs (List.assoc_opt l v) in
      List.exists (fun v -> (dir v outer).Deptest.lt && (dir v inner).Deptest.gt) d.Deptest.vectors)

let permits_interchange g ~outer ~inner = not (List.exists (blocks_interchange ~outer ~inner) g)

(* The exact distance vectors over [loops] (0 where a dependence records
   none) that a unimodular transformation must keep lexicographically
   positive; [None] when some dependence has no exact distances. *)
let distance_vectors g loops =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | e :: rest -> (
      match e.outcome with
      | Deptest.Independent -> go acc rest
      | Deptest.Dependent { Deptest.distance = Some dists; _ } ->
        let v = List.map (fun l -> Option.value ~default:0 (List.assoc_opt l dists)) loops in
        go (Array.of_list v :: acc) rest
      | Deptest.Dependent _ -> None)
  in
  go [] g

(* The one renderer of an edge: its kind, both references and the
   outcome, on one line. *)
let add_edge (t : Pipeline.analysis) buf e =
  let name id = Ir.Ssa.primary_name t.Pipeline.ssa id in
  Buffer.add_string buf (kind_to_string e.kind);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Ir.Ident.name e.src.array);
  Buffer.add_char buf '@';
  Buffer.add_string buf (name e.src.instr);
  Buffer.add_string buf " -> ";
  Buffer.add_string buf (Ir.Ident.name e.dst.array);
  Buffer.add_char buf '@';
  Buffer.add_string buf (name e.dst.instr);
  Buffer.add_string buf ": ";
  Deptest.add_outcome buf e.outcome

let pp_edge t fmt e =
  let buf = Buffer.create 128 in
  add_edge t buf e;
  Format.pp_print_string fmt (Buffer.contents buf)

let to_string t g =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      add_edge t buf e;
      Buffer.add_char buf '\n')
    g;
  Buffer.contents buf
