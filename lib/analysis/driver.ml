(* The whole-program analysis driver — a thin façade over
   Analysis.Pipeline, which owns the classification walk (inner-to-
   outer classification, trip counts, exit values, multiloop
   promotion). The driver keeps the query surface: classification
   lookups by def / SSA name and the global (whole-nest) resolution
   that dependence testing needs. *)

type loop_result = Pipeline.loop_result = {
  loop : Ir.Loops.loop;
  table : Ivclass.t Ir.Instr.Id.Table.t;
  graph : Ssa_graph.t;
  trip : Trip_count.t;
}

type t = Pipeline.analysis = {
  ssa : Ir.Ssa.t;
  sccp : Sccp.result option;
  by_loop : loop_result option array; (* indexed by loop id *)
  exit_values : Sym.t Ir.Instr.Id.Table.t;
}

let of_analysis (a : Pipeline.analysis) : t = a

let ssa t = t.ssa
let sccp t = t.sccp

let loop_result t loop_id = t.by_loop.(loop_id)

let trip_count t loop_id =
  match t.by_loop.(loop_id) with
  | Some r -> r.trip
  | None -> Trip_count.unknown

let exit_value t id = Ir.Instr.Id.Table.find_opt t.exit_values id

(* [class_of t id] is the classification of a def in its innermost loop;
   defs outside all loops are invariant. *)
let class_of t id : Ivclass.t =
  let loops = Ir.Ssa.loops t.ssa in
  let label = Ir.Cfg.block_of_instr (Ir.Ssa.cfg t.ssa) id in
  match Ir.Loops.innermost loops label with
  | Some lp -> (
    match t.by_loop.(lp) with
    | Some r ->
      Option.value ~default:Ivclass.Unknown (Ir.Instr.Id.Table.find_opt r.table id)
    | None -> Ivclass.Unknown)
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

(* --- entry point: the pipeline's classification walk over the whole
   loop forest (an SSA-only caller has no AST to partition) --- *)

let analyze ?(use_sccp = true) (ssa : Ir.Ssa.t) : t =
  Obs.Trace.with_span ~cat:"pipeline" "pipeline.analyze" @@ fun () ->
  let sccp =
    if use_sccp then
      Some (Obs.Trace.with_span ~cat:"pipeline" "pipeline.sccp" (fun () -> Sccp.run ssa))
    else None
  in
  Pipeline.analyze_nests ?sccp ssa (Ir.Loops.roots (Ir.Ssa.loops ssa))

(* [ranges t] runs the value-range analysis over the (promoted)
   classification — a fresh computation; cached access goes through the
   pipeline instance / engine. *)
let ranges (t : t) : Range.t = Pipeline.range_of t

(* --- reporting --- *)

let namer t : Ivclass.namer = Pipeline.namer_of t
let class_to_string t c = Ivclass.to_string_with (namer t) c
let pp_report fmt t = Pipeline.pp_report fmt t
let report t = Pipeline.report_of t

(* [analyze_source src] parses, lowers, converts to SSA and analyzes. *)
let analyze_source ?use_sccp src = analyze ?use_sccp (Ir.Ssa.of_source src)
