(* The paper's core algorithm: classify every strongly connected region
   of a loop's SSA graph at the moment Tarjan's algorithm completes it
   (§3.1, §4). Because SSA-graph edges point at operands, every operand
   of a region is already classified when the region is emitted, so the
   whole classification is a single non-iterative pass, linear in the
   size of the SSA graph.

   Shapes recognized, in the order they are tried:
     - trivial regions: the operator algebra (§5.1) and wrap-around
       variables (§4.1, a loop-header phi alone in its region);
     - cycles through a single loop-header phi whose cumulative effect is
       v' = m*v + p: linear families (§3.1, incl. the same-offset
       conditional increments of Fig 3), polynomial and geometric
       induction variables (§4.3), and flip-flops (m = -1, p invariant);
     - cycles of loop-header phis only: periodic families (§4.2);
     - anything else with consistently signed increments: monotonic
       variables (§4.4), with per-member strictness. *)

open Bignum

type ctx = {
  ssa : Ir.Ssa.t;
  loop : Ir.Loops.loop;
  graph : Ssa_graph.t;
  table : Ivclass.t Ir.Instr.Id.Table.t;
  outer_const : Ir.Instr.Id.t -> Sym.t option;
      (* constant/invariant values for defs outside this loop *)
  inner_exit : Ir.Instr.Id.t -> Sym.t option;
      (* exit values of already-processed inner loops (§5.3) *)
}

let loop_id ctx = ctx.loop.Ir.Loops.id

(* --- classification provenance (lib/obs) ---

   Every SCR emits one event naming its members, the shape that was
   tried, and the rule that fired — the record `ivtool explain` and the
   trace exporters render. Events cost nothing unless a collector is
   installed. *)

let namer ctx : Ivclass.namer =
  let loops = Ir.Ssa.loops ctx.ssa in
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
        | Sym.Def id -> Ir.Ssa.primary_name ctx.ssa id);
  }

(* [prov ctx scc ~shape ~rule] — call after the SCR's table entries are
   written, so the event can record each member's final class. *)
let prov ctx (scc : Ir.Instr.t list) ~shape ~rule =
  if Obs.Trace.enabled () then begin
    let nm = namer ctx in
    let name_of (i : Ir.Instr.t) = Ir.Ssa.primary_name ctx.ssa i.Ir.Instr.id in
    let class_of (i : Ir.Instr.t) =
      Ivclass.to_string_with nm
        (Option.value ~default:Ivclass.Unknown
           (Ir.Instr.Id.Table.find_opt ctx.table i.Ir.Instr.id))
    in
    Obs.Trace.event ~cat:"provenance" "classify.scr"
      ~attrs:
        ([
           ("loop", Obs.Trace.Str ctx.loop.Ir.Loops.name);
           ("members", Obs.Trace.Str (String.concat "," (List.map name_of scc)));
           ("size", Obs.Trace.Int (List.length scc));
           ("shape", Obs.Trace.Str shape);
           ("rule", Obs.Trace.Str rule);
         ]
        @ List.map
            (fun i -> ("class." ^ name_of i, Obs.Trace.Str (class_of i)))
            scc)
  end

(* Is this def lexically inside the current loop? *)
let in_loop ctx id =
  Ir.Label.Set.mem (Ir.Cfg.block_of_instr (Ir.Ssa.cfg ctx.ssa) id) ctx.loop.Ir.Loops.blocks

(* Entry and back arguments of a header phi, determined by whether the
   corresponding predecessor is inside the loop. *)
let split_phi_args ctx (phi : Ir.Instr.t) =
  let preds = Ir.Ssa.preds ctx.ssa ctx.loop.Ir.Loops.header in
  let entry = ref [] and back = ref [] in
  List.iteri
    (fun i p ->
      let v = phi.Ir.Instr.args.(i) in
      if Ir.Label.Set.mem p ctx.loop.Ir.Loops.blocks then back := v :: !back
      else entry := v :: !entry)
    preds;
  (List.rev !entry, List.rev !back)

(* --- classification of operand values (non-cycle path) --- *)

let rec class_of_value ctx (v : Ir.Instr.value) : Ivclass.t =
  match v with
  | Ir.Instr.Const c -> Invariant (Sym.of_int c)
  | Ir.Instr.Param x -> Invariant (Sym.param x)
  | Ir.Instr.Def d -> class_of_def ctx d

and class_of_def ctx d : Ivclass.t =
  if Ssa_graph.mem ctx.graph d then
    Option.value ~default:Ivclass.Unknown (Ir.Instr.Id.Table.find_opt ctx.table d)
  else if in_loop ctx d then begin
    (* A def belonging to a nested inner loop: use its exit value if the
       inner loop was countable (paper §5.3), otherwise unknown. *)
    match ctx.inner_exit d with
    | Some sym -> class_of_sym ctx sym
    | None -> Unknown
  end
  else begin
    (* Outside the loop: loop invariant; chase constants when known. *)
    match ctx.outer_const d with
    | Some sym -> Invariant sym
    | None -> Invariant (Sym.def d)
  end

(* Interpret a symbolic polynomial whose atoms may be defs of the current
   loop, by folding the class algebra over its terms. *)
and class_of_sym ctx (s : Sym.t) : Ivclass.t =
  let atom_class = function
    | Sym.Param x -> Ivclass.Invariant (Sym.param x)
    | Sym.Def d -> class_of_def ctx d
  in
  List.fold_left
    (fun acc (mono, coeff) ->
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
    (s : (Sym.mono * Rat.t) list)

(* --- affine effect analysis for cycles (single header phi) --- *)

(* The cumulative effect of a region member on the loop-header value:
   value = mult * phi + add, with [mult] a rational constant and [add]
   a classification of everything else feeding in. *)
type effect = { mult : Rat.t; add : Ivclass.t }

exception Not_affine

let invariant_const (c : Ivclass.t) =
  match c with Ivclass.Invariant s -> Sym.const s | _ -> None

let effect_analysis ctx scc_set header_phi =
  let memo : effect Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let in_progress : unit Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let cfg = Ir.Ssa.cfg ctx.ssa in
  let rec of_value (v : Ir.Instr.value) : effect =
    match v with
    | Ir.Instr.Def d when Ir.Instr.Id.Set.mem d scc_set -> of_node d
    | Ir.Instr.Def d when (not (Ssa_graph.mem ctx.graph d)) && in_loop ctx d -> (
      (* Inner-loop def: expand its exit value; the exit value may feed
         back into this SCC through atoms that are SCC members. *)
      match ctx.inner_exit d with
      | Some sym -> of_sym sym
      | None -> raise Not_affine)
    | v -> (
      match class_of_value ctx v with
      | Ivclass.Unknown -> raise Not_affine
      | c -> { mult = Rat.zero; add = c })
  and of_sym (s : Sym.t) : effect =
    List.fold_left
      (fun acc (mono, coeff) ->
        let term =
          match mono with
          | [] -> { mult = Rat.zero; add = Ivclass.Invariant (Sym.of_rat coeff) }
          | [ (Sym.Def d, 1) ] when Ir.Instr.Id.Set.mem d scc_set ->
            let e = of_node d in
            {
              mult = Rat.mul coeff e.mult;
              add = Algebra.scale coeff e.add;
            }
          | mono ->
            (* No SCC member may appear in a non-linear position. *)
            if
              List.exists
                (fun (a, _) ->
                  match a with
                  | Sym.Def d -> Ir.Instr.Id.Set.mem d scc_set
                  | Sym.Param _ -> false)
                mono
            then raise Not_affine
            else begin
              match class_of_sym ctx [ (mono, coeff) ] with
              | Ivclass.Unknown -> raise Not_affine
              | c -> { mult = Rat.zero; add = c }
            end
        in
        { mult = Rat.add acc.mult term.mult; add = Algebra.add acc.add term.add })
      { mult = Rat.zero; add = Ivclass.Invariant Sym.zero }
      (s : (Sym.mono * Rat.t) list)
  and of_node d : effect =
    if Ir.Instr.Id.equal d header_phi then { mult = Rat.one; add = Ivclass.Invariant Sym.zero }
    else begin
      match Ir.Instr.Id.Table.find_opt memo d with
      | Some e -> e
      | None ->
        if Ir.Instr.Id.Table.mem in_progress d then raise Not_affine;
        Ir.Instr.Id.Table.replace in_progress d ();
        let instr = Ir.Cfg.find_instr cfg d in
        let e = of_instr instr in
        Ir.Instr.Id.Table.remove in_progress d;
        Ir.Instr.Id.Table.replace memo d e;
        e
    end
  and of_instr (instr : Ir.Instr.t) : effect =
    let arg i = of_value instr.Ir.Instr.args.(i) in
    match instr.Ir.Instr.op with
    | Ir.Instr.Binop Ir.Ops.Add ->
      let a = arg 0 and b = arg 1 in
      check { mult = Rat.add a.mult b.mult; add = Algebra.add a.add b.add }
    | Ir.Instr.Binop Ir.Ops.Sub ->
      let a = arg 0 and b = arg 1 in
      check { mult = Rat.sub a.mult b.mult; add = Algebra.sub a.add b.add }
    | Ir.Instr.Neg ->
      let a = arg 0 in
      check { mult = Rat.neg a.mult; add = Algebra.neg a.add }
    | Ir.Instr.Binop Ir.Ops.Mul -> (
      let a = arg 0 and b = arg 1 in
      match (Rat.is_zero a.mult, Rat.is_zero b.mult) with
      | true, true -> check { mult = Rat.zero; add = Algebra.mul a.add b.add }
      | true, false -> mul_const a b
      | false, true -> mul_const b a
      | false, false -> raise Not_affine)
    | Ir.Instr.Binop (Ir.Ops.Div | Ir.Ops.Exp) | Ir.Instr.Relop _ | Ir.Instr.Aload _
    | Ir.Instr.Rand ->
      raise Not_affine
    | Ir.Instr.Astore _ ->
      of_value instr.Ir.Instr.args.(Array.length instr.Ir.Instr.args - 1)
    | Ir.Instr.Phi ->
      (* A non-header phi inside the cycle (endif merge): every incoming
         path must carry the same effect (Fig 3's same-offset rule). *)
      let effects = Array.to_list (Array.map of_value instr.Ir.Instr.args) in
      (match effects with
       | [] -> raise Not_affine
       | first :: rest ->
         if
           List.for_all
             (fun e -> Rat.equal e.mult first.mult && Ivclass.equal e.add first.add)
             rest
         then first
         else raise Not_affine)
    | Ir.Instr.Load _ | Ir.Instr.Store _ ->
      invalid_arg "Classify: program not in SSA form"
  and mul_const const_side phi_side =
    (* (0*phi + a) * (m*phi + b) = (c*m)*phi + a*b, requiring a to be a
       rational constant (the paper's "known integer" multiplier). *)
    match invariant_const const_side.add with
    | Some c ->
      check
        {
          mult = Rat.mul c phi_side.mult;
          add = Algebra.mul const_side.add phi_side.add;
        }
    | None -> raise Not_affine
  and check e = if e.add = Ivclass.Unknown then raise Not_affine else e in
  (of_node, of_value)

(* --- monotonic analysis (§4.4) --- *)

(* Intervals with optional bounds; [None] is the corresponding infinity. *)
type interval = { lo : Rat.t option; hi : Rat.t option }

exception Not_monotonic

let ival_const c = { lo = Some c; hi = Some c }
let ival_add a b =
  let f x y = match (x, y) with Some x, Some y -> Some (Rat.add x y) | _ -> None in
  { lo = f a.lo b.lo; hi = f a.hi b.hi }

let ival_neg a =
  { lo = Option.map Rat.neg a.hi; hi = Option.map Rat.neg a.lo }

let ival_hull a b =
  let mn x y =
    match (x, y) with Some x, Some y -> Some (Rat.min x y) | _ -> None
  in
  let mx x y =
    match (x, y) with Some x, Some y -> Some (Rat.max x y) | _ -> None
  in
  { lo = mn a.lo b.lo; hi = mx a.hi b.hi }

(* Value range of a classification over h >= 0, for constant shapes. *)
let interval_of_class (c : Ivclass.t) : interval =
  match c with
  | Ivclass.Invariant s -> (
    match Sym.const s with Some c -> ival_const c | None -> raise Not_monotonic)
  | Ivclass.Linear { base = Ivclass.Invariant b; step; _ } -> (
    match (Sym.const b, Sym.const step) with
    | Some b, Some s ->
      if Rat.sign s >= 0 then { lo = Some b; hi = None }
      else { lo = None; hi = Some b }
    | _ -> raise Not_monotonic)
  | Ivclass.Periodic { values; _ } -> (
    let cs =
      Array.to_list values
      |> List.map (fun v ->
             match Sym.const v with Some c -> c | None -> raise Not_monotonic)
    in
    match cs with
    | [] -> raise Not_monotonic
    | first :: _ ->
      {
        lo = Some (List.fold_left Rat.min first cs);
        hi = Some (List.fold_left Rat.max first cs);
      })
  | _ -> raise Not_monotonic

(* [bypassed ctx scc_set header_phi back_args d]: in an iteration that
   executes region member [d], some back-edge value may be computed from
   the header phi without passing through [d]. The header phi's next
   value then bounds nothing about [d]'s next value: [d] can fall back
   even though the region grows. A phi argument is followed only when its
   incoming edge can share an iteration with [d]'s block. *)
let bypassed ctx scc_set header_phi back_args =
  let cfg = Ir.Ssa.cfg ctx.ssa in
  (* Blocks control can reach from a block within one iteration. *)
  let forward : (Ir.Label.t, Ir.Label.Set.t) Hashtbl.t = Hashtbl.create 16 in
  let forward_from b =
    match Hashtbl.find_opt forward b with
    | Some set -> set
    | None ->
      let rec go set l =
        if Ir.Label.Set.mem l set then set
        else
          List.fold_left
            (fun set s ->
              if s <> ctx.loop.Ir.Loops.header && Ir.Label.Set.mem s ctx.loop.Ir.Loops.blocks
              then go set s
              else set)
            (Ir.Label.Set.add l set) (Ir.Cfg.successors cfg l)
      in
      let set = go Ir.Label.Set.empty b in
      Hashtbl.replace forward b set;
      set
  in
  fun d ->
    let block_d = Ir.Cfg.block_of_instr cfg d in
    let with_d pred join =
      Ir.Label.Set.mem pred (forward_from block_d)
      || Ir.Label.Set.mem block_d (forward_from join)
    in
    let visited = Ir.Instr.Id.Table.create 16 in
    let rec reaches (v : Ir.Instr.value) =
      match v with
      | Ir.Instr.Def x
        when Ir.Instr.Id.Set.mem x scc_set && not (Ir.Instr.Id.equal x d) ->
        Ir.Instr.Id.equal x header_phi
        || (not (Ir.Instr.Id.Table.mem visited x))
           && begin
             Ir.Instr.Id.Table.replace visited x ();
             let instr = Ir.Cfg.find_instr cfg x in
             match instr.Ir.Instr.op with
             | Ir.Instr.Phi ->
               let join = Ir.Cfg.block_of_instr cfg x in
               List.exists2
                 (fun pred arg -> with_d pred join && reaches arg)
                 (Ir.Ssa.preds ctx.ssa join)
                 (Array.to_list instr.Ir.Instr.args)
             | _ -> Array.exists reaches instr.Ir.Instr.args
           end
      | _ -> false
    in
    List.exists reaches back_args

let monotonic_analysis ctx scc header_phi =
  let scc_set =
    List.fold_left
      (fun acc (i : Ir.Instr.t) -> Ir.Instr.Id.Set.add i.Ir.Instr.id acc)
      Ir.Instr.Id.Set.empty scc
  in
  let cfg = Ir.Ssa.cfg ctx.ssa in
  let offsets : interval Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let in_progress : unit Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  (* Offset of each member from the header phi, as an interval over all
     in-iteration paths. *)
  let rec offset_of_value (v : Ir.Instr.value) : interval =
    match v with
    | Ir.Instr.Def d when Ir.Instr.Id.Set.mem d scc_set -> offset_of d
    | Ir.Instr.Def _ | Ir.Instr.Const _ | Ir.Instr.Param _ -> raise Not_monotonic
  and class_interval (v : Ir.Instr.value) : interval =
    match v with
    | Ir.Instr.Def d when Ir.Instr.Id.Set.mem d scc_set -> raise Not_monotonic
    | v -> interval_of_class (class_of_value ctx v)
  and offset_of d : interval =
    if Ir.Instr.Id.equal d header_phi then ival_const Rat.zero
    else begin
      match Ir.Instr.Id.Table.find_opt offsets d with
      | Some i -> i
      | None ->
        if Ir.Instr.Id.Table.mem in_progress d then raise Not_monotonic;
        Ir.Instr.Id.Table.replace in_progress d ();
        let instr = Ir.Cfg.find_instr cfg d in
        let i = offset_of_instr instr in
        Ir.Instr.Id.Table.remove in_progress d;
        Ir.Instr.Id.Table.replace offsets d i;
        i
    end
  and offset_of_instr (instr : Ir.Instr.t) : interval =
    let args = instr.Ir.Instr.args in
    let in_scc (v : Ir.Instr.value) =
      match v with
      | Ir.Instr.Def d -> Ir.Instr.Id.Set.mem d scc_set
      | _ -> false
    in
    match instr.Ir.Instr.op with
    | Ir.Instr.Binop Ir.Ops.Add -> (
      match (in_scc args.(0), in_scc args.(1)) with
      | true, false -> ival_add (offset_of_value args.(0)) (class_interval args.(1))
      | false, true -> ival_add (class_interval args.(0)) (offset_of_value args.(1))
      | _ -> raise Not_monotonic)
    | Ir.Instr.Binop Ir.Ops.Sub ->
      if in_scc args.(0) && not (in_scc args.(1)) then
        ival_add (offset_of_value args.(0)) (ival_neg (class_interval args.(1)))
      else raise Not_monotonic
    | Ir.Instr.Phi ->
      Array.to_list args
      |> List.map offset_of_value
      |> List.fold_left
           (fun acc i -> match acc with None -> Some i | Some a -> Some (ival_hull a i))
           None
      |> (function Some i -> i | None -> raise Not_monotonic)
    | Ir.Instr.Astore _ -> offset_of_value args.(Array.length args - 1)
    | _ -> raise Not_monotonic
  in
  (* delta: the extra increment accumulated from a member to the back
     edge, minimized (for increasing) or maximized (for decreasing). *)
  let users : Ir.Instr.t list Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  List.iter
    (fun (u : Ir.Instr.t) ->
      if not (Ir.Instr.Id.equal u.Ir.Instr.id header_phi) then
        Array.iter
          (fun (v : Ir.Instr.value) ->
            match v with
            | Ir.Instr.Def d when Ir.Instr.Id.Set.mem d scc_set ->
              let cur = Option.value ~default:[] (Ir.Instr.Id.Table.find_opt users d) in
              Ir.Instr.Id.Table.replace users d (u :: cur)
            | _ -> ())
          u.Ir.Instr.args)
    scc;
  (* Which members feed the header phi's back edges directly? *)
  let _, back_args = split_phi_args ctx (Ir.Cfg.find_instr cfg header_phi) in
  let is_back_arg d =
    List.exists
      (fun (v : Ir.Instr.value) ->
        match v with Ir.Instr.Def b -> Ir.Instr.Id.equal b d | _ -> false)
      back_args
  in
  let delta_memo : interval Ir.Instr.Id.Table.t = Ir.Instr.Id.Table.create 16 in
  let rec delta_of d : interval =
    match Ir.Instr.Id.Table.find_opt delta_memo d with
    | Some i -> i
    | None ->
      Ir.Instr.Id.Table.replace delta_memo d { lo = None; hi = None };
      let base = if is_back_arg d then Some (ival_const Rat.zero) else None in
      let through_users =
        Option.value ~default:[] (Ir.Instr.Id.Table.find_opt users d)
        |> List.filter_map (fun (u : Ir.Instr.t) ->
               let du = delta_of u.Ir.Instr.id in
               match u.Ir.Instr.op with
               | Ir.Instr.Binop Ir.Ops.Add ->
                 (* The other operand's class interval adds on the way. *)
                 let other =
                   if
                     match u.Ir.Instr.args.(0) with
                     | Ir.Instr.Def x -> Ir.Instr.Id.equal x d
                     | _ -> false
                   then u.Ir.Instr.args.(1)
                   else u.Ir.Instr.args.(0)
                 in
                 Some (ival_add du (class_interval other))
               | Ir.Instr.Binop Ir.Ops.Sub ->
                 Some (ival_add du (ival_neg (class_interval u.Ir.Instr.args.(1))))
               | Ir.Instr.Phi | Ir.Instr.Astore _ -> Some du
               | _ -> None)
      in
      let all = match base with Some b -> b :: through_users | None -> through_users in
      let result =
        match all with
        | [] -> { lo = None; hi = None }
        | first :: rest -> List.fold_left ival_hull first rest
      in
      Ir.Instr.Id.Table.replace delta_memo d result;
      result
  in
  (* Direction from the hull of back-edge offsets. *)
  let back_offsets = List.map offset_of_value back_args in
  let hull =
    match back_offsets with
    | [] -> raise Not_monotonic
    | first :: rest -> List.fold_left ival_hull first rest
  in
  let dir =
    match (hull.lo, hull.hi) with
    | Some lo, _ when Rat.sign lo >= 0 -> Ivclass.Increasing
    | _, Some hi when Rat.sign hi <= 0 -> Ivclass.Decreasing
    | _ -> raise Not_monotonic
  in
  let bypasses = bypassed ctx scc_set header_phi back_args in
  (* A member's least move between two of its executions in one
     activation, in the direction of the region (values negated when
     decreasing): its offset's spread plus the header phi's step, or,
     when every back-edge value passes through it, its offset plus its
     increment to the back edge. The member is monotonic when the better
     bound is >= 0, strictly when > 0. *)
  let flip = match dir with Ivclass.Increasing -> Fun.id | Ivclass.Decreasing -> ival_neg in
  let add x y = match (x, y) with Some x, Some y -> Some (Rat.add x y) | _ -> None in
  List.iter
    (fun (m : Ir.Instr.t) ->
      let d = m.Ir.Instr.id in
      let off = flip (offset_of d) in
      let spread = add (add off.lo (Option.map Rat.neg off.hi)) (flip hull).lo in
      let through = if bypasses d then None else add off.lo (flip (delta_of d)).lo in
      let move =
        match (spread, through) with
        | Some a, Some b -> Some (Rat.max a b)
        | Some a, None | None, Some a -> Some a
        | None, None -> None
      in
      Ir.Instr.Id.Table.replace ctx.table d
        (match move with
         | Some b when Rat.sign b >= 0 ->
           Ivclass.Monotonic
             { loop = loop_id ctx; dir; strict = Rat.sign b > 0; family = header_phi }
         | _ -> Ivclass.Unknown))
    scc

(* Monotonic regions with multiplication (§4.4: "Multiply operations can
   also be allowed, such as 2*i+i, as long as the initial value of i is
   known"): when the header's initial value is a known non-negative
   constant and every operation maps non-negative values upward (adding a
   provably non-negative amount, or multiplying by a constant >= 1), the
   whole region is monotonically increasing; strictly when every path
   adds a positive amount or multiplies a positive value by >= 2. *)
let monotonic_mul_analysis ctx scc header_phi =
  let cfg = Ir.Ssa.cfg ctx.ssa in
  let scc_set =
    List.fold_left
      (fun acc (i : Ir.Instr.t) -> Ir.Instr.Id.Set.add i.Ir.Instr.id acc)
      Ir.Instr.Id.Set.empty scc
  in
  let entry, back_args = split_phi_args ctx (Ir.Cfg.find_instr cfg header_phi) in
  (* Initial value: a known constant >= 0 (> 0 enables strictness under
     multiplication). *)
  let init_positive =
    List.fold_left
      (fun acc v ->
        match (acc, class_of_value ctx v) with
        | Some so_far, Ivclass.Invariant s -> (
          match Sym.const s with
          | Some c when Rat.sign c > 0 -> Some so_far
          | Some c when Rat.sign c = 0 -> Some false
          | _ -> None)
        | _ -> None)
      (Some true) entry
  in
  (* Every loop-carried value must be a checked member of the region —
     a phi fed through e.g. an inner loop's exit value is not. *)
  List.iter
    (fun (v : Ir.Instr.value) ->
      match v with
      | Ir.Instr.Def d when Ir.Instr.Id.Set.mem d scc_set -> ()
      | _ -> raise Not_monotonic)
    back_args;
  match init_positive with
  | None -> raise Not_monotonic
  | Some init_strictly_positive ->
    (* Each member must keep values moving up from a non-negative
       start. [grows d] is true when the member's operation strictly
       increases positive inputs on every path. *)
    let in_scc (v : Ir.Instr.value) =
      match v with
      | Ir.Instr.Def d -> Ir.Instr.Id.Set.mem d scc_set
      | _ -> false
    in
    (* Constant lower bound of a non-SCC operand. *)
    let const_lo (v : Ir.Instr.value) =
      match class_of_value ctx v with
      | Ivclass.Invariant s -> (
        match Sym.const s with Some c -> Some c | None -> None)
      | Ivclass.Linear { base = Ivclass.Invariant b; step; _ } -> (
        match (Sym.const b, Sym.const step) with
        | Some b, Some s when Rat.sign s >= 0 -> Some b
        | _ -> None)
      | _ -> None
    in
    let strict_update = ref true in
    List.iter
      (fun (m : Ir.Instr.t) ->
        if Ir.Instr.Id.equal m.Ir.Instr.id header_phi then ()
        else begin
          match m.Ir.Instr.op with
          | Ir.Instr.Phi ->
            if not (Array.for_all in_scc m.Ir.Instr.args) then raise Not_monotonic
          | Ir.Instr.Binop Ir.Ops.Add -> (
            match
              ( in_scc m.Ir.Instr.args.(0),
                in_scc m.Ir.Instr.args.(1),
                m.Ir.Instr.args )
            with
            | true, true, _ ->
              (* v + v = 2v: >= v for v >= 0; strict only for v > 0. *)
              if not init_strictly_positive then strict_update := false
            | true, false, args -> (
              match const_lo args.(1) with
              | Some c when Rat.sign c > 0 -> ()
              | Some c when Rat.sign c = 0 -> strict_update := false
              | _ -> raise Not_monotonic)
            | false, true, args -> (
              match const_lo args.(0) with
              | Some c when Rat.sign c > 0 -> ()
              | Some c when Rat.sign c = 0 -> strict_update := false
              | _ -> raise Not_monotonic)
            | false, false, _ -> raise Not_monotonic)
          | Ir.Instr.Binop Ir.Ops.Mul -> (
            let scc_side, other =
              if in_scc m.Ir.Instr.args.(0) then (true, m.Ir.Instr.args.(1))
              else if in_scc m.Ir.Instr.args.(1) then (true, m.Ir.Instr.args.(0))
              else (false, m.Ir.Instr.args.(0))
            in
            if not scc_side then raise Not_monotonic;
            match const_lo other with
            | Some c when Rat.compare c (Rat.of_int 2) >= 0 ->
              if not init_strictly_positive then strict_update := false
            | Some c when Rat.compare c Rat.one >= 0 -> strict_update := false
            | _ -> raise Not_monotonic)
          | Ir.Instr.Astore _ -> ()
          | _ -> raise Not_monotonic
        end)
      scc;
    (* A value that can flow from the header phi back to the latch through
       pass-through nodes only (endif phis, stores) survives an iteration
       unchanged: the region is then at most non-strict. *)
    let passthrough_reach =
      let reach = Ir.Instr.Id.Table.create 8 in
      Ir.Instr.Id.Table.replace reach header_phi ();
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (m : Ir.Instr.t) ->
            match m.Ir.Instr.op with
            | Ir.Instr.Phi | Ir.Instr.Astore _ ->
              if
                (not (Ir.Instr.Id.Table.mem reach m.Ir.Instr.id))
                && Array.exists
                     (fun (v : Ir.Instr.value) ->
                       match v with
                       | Ir.Instr.Def d -> Ir.Instr.Id.Table.mem reach d
                       | _ -> false)
                     m.Ir.Instr.args
              then begin
                Ir.Instr.Id.Table.replace reach m.Ir.Instr.id ();
                changed := true
              end
            | _ -> ())
          scc
      done;
      reach
    in
    List.iter
      (fun (v : Ir.Instr.value) ->
        match v with
        | Ir.Instr.Def d when Ir.Instr.Id.Table.mem passthrough_reach d ->
          strict_update := false
        | _ -> ())
      back_args;
    (* Every member is at least the header phi's value; it is at most the
       next one only when the back edge is computed through it. *)
    let bypasses = bypassed ctx scc_set header_phi back_args in
    List.iter
      (fun (m : Ir.Instr.t) ->
        Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id
          (if bypasses m.Ir.Instr.id then Ivclass.Unknown
           else
             Ivclass.Monotonic
               {
                 loop = loop_id ctx;
                 dir = Ivclass.Increasing;
                 strict = !strict_update;
                 family = header_phi;
               }))
      scc

(* --- cycle classification --- *)

(* The invariant initial value flowing into a header phi from outside. *)
let init_sym ctx (phi : Ir.Instr.t) : Sym.t option =
  let entry, _ = split_phi_args ctx phi in
  let syms =
    List.map
      (fun v ->
        match class_of_value ctx v with
        | Ivclass.Invariant s -> Some s
        | _ -> None)
      entry
  in
  match syms with
  | [] -> None
  | first :: rest ->
    if List.for_all (fun s -> Option.is_some s && Option.is_some first
                              && Sym.equal (Option.get s) (Option.get first)) rest
    then first
    else None

let classify_periodic ctx scc =
  (* All members are loop-header phis; follow the carried edges to build
     the rotation (§4.2). *)
  let period = List.length scc in
  let member_ids =
    List.fold_left
      (fun acc (i : Ir.Instr.t) -> Ir.Instr.Id.Set.add i.Ir.Instr.id acc)
      Ir.Instr.Id.Set.empty scc
  in
  let carried_of (phi : Ir.Instr.t) =
    match split_phi_args ctx phi with
    | _, [ Ir.Instr.Def d ] when Ir.Instr.Id.Set.mem d member_ids -> Some d
    | _ -> None
  in
  let entry_of (phi : Ir.Instr.t) =
    match split_phi_args ctx phi with
    | [ v ], _ -> (
      match class_of_value ctx v with Ivclass.Invariant s -> Some s | _ -> None)
    | _ -> None
  in
  let find_instr id = List.find (fun (i : Ir.Instr.t) -> Ir.Instr.Id.equal i.Ir.Instr.id id) scc in
  (* Anchor the rotation at the first phi in program order, so the
     output is deterministic (j2 gets phase 0 in Fig 5). *)
  let scc_sorted =
    List.sort (fun (a : Ir.Instr.t) b -> Ir.Instr.Id.compare a.Ir.Instr.id b.Ir.Instr.id) scc
  in
  match scc_sorted with
  | [] -> ()
  | anchor :: _ ->
    let ok = ref true in
    (* Chain of members starting at the anchor, following carried args. *)
    let chain = Array.make period anchor in
    let cur = ref anchor in
    (try
       for k = 1 to period - 1 do
         match carried_of !cur with
         | Some next ->
           chain.(k) <- find_instr next;
           cur := find_instr next
         | None ->
           ok := false;
           raise Exit
       done;
       (* The chain must close back to the anchor. *)
       (match carried_of !cur with
        | Some d when Ir.Instr.Id.equal d anchor.Ir.Instr.id -> ()
        | _ -> ok := false)
     with Exit -> ());
    let values =
      if !ok then
        Array.map
          (fun (m : Ir.Instr.t) -> entry_of m)
          chain
      else Array.make period None
    in
    if !ok && Array.for_all Option.is_some values then begin
      let values = Array.map Option.get values in
      Array.iteri
        (fun k (m : Ir.Instr.t) ->
          Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id
            (Ivclass.Periodic { loop = loop_id ctx; period; values; phase = k }))
        chain;
      prov ctx scc ~shape:"phi-cycle"
        ~rule:
          (Printf.sprintf
             "cycle of %d loop-header phis, carried edges close a rotation \
              with invariant entries => periodic family, period %d (sec 4.2)"
             period period)
    end
    else begin
      List.iter
        (fun (m : Ir.Instr.t) ->
          Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id Ivclass.Unknown)
        scc;
      prov ctx scc ~shape:"phi-cycle"
        ~rule:
          "cycle of loop-header phis but the carried edges do not close a \
           rotation of invariant values => unknown"
    end

let classify_single_phi_cycle ctx scc (phi : Ir.Instr.t) =
  let scc_set =
    List.fold_left
      (fun acc (i : Ir.Instr.t) -> Ir.Instr.Id.Set.add i.Ir.Instr.id acc)
      Ir.Instr.Id.Set.empty scc
  in
  let shape = "single-phi-cycle" in
  let cycle_len = List.length scc in
  match init_sym ctx phi with
  | None ->
    List.iter
      (fun (m : Ir.Instr.t) -> Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id Ivclass.Unknown)
      scc;
    prov ctx scc ~shape
      ~rule:"initial value flowing into the header phi is not loop-invariant => unknown"
  | Some init -> (
    try
      let of_node, of_value = effect_analysis ctx scc_set phi.Ir.Instr.id in
      let _, back = split_phi_args ctx phi in
      let back_effects = List.map of_value back in
      let effect =
        match back_effects with
        | [] -> raise Not_affine
        | first :: rest ->
          if
            List.for_all
              (fun e -> Rat.equal e.mult first.mult && Ivclass.equal e.add first.add)
              rest
          then first
          else raise Not_affine
      in
      let loop = loop_id ctx in
      let phi_class, rule =
        if Rat.equal effect.mult Rat.one then begin
          match effect.add with
          | Ivclass.Invariant step ->
            (* Basic linear family (§3.1). *)
            ( Ivclass.linear loop (Ivclass.Invariant init) step,
              Printf.sprintf
                "cycle length %d through a single phi, cumulative effect \
                 v' = v + d with d loop-invariant => basic IV family (sec 3.1)"
                cycle_len )
          | Ivclass.Geometric { gcoeffs; ratio; gcoeff; _ } ->
            ( Closed_form.polynomial_plus_geometric ~loop ~init ~add_coeffs:gcoeffs
                ~gratio:ratio ~gcoeff,
              Printf.sprintf
                "cumulative effect v' = v + p(h) + c*%s^h => polynomial plus \
                 geometric closed form (sec 4.3)"
                (Rat.to_string ratio) )
          | add -> (
            match Algebra.poly_view add with
            | Some (_, coeffs) ->
              ( Closed_form.polynomial ~loop ~init ~add_coeffs:coeffs,
                Printf.sprintf
                  "cumulative effect v' = v + p(h) with deg p = %d, matrix \
                   inverted (rank %d) => polynomial degree %d (sec 4.3)"
                  (Array.length coeffs - 1)
                  (Array.length coeffs + 1)
                  (Array.length coeffs) )
            | None -> (Ivclass.Unknown, ""))
        end
        else if Rat.equal effect.mult Rat.minus_one then begin
          match effect.add with
          | Ivclass.Invariant s ->
            (* Flip-flop: v' = s - v is periodic with period 2 (§4.2/§4.3). *)
            ( Ivclass.Periodic
                { loop; period = 2; values = [| init; Sym.sub s init |]; phase = 0 },
              Printf.sprintf
                "cycle length %d, cumulative effect v' = s - v (no \
                 self-update) => flip-flop, periodic with period 2 (sec 4.2)"
                cycle_len )
          | _ -> (Ivclass.Unknown, "")
        end
        else if Rat.is_zero effect.mult then (Ivclass.Unknown, "")
        else begin
          match Algebra.poly_view effect.add with
          | Some (_, coeffs) ->
            ( Closed_form.geometric ~loop ~init ~mult:effect.mult ~add_coeffs:coeffs,
              Printf.sprintf
                "cumulative effect v' = %s*v + p(h) => geometric with ratio \
                 %s (sec 4.3)"
                (Rat.to_string effect.mult) (Rat.to_string effect.mult) )
          | None -> (Ivclass.Unknown, "")
        end
      in
      if phi_class = Ivclass.Unknown then raise Not_affine;
      (* Each member's class follows from its effect on the phi value. *)
      List.iter
        (fun (m : Ir.Instr.t) ->
          let e = of_node m.Ir.Instr.id in
          let c = Algebra.add (Algebra.scale e.mult phi_class) e.add in
          Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id c)
        scc;
      prov ctx scc ~shape ~rule
    with Not_affine -> (
      try
        monotonic_analysis ctx scc phi.Ir.Instr.id;
        prov ctx scc ~shape
          ~rule:
            "not affine in the phi, but every back-edge path accumulates a \
             consistently signed increment => monotonic family (sec 4.4)"
      with Not_monotonic -> (
        try
          monotonic_mul_analysis ctx scc phi.Ir.Instr.id;
          prov ctx scc ~shape
            ~rule:
              "not affine, but the initial value is a known non-negative \
               constant and every operation (add >= 0, multiply by >= 1) \
               moves non-negative values upward => monotonic increasing \
               (sec 4.4, multiply extension)"
        with Not_monotonic ->
          List.iter
            (fun (m : Ir.Instr.t) ->
              Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id Ivclass.Unknown)
            scc;
          prov ctx scc ~shape
            ~rule:
              "no shape matched (not affine in the phi, increments not \
               consistently signed) => unknown")))

(* --- trivial regions: the operator algebra (§5.1) --- *)

let opaque_invariant id = Ivclass.Invariant (Sym.def id)

let classify_exp ctx id a b =
  let ca = class_of_value ctx a and cb = class_of_value ctx b in
  match (ca, cb) with
  | Ivclass.Invariant _, Ivclass.Invariant _ -> opaque_invariant id
  | Ivclass.Invariant base, exp -> (
    (* c ^ (b0 + b1*h) = c^b0 * (c^b1)^h: geometric (an extension the
       paper's framework admits directly). Only for an exponent that
       never goes negative (a negative exponent gives 0), and, unless
       |c| = 1, whose powers stay below c^63: a larger one traps. *)
    match (Sym.const base, Algebra.poly_view exp) with
    | Some c, Some (Some loop, [| b0; b1 |]) -> (
      match (Sym.const b0, Sym.const b1) with
      | Some b0c, Some b1c -> (
        match (Rat.to_int_exact b0c, Rat.to_int_exact b1c) with
        | Some e0, Some e1
          when e0 >= 0 && e1 >= 0 && (not (Rat.is_zero c))
               && (Rat.equal (Rat.abs c) Rat.one || (e0 < 63 && e1 < 63)) ->
          let ratio = Rat.pow c e1 in
          if Rat.is_zero ratio || Rat.equal ratio Rat.one then opaque_invariant id
          else
            Ivclass.geometric loop [| Sym.zero |] ratio (Sym.of_rat (Rat.pow c e0))
        | _ -> Ivclass.Unknown)
      | _ -> Ivclass.Unknown)
    | _ -> Ivclass.Unknown)
  | _ -> Ivclass.Unknown

let classify_div ctx id a b =
  let ca = class_of_value ctx a and cb = class_of_value ctx b in
  match (ca, cb) with
  | Ivclass.Invariant _, Ivclass.Invariant _ -> opaque_invariant id
  | _, Ivclass.Invariant s -> (
    match Sym.const s with
    | Some c when not (Rat.is_zero c) -> (
      match Rat.to_bigint_exact c with
      | Some n -> Algebra.div_const ca n
      | None -> Ivclass.Unknown)
    | _ -> Ivclass.Unknown)
  | _ -> Ivclass.Unknown

(* Equal classes of the values [vs] mean equal values, except for a
   monotonic class: it bounds a value's direction, not its offset, so
   only a single value agrees with itself. *)
let exact_agreement (c : Ivclass.t) (vs : Ir.Instr.value list) =
  match (c, vs) with
  | Ivclass.Monotonic _, v :: rest -> List.for_all (( = ) v) rest
  | _ -> true

let classify_wraparound ctx (phi : Ir.Instr.t) =
  (* A loop-header phi alone in its region (§4.1): the carried value's
     class, delayed by one iteration. If the initial value happens to fit
     the carried sequence shifted back one step, promote to the plain
     class (paper: jl = 0 makes j2 the IV (L10, 0, 1)).

     Returns the class and the provenance rule that produced it. *)
  match (init_sym ctx phi, split_phi_args ctx phi) with
  | Some init, (_, back) -> (
    let carried_classes = List.map (class_of_value ctx) back in
    match carried_classes with
    | [] -> (Ivclass.Unknown, "header phi with no carried value")
    | first :: rest ->
      if not (List.for_all (Ivclass.equal first) rest) then
        (Ivclass.Unknown, "header phi alone in region, carried classes disagree")
      else if not (exact_agreement first back) then
        ( Ivclass.Unknown,
          "header phi alone in region, carried values distinct monotonic values" )
      else if first = Ivclass.Unknown then
        (Ivclass.Unknown, "header phi alone in region, carried value unclassified")
      else begin
        match Algebra.shift first (-1) with
        | Some shifted when
            (match Algebra.sym_at shifted 0 with
             | Some v0 -> Sym.equal v0 init
             | None -> false) ->
          ( shifted,
            "header phi alone in region, initial value fits the carried \
             sequence shifted back one step => promoted to the underlying \
             class (sec 4.1)" )
        | Some _ | None ->
          ( Ivclass.wrap (loop_id ctx) first init,
            "header phi alone in its region, carried value classified => \
             wrap-around of the carried class, delayed one iteration (sec 4.1)"
          )
      end)
  | None, _ -> (Ivclass.Unknown, "header phi with non-invariant initial value")

let classify_trivial ctx (instr : Ir.Instr.t) =
  let id = instr.Ir.Instr.id in
  let arg i = class_of_value ctx instr.Ir.Instr.args.(i) in
  let algebra op = Printf.sprintf "operator algebra on %s of classified operands (sec 5.1)" op in
  let result, rule =
    match instr.Ir.Instr.op with
    | Ir.Instr.Binop Ir.Ops.Add -> (Algebra.add (arg 0) (arg 1), algebra "add")
    | Ir.Instr.Binop Ir.Ops.Sub -> (Algebra.sub (arg 0) (arg 1), algebra "sub")
    | Ir.Instr.Binop Ir.Ops.Mul -> (Algebra.mul (arg 0) (arg 1), algebra "mul")
    | Ir.Instr.Binop Ir.Ops.Div ->
      ( classify_div ctx id instr.Ir.Instr.args.(0) instr.Ir.Instr.args.(1),
        algebra "div (invariant divisor)" )
    | Ir.Instr.Binop Ir.Ops.Exp ->
      ( classify_exp ctx id instr.Ir.Instr.args.(0) instr.Ir.Instr.args.(1),
        algebra "exp (invariant base ^ linear exponent => geometric)" )
    | Ir.Instr.Neg -> (Algebra.neg (arg 0), algebra "neg")
    | Ir.Instr.Relop _ -> (Ivclass.Unknown, "relational result is not an integer sequence")
    | Ir.Instr.Rand -> (Ivclass.Unknown, "random value: unknowable")
    | Ir.Instr.Aload _ -> (Ivclass.Unknown, "array load: value not tracked")
    | Ir.Instr.Astore _ ->
      (arg (Array.length instr.Ir.Instr.args - 1), "store passes its value through")
    | Ir.Instr.Phi ->
      if Ssa_graph.is_header_phi ctx.graph instr then classify_wraparound ctx instr
      else begin
        (* An if-join outside any cycle: all inputs agree or unknown. *)
        let args = Array.to_list (Array.map (class_of_value ctx) instr.Ir.Instr.args) in
        match args with
        | [] -> (Ivclass.Unknown, "empty phi")
        | first :: rest ->
          if not (List.for_all (Ivclass.equal first) rest) then
            (Ivclass.Unknown, "if-join with disagreeing inputs")
          else if not (exact_agreement first (Array.to_list instr.Ir.Instr.args)) then
            ( Ivclass.Unknown,
              "if-join of distinct monotonic values: equal classes, unequal \
               offsets" )
          else (first, "if-join outside any cycle, all inputs agree (sec 5.1)")
      end
    | Ir.Instr.Load _ | Ir.Instr.Store _ ->
      invalid_arg "Classify: program not in SSA form"
  in
  Ir.Instr.Id.Table.replace ctx.table id result;
  let shape =
    match instr.Ir.Instr.op with
    | Ir.Instr.Phi when Ssa_graph.is_header_phi ctx.graph instr -> "lone-header-phi"
    | _ -> "singleton"
  in
  prov ctx [ instr ] ~shape ~rule

(* --- entry point --- *)

let classify_scc ctx (scc : Ir.Instr.t list) =
  let graph_edges (i : Ir.Instr.t) =
    Ssa_graph.successors ctx.graph i.Ir.Instr.id
  in
  let trivial =
    match scc with
    | [ i ] -> not (List.exists (Ir.Instr.Id.equal i.Ir.Instr.id) (graph_edges i))
    | _ -> false
  in
  if trivial then classify_trivial ctx (List.hd scc)
  else begin
    let header_phis = List.filter (Ssa_graph.is_header_phi ctx.graph) scc in
    let all_header_phis = List.length header_phis = List.length scc in
    match header_phis with
    | [] ->
      List.iter
        (fun (m : Ir.Instr.t) -> Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id Ivclass.Unknown)
        scc;
      prov ctx scc ~shape:"cycle"
        ~rule:"cycle contains no loop-header phi => unknown"
    | [ phi ] -> classify_single_phi_cycle ctx scc phi
    | _ ->
      if all_header_phis then classify_periodic ctx scc
      else begin
        List.iter
          (fun (m : Ir.Instr.t) -> Ir.Instr.Id.Table.replace ctx.table m.Ir.Instr.id Ivclass.Unknown)
          scc;
        prov ctx scc ~shape:"cycle"
          ~rule:
            "cycle mixes several loop-header phis with other operations => \
             unknown"
      end
  end

let classify_scc ctx (scc : Ir.Instr.t list) =
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"classify"
      ~attrs:[ ("scr_size", Obs.Trace.Int (List.length scc)) ]
      "classify.scr"
      (fun () -> classify_scc ctx scc)
  else classify_scc ctx scc

(* [classify_loop ssa loop] classifies every instruction of [loop]'s
   direct body. [outer_const] supplies known values for defs outside the
   loop (e.g. from constant propagation); [inner_exit] supplies exit
   values of already-processed inner loops. *)
let classify_loop ?(outer_const = fun _ -> None) ?(inner_exit = fun _ -> None)
    (ssa : Ir.Ssa.t) (loop : Ir.Loops.loop) =
  let graph = Ssa_graph.build ~expand:inner_exit ssa loop in
  let ctx =
    {
      ssa;
      loop;
      graph;
      table = Ir.Instr.Id.Table.create 64;
      outer_const;
      inner_exit;
    }
  in
  let g =
    {
      Tarjan.vertices = Ssa_graph.nodes graph;
      edges =
        (fun (i : Ir.Instr.t) ->
          Ssa_graph.successors graph i.Ir.Instr.id
          |> List.map (fun d ->
                 match Ir.Cfg.find_instr_opt (Ir.Ssa.cfg ssa) d with
                 | Some instr -> instr
                 | None -> invalid_arg "Classify: dangling SSA edge"));
      key = (fun (i : Ir.Instr.t) -> i.Ir.Instr.id);
    }
  in
  let sccs =
    Obs.Trace.with_span ~cat:"classify"
      ~attrs:[ ("loop", Obs.Trace.Str loop.Ir.Loops.name) ]
      "classify.tarjan"
      (fun () -> Tarjan.sccs g)
  in
  List.iter (classify_scc ctx) sccs;
  (ctx.table, graph)
