(* Value-range analysis: one interval per SSA def.

   An optimistic forward fixpoint over the SSA graph, with three seed
   sources folded in:

   - SCCP constants become exact singletons (and are never recomputed);
   - IV classifications become closed-form clamps: a class predicts the
     value at iteration [h], and the trip count bounds [h], so e.g. a
     linear IV with constant base and step gets base + step·[0, U];
   - plain interval arithmetic propagates through straight-line code and
     phi joins, with standard widening at loop-header phis once the
     iteration count passes [widen_start].

   Clamping during the iteration (a meet with a constant, independently
   sound interval) is monotone, so the fixpoint is still a sound
   post-fixpoint of the concrete semantics.

   Every def carries a [full] interval covering all its executions —
   including a for-loop header phi's final exit-test value (h = U). Uses
   strictly *below* the counted exit test only observe h <= U - 1; the
   [body] table holds that sharper interval, valid at blocks of the loop
   dominated by the exit block (any path from the header passes the exit
   test, so the current activation decided to stay). Bounds-check
   elimination and subscript disjointness query use sites and take the
   refinement; the oracle checks defs and uses [full]. *)

module Table = Ir.Instr.Id.Table

type t = {
  ssa : Ir.Ssa.t;
  full : Interval.t option array;  (** indexed by def id *)
  body : (int * Ir.Label.t * Interval.t) Table.t;
      (** def -> (loop, counted exit block, below-the-test interval) *)
  iterations : int;  (** fixpoint rounds used *)
}

let widen_start = 3

(* --- classification closed forms as intervals --- *)

let sym_const_interval s =
  match Sym.const s with
  | Some r -> Option.map Interval.const (Bignum.Rat.to_int_exact r)
  | None -> None

(* The iteration-number interval of loop [l]: [0, U] where U is the trip
   count (the header runs once more than the body, observing the
   exit-test value), or [0, U-1] for the loop named by [sub1_loop]
   (below-the-exit-test refinement). Unknown counts give [0, +inf). *)
let h_range ~trip_of ~sub1_loop l =
  let u =
    match trip_of l with Some tr -> Trip_count.max_count_int tr | None -> None
  in
  let u =
    match u with
    | Some u when sub1_loop = Some l -> Some (u - 1)
    | x -> x
  in
  match u with
  | Some u -> Interval.make (Extint.Fin 0) (Extint.Fin (max u 0))
  | None -> Interval.make (Extint.Fin 0) Extint.Pos_inf

(* [class_interval] turns a classification into an interval over every
   iteration of its loop nest, when the closed form is constant enough:
   constant invariants, linear forms with constant steps over bounded
   (or one-sided) iteration spaces — recursing into outer-loop bases —
   constant periodic tuples, and wrap-arounds with constant initials.
   Polynomial, geometric and monotonic classes fall back to the
   dataflow ([None]). *)
let rec class_interval ~trip_of ~sub1_loop (cls : Ivclass.t) :
    Interval.t option =
  match cls with
  | Ivclass.Unknown -> None
  | Ivclass.Invariant s -> sym_const_interval s
  | Ivclass.Linear { loop; base; step } -> (
    match
      (class_interval ~trip_of ~sub1_loop base, Sym.const step)
    with
    | Some bi, Some step -> (
      match Bignum.Rat.to_int_exact step with
      | Some s ->
        let h = h_range ~trip_of ~sub1_loop loop in
        Some (Interval.add bi (Interval.mul (Interval.const s) h))
      | None -> None)
    | _ -> None)
  | Ivclass.Periodic { values; _ } ->
    Array.fold_left
      (fun acc v ->
        match (acc, sym_const_interval v) with
        | Some acc, Some iv -> Some (Interval.join acc iv)
        | _, _ -> None)
      (sym_const_interval values.(0))
      (Array.sub values 1 (Array.length values - 1))
  | Ivclass.Wrap { inner; initials; _ } ->
    List.fold_left
      (fun acc v ->
        match (acc, sym_const_interval v) with
        | Some acc, Some iv -> Some (Interval.join acc iv)
        | _, _ -> None)
      (class_interval ~trip_of ~sub1_loop inner)
      initials
  | Ivclass.Poly _ | Ivclass.Geometric _ | Ivclass.Monotonic _ -> None

(* --- the fixpoint --- *)

let some_top = Some Interval.top
let some_bool = Some Interval.bool_range

(* SSA ids and block labels are dense, so the per-def and per-block
   state lives in arrays indexed by them. *)
let compute ?(sccp : Sccp.result option)
    ~(class_of : Ir.Instr.Id.t -> Ivclass.t option)
    ~(trip_of : int -> Trip_count.t option) (ssa : Ir.Ssa.t) : t =
  let cfg = Ir.Ssa.cfg ssa in
  let loops = Ir.Ssa.loops ssa in
  let nblocks = Ir.Cfg.num_blocks cfg in
  let executable =
    Array.init nblocks (fun l ->
        match sccp with
        | Some r -> Sccp.block_executable r l
        | None -> true)
  in
  let header = Array.make nblocks false in
  List.iter (fun lp -> header.(lp.Ir.Loops.header) <- true) (Ir.Loops.all loops);
  let size = ref 0 and num_defs = ref 0 in
  Ir.Cfg.iter_instrs cfg (fun _ instr ->
      size := max !size (instr.Ir.Instr.id + 1);
      incr num_defs);
  let size = !size in
  (* Per def: its current interval (exact constants start there and are
     never recomputed) and its closed-form clamp, computed once. *)
  let full = Array.make size None in
  let exact = Array.make size false in
  let seeds = Array.make size None in
  Ir.Cfg.iter_instrs cfg (fun _ instr ->
      let id = instr.Ir.Instr.id in
      (match sccp with
      | Some r -> (
        match Sccp.const_of r id with
        | Some n ->
          exact.(id) <- true;
          full.(id) <- Some (Interval.const n)
        | None -> ())
      | None -> ());
      match class_of id with
      | Some cls -> seeds.(id) <- class_interval ~trip_of ~sub1_loop:None cls
      | None -> ());
  let clamp id iv =
    match seeds.(id) with
    | Some seed -> (
      match Interval.meet iv seed with Some m -> m | None -> iv)
    | None -> iv
  in
  let value_iv = function
    | Ir.Instr.Const n -> Some (Interval.const n)
    | Ir.Instr.Param _ -> some_top
    | Ir.Instr.Def id -> if id < size then full.(id) else None
  in
  (* The interval of an operand already known to be visited. *)
  let known_iv = function
    | Ir.Instr.Const n -> Interval.const n
    | Ir.Instr.Param _ -> Interval.top
    | Ir.Instr.Def id -> Option.get full.(id)
  in
  let visited = function
    | Ir.Instr.Const _ | Ir.Instr.Param _ -> true
    | Ir.Instr.Def id -> id < size && Option.is_some full.(id)
  in
  let transfer label (instr : Ir.Instr.t) : Interval.t option =
    let args = instr.Ir.Instr.args in
    let n = Array.length args in
    match instr.Ir.Instr.op with
    | Ir.Instr.Phi ->
      (* Join the arguments flowing along executable edges; a bottom
         (unvisited) argument contributes nothing yet. *)
      let rec join i ps acc =
        match ps with
        | [] -> acc
        | p :: rest ->
          let acc =
            if executable.(p) && i < n then
              match (value_iv args.(i), acc) with
              | Some iv, Some a -> Some (Interval.join a iv)
              | (Some _ as v), None -> v
              | None, _ -> acc
            else acc
          in
          join (i + 1) rest acc
      in
      join 0 (Ir.Ssa.preds ssa label) None
    | _ when not (Array.for_all visited args) -> (
      match instr.Ir.Instr.op with
      | Ir.Instr.Rand -> some_bool
      | Ir.Instr.Load _ | Ir.Instr.Store _ -> some_top
      | Ir.Instr.Astore _ when n > 0 -> value_iv args.(n - 1)
      | _ -> None)
    | Ir.Instr.Binop op ->
      if n <> 2 then some_top
      else
        let a = known_iv args.(0) and b = known_iv args.(1) in
        Some
          (match op with
          | Ir.Ops.Add -> Interval.add a b
          | Ir.Ops.Sub -> Interval.sub a b
          | Ir.Ops.Mul -> Interval.mul a b
          | Ir.Ops.Div -> Interval.div a b
          | Ir.Ops.Exp -> Interval.top)
    | Ir.Instr.Relop _ | Ir.Instr.Rand -> some_bool
    | Ir.Instr.Neg -> if n = 1 then Some (Interval.neg (known_iv args.(0))) else some_top
    | Ir.Instr.Aload _ | Ir.Instr.Load _ | Ir.Instr.Store _ -> some_top
    | Ir.Instr.Astore _ ->
      (* The instruction's value is the stored operand (last arg). *)
      if n = 0 then some_top else value_iv args.(n - 1)
  in
  let order = List.filter (fun l -> executable.(l)) (Ir.Cfg.reverse_postorder cfg) in
  let cap = widen_start + !num_defs + 8 in
  let rounds = ref 0 in
  let changed = ref true in
  let step label (instr : Ir.Instr.t) =
    let id = instr.Ir.Instr.id in
    if not exact.(id) then
      match transfer label instr with
      | None -> ()
      | Some cand -> (
        let cand = clamp id cand in
        match full.(id) with
        | None ->
          full.(id) <- Some cand;
          changed := true
        | Some old ->
          let next = Interval.join old cand in
          let next =
            if
              instr.Ir.Instr.op = Ir.Instr.Phi
              && header.(label)
              && !rounds > widen_start
              && not (Interval.equal old next)
            then clamp id (Interval.widen ~old ~next)
            else next
          in
          if not (Interval.equal old next) then begin
            full.(id) <- Some next;
            changed := true
          end)
  in
  let rec visit label = function
    | [] -> ()
    | instr :: rest ->
      step label instr;
      visit label rest
  in
  while !changed && !rounds < cap do
    incr rounds;
    changed := false;
    List.iter (fun label -> visit label (Ir.Cfg.block cfg label).Ir.Cfg.instrs) order
  done;
  if !changed then
    (* Safety net (never expected): discard the unconverged dataflow and
       keep only the independently sound seeds. *)
    Ir.Cfg.iter_instrs cfg (fun _ instr ->
        let id = instr.Ir.Instr.id in
        if not exact.(id) then full.(id) <- Some (clamp id Interval.top));
  (* Below-the-exit-test refinements: recompute classified defs with the
     def's own loop capped at U - 1, valid where the counted exit block
     dominates the use. *)
  let body = Table.create 16 in
  Ir.Cfg.iter_instrs cfg (fun _ instr ->
      let id = instr.Ir.Instr.id in
      match class_of id with
      | Some cls -> (
        match Ivclass.loop_of cls with
        | Some l -> (
          match trip_of l with
          | Some tr -> (
            match (tr.Trip_count.exit_block, Trip_count.max_count_int tr) with
            | Some exit_block, Some _ -> (
              match class_interval ~trip_of ~sub1_loop:(Some l) cls with
              | Some seed -> (
                let fl = Option.value ~default:Interval.top full.(id) in
                let iv =
                  match Interval.meet fl seed with Some m -> m | None -> fl
                in
                if not (Interval.equal iv fl) then
                  Table.replace body id (l, exit_block, iv))
              | None -> ())
            | _ -> ())
          | None -> ())
        | None -> ())
      | None -> ());
  { ssa; full; body; iterations = !rounds }

(* --- queries --- *)

let iterations t = t.iterations

let interval_of t id =
  if id >= 0 && id < Array.length t.full then
    Option.value ~default:Interval.top t.full.(id)
  else Interval.top

(* [interval_at t ~block id] refines the def's interval at a use site:
   inside the def's loop and dominated by the counted exit block, the
   current activation has already decided to stay, so h <= U - 1. *)
let interval_at t ~block id =
  match Table.find_opt t.body id with
  | Some (l, exit_block, iv) ->
    let loops = Ir.Ssa.loops t.ssa in
    let dom = Ir.Ssa.dom t.ssa in
    let lp = Ir.Loops.loop loops l in
    if
      Ir.Loops.contains_block lp block
      && (not (Ir.Label.equal block exit_block))
      && Ir.Dom.dominates dom exit_block block
    then iv
    else interval_of t id
  | None -> interval_of t id

let value_interval_at t ~block = function
  | Ir.Instr.Const n -> Interval.const n
  | Ir.Instr.Param _ -> Interval.top
  | Ir.Instr.Def id -> interval_at t ~block id

(* [sym_interval t s] bounds a symbolic polynomial by interval-evaluating
   each monomial over the atoms' full intervals (mathematical semantics:
   symbolic values live in the classifier's exact algebra). Restricted
   to integer coefficients. *)
let sym_interval t (s : Sym.t) : Interval.t option =
  let atom_iv = function
    | Sym.Param _ -> Interval.top
    | Sym.Def id -> interval_of t id
  in
  let rec power iv n =
    if n <= 0 then Interval.const 1
    else if n = 1 then iv
    else Interval.mul iv (power iv (n - 1))
  in
  let term (mono, coeff) =
    match Bignum.Rat.to_int_exact coeff with
    | None -> None
    | Some c ->
      let iv =
        List.fold_left
          (fun acc (a, p) -> Interval.mul acc (power (atom_iv a) p))
          (Interval.const 1) mono
      in
      Some (Interval.mul (Interval.const c) iv)
  in
  List.fold_left
    (fun acc tm ->
      match (acc, term tm) with
      | Some acc, Some iv -> Some (Interval.add acc iv)
      | _, _ -> None)
    (Some (Interval.const 0))
    s

(* --- rendering --- *)

let defs_in_order t =
  let cfg = Ir.Ssa.cfg t.ssa in
  Ir.Cfg.fold_instrs cfg
    (fun acc block instr -> (block, instr) :: acc)
    []
  |> List.sort (fun (_, a) (_, b) ->
         Ir.Instr.Id.compare a.Ir.Instr.id b.Ir.Instr.id)

let report t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "ranges: fixpoint after %d rounds\n" t.iterations;
  List.iter
    (fun (_, (instr : Ir.Instr.t)) ->
      let id = instr.Ir.Instr.id in
      let name = Ir.Ssa.primary_name t.ssa id in
      Printf.bprintf buf "  %-8s %s" name
        (Interval.to_string (interval_of t id));
      (match Table.find_opt t.body id with
      | Some (_, _, iv) ->
        Printf.bprintf buf "  body %s" (Interval.to_string iv)
      | None -> ());
      Buffer.add_char buf '\n')
    (defs_in_order t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "{\"iterations\":%d,\"values\":[" t.iterations;
  let first = ref true in
  List.iter
    (fun (_, (instr : Ir.Instr.t)) ->
      let id = instr.Ir.Instr.id in
      let iv = interval_of t id in
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      Obs.Json.escape_to_buffer buf (Ir.Ssa.primary_name t.ssa id);
      Printf.bprintf buf ",\"lo\":\"%s\",\"hi\":\"%s\""
        (Extint.to_string (Interval.lo iv))
        (Extint.to_string (Interval.hi iv));
      (match Table.find_opt t.body id with
      | Some (_, _, b) ->
        Printf.bprintf buf ",\"body_lo\":\"%s\",\"body_hi\":\"%s\""
          (Extint.to_string (Interval.lo b))
          (Extint.to_string (Interval.hi b))
      | None -> ());
      Buffer.add_char buf '}')
    (defs_in_order t);
  Buffer.add_string buf "]}";
  Buffer.contents buf
