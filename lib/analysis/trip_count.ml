(* Trip counts of countable loops (paper §5.2).

   The loop-exit comparison is normalized to "exit when m <= 0" for a
   margin expression m built from the paper's relop table; m is then
   classified, and if it is a linear induction sequence (L, i, s) the
   trip count (number of times the exit condition chooses to stay) is

        0            if i <= 0
        ceil(i / -s) if i > 0 and s < 0
        infinite     if i > 0 and s >= 0. *)

open Bignum

type count =
  | Finite of Bigint.t
  | Symbolic of Sym.t (* exact count, assuming it is positive *)
  | Infinite
  | Unknown_count

type t = {
  count : count;
  max_count : count; (* an upper bound; equals [count] when exact *)
  exit_block : Ir.Label.t option; (* the single counted exit branch *)
  assumes_positive : bool; (* symbolic count: 0 iterations not ruled out *)
}

let unknown =
  { count = Unknown_count; max_count = Unknown_count; exit_block = None;
    assumes_positive = false }

(* [rename ~sym ~label t] relabels a trip count for another numbering
   of the same program. *)
let rename ~sym ~label t =
  let count = function Symbolic s -> Symbolic (sym s) | c -> c in
  {
    t with
    count = count t.count;
    max_count = count t.max_count;
    exit_block = Option.map label t.exit_block;
  }

let pp_count fmt = function
  | Finite n -> Bigint.pp fmt n
  | Symbolic s -> Sym.pp fmt s
  | Infinite -> Format.pp_print_string fmt "infinite"
  | Unknown_count -> Format.pp_print_string fmt "unknown"

let pp fmt t = pp_count fmt t.count

(* [pp_with names] prints symbolic counts through an SSA-name resolver. *)
let pp_with names fmt t =
  match t.count with
  | Symbolic s -> Sym.pp_with names fmt s
  | c -> pp_count fmt c

(* The margin m with "exit iff m <= 0", given "exit when x R y" (integer
   arithmetic turns strict comparisons into the +-1 adjustments of the
   paper's table). Returns [None] for = and <>, which are not countable
   this way. *)
let margin_parts (r : Ir.Ops.relop) =
  match r with
  | Ir.Ops.Lt -> Some (`Left_minus_right, 1) (* x < y: m = x - y + 1 *)
  | Ir.Ops.Le -> Some (`Left_minus_right, 0) (* x <= y: m = x - y *)
  | Ir.Ops.Gt -> Some (`Right_minus_left, 1) (* x > y: m = y - x + 1 *)
  | Ir.Ops.Ge -> Some (`Right_minus_left, 0) (* x >= y: m = y - x *)
  | Ir.Ops.Eq | Ir.Ops.Ne -> None

(* Count the stay-iterations observed at one exit branch; [None] when the
   branch is not countable. The exit test must execute on every
   iteration (it dominates all latches). *)
let count_via_exit (ctx : Classify.ctx) e : (count * bool) option =
  let ssa = ctx.Classify.ssa in
  let loop = ctx.Classify.loop in
  let cfg = Ir.Ssa.cfg ssa in
  let dom = Ir.Ssa.dom ssa in
  let tests_every_iteration =
    List.for_all (fun latch -> Ir.Dom.dominates dom e latch) loop.Ir.Loops.latches
  in
  if not tests_every_iteration then None
  else begin
    match (Ir.Cfg.block cfg e).Ir.Cfg.term with
    | Ir.Cfg.Branch (cond, l1, l2) -> (
      let exit_on_true = not (Ir.Loops.contains_block loop l1) in
      let exit_on_false = not (Ir.Loops.contains_block loop l2) in
      if exit_on_true && exit_on_false then Some (Finite Bigint.zero, false)
      else begin
        let cond_instr =
          match cond with
          | Ir.Instr.Def d -> Ir.Cfg.find_instr_opt cfg d
          | Ir.Instr.Const _ | Ir.Instr.Param _ -> None
        in
        match cond_instr with
        | Some { Ir.Instr.op = Ir.Instr.Relop r; args; _ } -> (
          let r = if exit_on_true then r else Ir.Ops.negate_relop r in
          match margin_parts r with
          | None -> None
          | Some (side, adjust) -> (
            let cx = Classify.class_of_value ctx args.(0) in
            let cy = Classify.class_of_value ctx args.(1) in
            let diff =
              match side with
              | `Left_minus_right -> Algebra.sub cx cy
              | `Right_minus_left -> Algebra.sub cy cx
            in
            let m = Algebra.add diff (Ivclass.Invariant (Sym.of_int adjust)) in
            match m with
            | Ivclass.Invariant s -> (
              match Sym.const s with
              | Some c ->
                if Rat.sign c <= 0 then Some (Finite Bigint.zero, false)
                else Some (Infinite, false)
              | None -> None)
            | Ivclass.Linear { loop = l; base = Ivclass.Invariant i; step }
              when l = loop.Ir.Loops.id -> (
              match Sym.const step with
              | Some s when Rat.sign s < 0 -> (
                match Sym.const i with
                | Some ic ->
                  if Rat.sign ic <= 0 then Some (Finite Bigint.zero, false)
                  else Some (Finite (Rat.ceil (Rat.div ic (Rat.neg s))), false)
                | None ->
                  (* Symbolic first value: exact division only when the
                     step is -1 (e.g. triangular loops, Fig 9). *)
                  if Rat.equal s Rat.minus_one then Some (Symbolic i, true)
                  else None)
              | Some s when Rat.sign s >= 0 -> (
                match Sym.const i with
                | Some ic when Rat.sign ic <= 0 -> Some (Finite Bigint.zero, false)
                | Some _ -> Some (Infinite, false)
                | None -> None)
              | Some _ | None -> None)
            | _ -> None))
        | Some _ | None -> None
      end)
    | Ir.Cfg.Jump _ | Ir.Cfg.Halt -> None
  end

(* [compute ctx] finds the trip count of [ctx]'s loop using the already
   computed classification table. Single-exit loops get an exact count;
   with several exits the earliest countable one still bounds the trips
   from above (the paper: "it may be able to find a maximum trip count;
   this information is useful for dependence testing"). *)
let compute (ctx : Classify.ctx) : t =
  let ssa = ctx.Classify.ssa in
  let loop = ctx.Classify.loop in
  let cfg = Ir.Ssa.cfg ssa in
  let exits = Ir.Loops.exit_edges cfg loop in
  let exit_blocks = List.sort_uniq Ir.Label.compare (List.map fst exits) in
  match exit_blocks with
  | [] ->
    { count = Infinite; max_count = Infinite; exit_block = None;
      assumes_positive = false }
  | [ e ] -> (
    match count_via_exit ctx e with
    | Some (c, assumes) ->
      { count = c; max_count = c; exit_block = Some e; assumes_positive = assumes }
    | None -> unknown)
  | _ :: _ :: _ ->
    (* Multiple exits: take the smallest countable bound as a maximum. *)
    let candidates = List.filter_map (fun e -> count_via_exit ctx e) exit_blocks in
    let best =
      List.fold_left
        (fun acc (c, _) ->
          match (acc, c) with
          | Unknown_count, c | c, Unknown_count -> c
          | Infinite, c | c, Infinite -> c
          | Finite a, Finite b -> Finite (Bigint.min a b)
          | Symbolic _, Finite b | Finite b, Symbolic _ ->
            (* Cannot compare; prefer the concrete bound. *)
            Finite b
          | Symbolic a, Symbolic _ -> Symbolic a)
        Unknown_count candidates
    in
    let best = match best with Infinite -> Unknown_count | b -> b in
    { unknown with max_count = best }

(* [count_sym t] is the trip count as a symbolic value, when exact. *)
let count_sym t =
  match t.count with
  | Finite n -> Some (Sym.of_rat (Rat.of_bigint n))
  | Symbolic s -> Some s
  | Infinite | Unknown_count -> None

(* [count_int t] is the trip count as a native int, when finite. *)
let count_int t =
  match t.count with
  | Finite n -> Bigint.to_int_opt n
  | Symbolic _ | Infinite | Unknown_count -> None

(* [max_count_int t] is an upper bound on the trips, when one is known
   (equals [count_int] for exactly counted loops). *)
let max_count_int t =
  match t.max_count with
  | Finite n -> Bigint.to_int_opt n
  | Symbolic _ | Infinite | Unknown_count -> None
