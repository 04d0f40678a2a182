(* Analysis units: the partition of a program's top-level statement list
   into loop nests and residual straight-line runs.

   The paper's classification walk is already per-loop; the service
   layer's incremental re-analysis needs a stable notion of "the piece
   of the program a cached artifact covers". A unit is either one
   top-level statement that contains a loop (a [Nest] — usually a
   single `L: loop ... endloop` nest, but an `if` wrapping loops counts
   too and may carry several outermost loops), or a maximal run of
   loop-free top-level statements (a [Straight] unit). Units partition
   the statement list in order; the pipeline maps each loop-forest root
   to the unit whose statement lowered its header. *)

type kind = Nest | Straight

type unit_ = {
  index : int;
  kind : kind;
  first : int; (* index of the first top-level stmt (0-based) *)
  last : int; (* inclusive *)
  stmts : Ast.stmt list;
  free : string list; (* scalars read before any local write, sorted *)
  defined : string list; (* scalars written, sorted *)
  arrays : string list; (* arrays loaded or stored, sorted *)
}

let kind_to_string = function Nest -> "nest" | Straight -> "straight"

let rec stmt_has_loop = function
  | Ast.Loop _ | Ast.For _ -> true
  | Ast.If (_, t, e) -> List.exists stmt_has_loop (t @ e)
  | Ast.Assign _ | Ast.Astore _ | Ast.Exit_if _ -> false

(* -- the variable interface -- *)

module S = Set.Make (String)

type iface = { mutable reads : S.t; mutable writes : S.t; mutable arrs : S.t }

let rec expr_reads i = function
  | Ast.Int _ -> ()
  | Ast.Var x -> if not (S.mem (Ident.name x) i.writes) then i.reads <- S.add (Ident.name x) i.reads
  | Ast.Aref (a, idx) ->
    i.arrs <- S.add (Ident.name a) i.arrs;
    List.iter (expr_reads i) idx
  | Ast.Binop (_, a, b) ->
    expr_reads i a;
    expr_reads i b
  | Ast.Neg a -> expr_reads i a

let cond_reads i = function
  | Ast.Cmp (_, a, b) ->
    expr_reads i a;
    expr_reads i b
  | Ast.Unknown -> ()

(* A loop body's reads all happen "before" its writes from the outside:
   a loop-carried variable needs an incoming value, so every variable
   read anywhere in the body that the unit has not yet written counts as
   free. [collect_reads] gathers reads ignoring write order; writes are
   folded in afterwards. *)
let rec collect_reads i = function
  | Ast.Assign (_, e) -> expr_reads i e
  | Ast.Astore (a, idx, e) ->
    i.arrs <- S.add (Ident.name a) i.arrs;
    List.iter (expr_reads i) idx;
    expr_reads i e
  | Ast.If (c, t, e) ->
    cond_reads i c;
    List.iter (collect_reads i) (t @ e)
  | Ast.Loop (_, body) -> List.iter (collect_reads i) body
  | Ast.For { lo; hi; body; _ } ->
    expr_reads i lo;
    expr_reads i hi;
    List.iter (collect_reads i) body
  | Ast.Exit_if c -> cond_reads i c

let rec collect_writes i = function
  | Ast.Assign (x, _) -> i.writes <- S.add (Ident.name x) i.writes
  | Ast.Astore (a, _, _) -> i.arrs <- S.add (Ident.name a) i.arrs
  | Ast.If (_, t, e) -> List.iter (collect_writes i) (t @ e)
  | Ast.Loop (_, body) -> List.iter (collect_writes i) body
  | Ast.For { var; body; _ } ->
    i.writes <- S.add (Ident.name var) i.writes;
    List.iter (collect_writes i) body
  | Ast.Exit_if _ -> ()

let rec walk_stmt i s =
  match s with
  | Ast.Assign (x, e) ->
    expr_reads i e;
    i.writes <- S.add (Ident.name x) i.writes
  | Ast.Astore _ -> collect_reads i s
  | Ast.If (c, t, e) ->
    cond_reads i c;
    (* Both branches see the same incoming writes; their own writes
       merge afterwards (flow-insensitive but read-before-write exact
       for straight-line code). *)
    List.iter (walk_stmt i) t;
    List.iter (walk_stmt i) e
  | Ast.Loop _ | Ast.For _ ->
    collect_reads i s;
    collect_writes i s
  | Ast.Exit_if c -> cond_reads i c

let interface stmts =
  let i = { reads = S.empty; writes = S.empty; arrs = S.empty } in
  List.iter (walk_stmt i) stmts;
  (S.elements i.reads, S.elements i.writes, S.elements i.arrs)

(* -- the partition -- *)

let make_unit ~index ~kind ~first ~last stmts =
  let free, defined, arrays = interface stmts in
  {
    index;
    kind;
    first;
    last;
    stmts;
    free;
    defined;
    arrays;
  }

let partition (p : Ast.program) : unit_ list =
  let units = ref [] in
  let straight = ref [] (* reversed, with indices *) in
  let next_index () = List.length !units in
  let flush_straight () =
    match List.rev !straight with
    | [] -> ()
    | (first_idx, _) :: _ as run ->
      let stmts = List.map snd run in
      let last_idx = fst (List.hd !straight) in
      units :=
        make_unit ~index:(next_index ()) ~kind:Straight ~first:first_idx
          ~last:last_idx stmts
        :: !units;
      straight := []
  in
  List.iteri
    (fun idx s ->
      if stmt_has_loop s then begin
        flush_straight ();
        units :=
          make_unit ~index:(next_index ()) ~kind:Nest ~first:idx ~last:idx [ s ]
          :: !units
      end
      else straight := (idx, s) :: !straight)
    p.Ast.stmts;
  flush_straight ();
  List.rev !units

let pp fmt u =
  Format.fprintf fmt "unit %d %-8s stmts %d-%d" u.index
    (kind_to_string u.kind) u.first u.last;
  if u.free <> [] then Format.fprintf fmt " free=%s" (String.concat "," u.free);
  if u.defined <> [] then
    Format.fprintf fmt " defines=%s" (String.concat "," u.defined);
  if u.arrays <> [] then
    Format.fprintf fmt " arrays=%s" (String.concat "," u.arrays)

let to_string u = Format.asprintf "%a" pp u
