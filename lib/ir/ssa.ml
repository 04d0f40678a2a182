(* SSA construction over the tuple IR (Cytron et al.).

   Scalar Load/Store instructions are promoted to direct def-use edges:
   phi instructions are placed on the iterated dominance frontier of each
   variable's definition blocks, then a dominator-tree walk renames every
   use to its unique reaching definition. After the pass, Load/Store of
   scalars are gone; array Aload/Astore remain.

   The pass also records human-readable SSA names ("j2", "k3", ...) in the
   style of the paper's figures: version k of variable x is the k-th
   definition of x in renaming order, and the value flowing in from
   outside the program (never assigned before use) is "x0", represented
   as [Param x]. *)

type t = {
  cfg : Cfg.t;
  (* Cfg.pred_table of the converted CFG (conversion changes no edge);
     dominators and the loop forest are computed from it too. *)
  preds : Label.t list array;
  dom : Dom.t;
  loops : Loops.t;
  (* phi id -> the source variable it merges *)
  phi_var : Ident.t Instr.Id.Table.t;
  (* def id -> SSA names assigned to it (a def can be stored to several
     variables; each store names it) *)
  names_of : string list Instr.Id.Table.t;
  (* SSA name -> value, e.g. "j2" -> Def 14, "n0" -> Param n *)
  name_env : (string, Instr.value) Hashtbl.t;
}

let cfg t = t.cfg
let preds t label = t.preds.(label)
let dom t = t.dom
let loops t = t.loops

let phi_var t id = Instr.Id.Table.find_opt t.phi_var id

let names_of t id =
  Option.value ~default:[] (Instr.Id.Table.find_opt t.names_of id)

(* [value_of_name t name] looks up an SSA name like "j2"; bare variable
   names ("n") resolve to the program input [Param n]. *)
let value_of_name t name =
  match Hashtbl.find_opt t.name_env name with
  | Some v -> Some v
  | None ->
    let n = String.length name in
    let is_digit c = c >= '0' && c <= '9' in
    if n > 0 && not (is_digit name.[n - 1]) then
      (* A bare variable name denotes the program input. *)
      Some (Instr.Param (Ident.of_string name))
    else if n > 1 && name.[n - 1] = '0' && not (is_digit name.[n - 2]) then
      (* "x0" is the program input for x. *)
      Some (Instr.Param (Ident.of_string (String.sub name 0 (n - 1))))
    else None

(* [def_of_name t name] is the instruction id for an SSA name, when the
   name denotes an instruction result. *)
let def_of_name t name =
  match Hashtbl.find_opt t.name_env name with
  | Some (Instr.Def id) -> Some id
  | Some (Instr.Const _ | Instr.Param _) | None -> None

(* [primary_name t id] is the first SSA name of a def, or its raw id. *)
let primary_name t id =
  match names_of t id with
  | name :: _ -> name
  | [] -> Instr.Id.to_string id

let pp_value t fmt (v : Instr.value) =
  match v with
  | Instr.Def id -> Format.pp_print_string fmt (primary_name t id)
  | Instr.Const n -> Format.pp_print_int fmt n
  | Instr.Param x -> Format.fprintf fmt "%a0" Ident.pp x

let is_scalar_op = function
  | Instr.Load _ | Instr.Store _ -> true
  | _ -> false

(* --- Construction --- *)

let convert (cfg : Cfg.t) : t =
  let preds = Cfg.pred_table cfg in
  let dom =
    Obs.Trace.with_span "ssa.dominators" (fun () -> Dom.compute ~preds cfg)
  in
  let nblocks = Cfg.num_blocks cfg in
  (* 1. Definition blocks per scalar variable, keeping the variables in
     first-definition order so phi placement (and hence instruction ids,
     anchor choices and report order) is deterministic. *)
  let def_blocks : Label.Set.t Ident.Tbl.t = Ident.Tbl.create 16 in
  let vars_in_order : Ident.t list ref = ref [] in
  Cfg.iter_instrs cfg (fun label instr ->
      match instr.Instr.op with
      | Instr.Store x ->
        if not (Ident.Tbl.mem def_blocks x) then vars_in_order := x :: !vars_in_order;
        let cur = Option.value ~default:Label.Set.empty (Ident.Tbl.find_opt def_blocks x) in
        Ident.Tbl.replace def_blocks x (Label.Set.add label cur)
      | _ -> ());
  let vars_in_order = List.rev !vars_in_order in
  (* 2. Phi placement on iterated dominance frontiers. [has_phi] and
     [in_work] hold the index of the last variable that marked each
     block (Cytron et al.'s iteration stamps), so one pair of arrays
     serves every variable. *)
  let phi_var : Ident.t Instr.Id.Table.t = Instr.Id.Table.create 32 in
  (* Every phi placed, by id: pruning looks phis up here rather than in
     a whole-CFG instruction index built only for it. *)
  let placed : Instr.t Instr.Id.Table.t = Instr.Id.Table.create 32 in
  let phis_at : Instr.t list array = Array.make nblocks [] in
  let has_phi = Array.make nblocks (-1) in
  let in_work = Array.make nblocks (-1) in
  List.iteri
    (fun stamp x ->
      let defs = Ident.Tbl.find def_blocks x in
      let work = Queue.create () in
      Label.Set.iter
        (fun l ->
          Queue.push l work;
          in_work.(l) <- stamp)
        defs;
      while not (Queue.is_empty work) do
        let l = Queue.pop work in
        Label.Set.iter
          (fun y ->
            if Dom.is_reachable dom y && has_phi.(y) <> stamp then begin
              has_phi.(y) <- stamp;
              let arity = List.length preds.(y) in
              let phi = Cfg.prepend cfg y Instr.Phi (Array.make arity (Instr.Const 0)) in
              Instr.Id.Table.replace phi_var phi.Instr.id x;
              Instr.Id.Table.replace placed phi.Instr.id phi;
              phis_at.(y) <- phi :: phis_at.(y);
              if in_work.(y) <> stamp then begin
                Queue.push y work;
                in_work.(y) <- stamp
              end
            end)
          (Dom.frontier dom l)
      done)
    vars_in_order;
  (* 3. Renaming via dominator-tree walk. *)
  let stacks : Instr.value list ref Ident.Tbl.t = Ident.Tbl.create 16 in
  let stack_of x =
    match Ident.Tbl.find_opt stacks x with
    | Some s -> s
    | None ->
      let s = ref [] in
      Ident.Tbl.add stacks x s;
      s
  in
  let current x =
    match !(stack_of x) with
    | v :: _ -> v
    | [] -> Instr.Param x
  in
  (* Naming happens after dead-phi pruning (so version numbers stay
     dense and match the paper's figures); the walk only records events
     in renaming order. *)
  let naming_events : (Ident.t * Instr.value) list ref = ref [] in
  let assign_name x (v : Instr.value) = naming_events := (x, v) :: !naming_events in
  (* Substitution for deleted Load instructions. *)
  let subst : Instr.value Instr.Id.Table.t = Instr.Id.Table.create 64 in
  let rec resolve (v : Instr.value) =
    match v with
    | Instr.Def id -> (
      match Instr.Id.Table.find_opt subst id with
      | Some v' -> resolve v'
      | None -> v)
    | Instr.Const _ | Instr.Param _ -> v
  in
  (* Children sorted by reverse-postorder position, so renaming visits
     blocks in program order and version numbers match the figures. *)
  let rpo_pos = Array.make nblocks max_int in
  List.iteri (fun i l -> rpo_pos.(l) <- i) (Dom.reverse_postorder dom);
  let rec walk label =
    let block = Cfg.block cfg label in
    let pushed = ref [] in
    let push x v =
      let s = stack_of x in
      s := v :: !s;
      pushed := x :: !pushed
    in
    List.iter
      (fun (instr : Instr.t) ->
        match instr.Instr.op with
        | Instr.Phi -> (
          match Instr.Id.Table.find_opt phi_var instr.Instr.id with
          | Some x ->
            let v = Instr.Def instr.Instr.id in
            push x v;
            assign_name x v
          | None -> ())
        | Instr.Load x ->
          Instr.Id.Table.replace subst instr.Instr.id (resolve (current x))
        | Instr.Store x ->
          let v = resolve instr.Instr.args.(0) in
          push x v;
          assign_name x v
        | _ ->
          (* Rewrite operand loads eagerly; they were already processed
             (operands of straight-line code dominate their uses). *)
          instr.Instr.args <- Array.map resolve instr.Instr.args)
      block.Cfg.instrs;
    (match block.Cfg.term with
     | Cfg.Branch (v, l1, l2) -> block.Cfg.term <- Cfg.Branch (resolve v, l1, l2)
     | Cfg.Jump _ | Cfg.Halt -> ());
    (* Fill phi arguments in successors. *)
    List.iter
      (fun s ->
        let pred_index =
          let rec find i = function
            | [] -> invalid_arg "Ssa.convert: successor without pred edge"
            | p :: _ when Label.equal p label -> i
            | _ :: rest -> find (i + 1) rest
          in
          find 0 preds.(s)
        in
        List.iter
          (fun (phi : Instr.t) ->
            match Instr.Id.Table.find_opt phi_var phi.Instr.id with
            | Some x -> phi.Instr.args.(pred_index) <- resolve (current x)
            | None -> ())
          phis_at.(s))
      (Cfg.successors cfg label);
    let children =
      List.sort (fun a b -> Int.compare rpo_pos.(a) rpo_pos.(b)) (Dom.children dom label)
    in
    List.iter walk children;
    List.iter
      (fun x ->
        let s = stack_of x in
        match !s with
        | _ :: rest -> s := rest
        | [] -> assert false)
      !pushed
  in
  walk (Cfg.entry cfg);
  (* 4. Delete the promoted Load/Store instructions and apply any
     remaining substitutions (e.g. phi args pointing at loads). Blocks
     unreachable from the entry sit outside the dominator tree, so the
     walk never renamed them; their code never runs, so each of their
     loads becomes the program input and no operand names a deleted
     load. *)
  List.iter
    (fun label ->
      Cfg.replace_instrs cfg label (fun instrs ->
          List.filter_map
            (fun (instr : Instr.t) ->
              match instr.Instr.op with
              | Instr.Load x when not (Dom.is_reachable dom label) ->
                Instr.Id.Table.replace subst instr.Instr.id (Instr.Param x);
                None
              | op when is_scalar_op op -> None
              | _ ->
                instr.Instr.args <- Array.map resolve instr.Instr.args;
                Some instr)
            instrs);
      let block = Cfg.block cfg label in
      match block.Cfg.term with
      | Cfg.Branch (v, l1, l2) -> block.Cfg.term <- Cfg.Branch (resolve v, l1, l2)
      | Cfg.Jump _ | Cfg.Halt -> ())
    (Cfg.labels cfg);
  (* 5. Prune dead phis (the paper's figures use pruned SSA): keep only
     phis transitively reachable from a non-phi use or a branch. *)
  let used : unit Instr.Id.Table.t = Instr.Id.Table.create 64 in
  let rec mark (v : Instr.value) =
    match v with
    | Instr.Def id when not (Instr.Id.Table.mem used id) -> (
      match Instr.Id.Table.find_opt placed id with
      | Some phi ->
        Instr.Id.Table.replace used id ();
        Array.iter mark phi.Instr.args
      | None -> ())
    | Instr.Def _ | Instr.Const _ | Instr.Param _ -> ()
  in
  Cfg.iter_instrs cfg (fun _ instr ->
      if instr.Instr.op <> Instr.Phi then Array.iter mark instr.Instr.args);
  List.iter
    (fun label ->
      match (Cfg.block cfg label).Cfg.term with
      | Cfg.Branch (v, _, _) -> mark v
      | Cfg.Jump _ | Cfg.Halt -> ())
    (Cfg.labels cfg);
  let pruned : unit Instr.Id.Table.t = Instr.Id.Table.create 16 in
  List.iter
    (fun label ->
      Cfg.replace_instrs cfg label (fun instrs ->
          List.filter
            (fun (instr : Instr.t) ->
              let keep =
                instr.Instr.op <> Instr.Phi || Instr.Id.Table.mem used instr.Instr.id
              in
              if not keep then Instr.Id.Table.replace pruned instr.Instr.id ();
              keep)
            instrs))
    (Cfg.labels cfg);
  (* 6. Assign SSA names ("j2", ...) by replaying the naming events,
     skipping defs that were pruned, so version numbers are dense. *)
  let versions : int Ident.Tbl.t = Ident.Tbl.create 16 in
  let events = List.length !naming_events in
  let names_of : string list Instr.Id.Table.t = Instr.Id.Table.create events in
  let name_env : (string, Instr.value) Hashtbl.t = Hashtbl.create events in
  List.iter
    (fun (x, (v : Instr.value)) ->
      let dangling =
        match v with Instr.Def id -> Instr.Id.Table.mem pruned id | _ -> false
      in
      if not dangling then begin
        let k = 1 + Option.value ~default:0 (Ident.Tbl.find_opt versions x) in
        Ident.Tbl.replace versions x k;
        let name = Ident.name x ^ string_of_int k in
        (match v with
         | Instr.Def id ->
           let existing =
             Option.value ~default:[] (Instr.Id.Table.find_opt names_of id)
           in
           Instr.Id.Table.replace names_of id (existing @ [ name ])
         | Instr.Const _ | Instr.Param _ -> ());
        Hashtbl.replace name_env name v
      end)
    (List.rev !naming_events);
  let loops =
    Obs.Trace.with_span "ssa.looptree" (fun () -> Loops.compute ~preds cfg dom)
  in
  { cfg; preds; dom; loops; phi_var; names_of; name_env }

let convert cfg = Obs.Trace.with_span "ssa.convert" (fun () -> convert cfg)

(* [of_source src] parses, lowers and converts to SSA in one step. *)
let of_source src =
  convert (Obs.Trace.with_span "ssa.lower" (fun () -> Lower.lower_source src))

(* [of_program ast] lowers and converts a constructed AST. *)
let of_program p =
  convert (Obs.Trace.with_span "ssa.lower" (fun () -> Lower.lower p))

(* --- Validation (used by property tests) --- *)

(* [check t] verifies SSA well-formedness; returns the list of violations
   (empty when valid): every phi has one argument per predecessor, every
   non-phi use is dominated by its definition, and every phi argument's
   definition dominates the corresponding predecessor block exit. *)
let check t =
  let cfg = t.cfg in
  let dom = t.dom in
  let preds = Cfg.pred_table cfg in
  let errors = ref [] in
  let err ?loc code fmt =
    Format.kasprintf
      (fun s -> errors := Diag.v ?loc ~code ~origin:"ssa" "%s" s :: !errors)
      fmt
  in
  let block_of id =
    match Instr.Id.Table.find_opt (Cfg.index cfg) id with
    | Some (l, _) -> Some l
    | None -> None
  in
  Cfg.iter_instrs cfg (fun label instr ->
      if not (Dom.is_reachable dom label) then ()
      else
        match instr.Instr.op with
        | Instr.Phi ->
          let loc = Diag.Instr instr.Instr.id in
          let arity = Array.length instr.Instr.args in
          let npreds = List.length preds.(label) in
          if arity <> npreds then
            err ~loc "SSA001" "phi %a in %a has %d args but %d preds" Instr.Id.pp
              instr.Instr.id Label.pp label arity npreds
          else
            List.iteri
              (fun i p ->
                match instr.Instr.args.(i) with
                | Instr.Def d -> (
                  match block_of d with
                  | Some db ->
                    if Dom.is_reachable dom p && not (Dom.dominates dom db p) then
                      err ~loc "SSA002"
                        "phi %a arg %d: def %a does not dominate pred %a"
                        Instr.Id.pp instr.Instr.id i Instr.Id.pp d Label.pp p
                  | None ->
                    err ~loc "SSA003" "phi %a arg %d: dangling def %a" Instr.Id.pp
                      instr.Instr.id i Instr.Id.pp d)
                | Instr.Const _ | Instr.Param _ -> ())
              preds.(label)
        | _ ->
          Array.iter
            (fun (v : Instr.value) ->
              let loc = Diag.Instr instr.Instr.id in
              match v with
              | Instr.Def d -> (
                match block_of d with
                | Some db ->
                  if not (Dom.dominates dom db label) then
                    err ~loc "SSA004" "use of %a in %a not dominated by its def in %a"
                      Instr.Id.pp d Label.pp label Label.pp db
                | None ->
                  err ~loc "SSA005" "dangling operand %a in %a" Instr.Id.pp d
                    Label.pp label)
              | Instr.Const _ | Instr.Param _ -> ())
            instr.Instr.args);
  List.rev !errors

(* --- Printing --- *)

let pp fmt t =
  let cfg = t.cfg in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun label ->
      let b = Cfg.block cfg label in
      let header =
        match b.Cfg.loop_name with
        | Some name -> Printf.sprintf " ; loop %s" name
        | None -> ""
      in
      Format.fprintf fmt "@[<v 2>%a:%s@," Label.pp label header;
      List.iter
        (fun (instr : Instr.t) ->
          let name = primary_name t instr.Instr.id in
          let pp_args fmt args =
            Format.pp_print_array
              ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
              (pp_value t) fmt args
          in
          (match instr.Instr.op with
           | Instr.Aload x ->
             Format.fprintf fmt "%s = %a(%a)" name Ident.pp x pp_args instr.Instr.args
           | Instr.Astore x ->
             Format.fprintf fmt "%s = store %a(...) %a" name Ident.pp x pp_args
               instr.Instr.args
           | op ->
             Format.fprintf fmt "%s = %s %a" name (Instr.op_name op) pp_args
               instr.Instr.args);
          Format.pp_print_cut fmt ())
        b.Cfg.instrs;
      (match b.Cfg.term with
       | Cfg.Branch (v, l1, l2) ->
         Format.fprintf fmt "branch %a ? %a : %a" (pp_value t) v Label.pp l1 Label.pp l2
       | Cfg.Jump l -> Format.fprintf fmt "jump %a" Label.pp l
       | Cfg.Halt -> Format.pp_print_string fmt "halt");
      Format.fprintf fmt "@]@,")
    (Cfg.labels cfg);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
