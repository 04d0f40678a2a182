(* Control-flow graph over the tuple IR.

   The CFG is mutable while it is being built (by [Lower] and by the SSA
   pass, which inserts and deletes instructions) and is treated as frozen
   by the analyses. Blocks are labelled with dense integers; instruction
   ids are dense too, so side tables are arrays or Hashtbls keyed by int. *)

type terminator =
  | Jump of Label.t
  | Branch of Instr.value * Label.t * Label.t (* cond <> 0 ? then : else *)
  | Halt

type block = {
  label : Label.t;
  mutable instrs : Instr.t list; (* in execution order *)
  mutable term : terminator;
  mutable loop_name : string option;
      (* set on loop-header blocks: the source label of the loop (e.g. "L7") *)
}

type t = {
  mutable blocks : block array; (* indexed by label *)
  entry : Label.t;
  mutable next_instr : int;
  (* Cache: instruction id -> (block, instr); rebuilt on demand. *)
  mutable index : (Label.t * Instr.t) Instr.Id.Table.t option;
  (* Set by [Lower]: per top-level statement, the first label its
     lowering allocated. *)
  mutable stmt_starts : Label.t array;
}

let create () =
  let entry_block = { label = 0; instrs = []; term = Halt; loop_name = None } in
  {
    blocks = [| entry_block |];
    entry = 0;
    next_instr = 0;
    index = None;
    stmt_starts = [||];
  }

let entry t = t.entry
let block t label = t.blocks.(label)
let num_blocks t = Array.length t.blocks
let labels t = List.init (num_blocks t) (fun i -> i)

let invalidate t = t.index <- None
let stmt_starts t = t.stmt_starts
let set_stmt_starts t starts = t.stmt_starts <- starts

let add_block t =
  let label = Array.length t.blocks in
  let b = { label; instrs = []; term = Halt; loop_name = None } in
  t.blocks <- Array.append t.blocks [| b |];
  label

let fresh_instr_id t =
  let id = t.next_instr in
  t.next_instr <- id + 1;
  id

(* [append t label op args] creates an instruction at the end of [label]. *)
let append t label op args =
  let id = fresh_instr_id t in
  let instr = { Instr.id; op; args } in
  let b = t.blocks.(label) in
  b.instrs <- b.instrs @ [ instr ];
  invalidate t;
  instr

(* [prepend t label op args] creates an instruction at the start of
   [label]; used for phi insertion. *)
let prepend t label op args =
  let id = fresh_instr_id t in
  let instr = { Instr.id; op; args } in
  let b = t.blocks.(label) in
  b.instrs <- instr :: b.instrs;
  invalidate t;
  instr

let set_term t label term = (block t label).term <- term

let successors t label =
  match (block t label).term with
  | Jump l -> [ l ]
  | Branch (_, l1, l2) -> if Label.equal l1 l2 then [ l1 ] else [ l1; l2 ]
  | Halt -> []

(* Predecessors in a deterministic order (by block label, then position);
   phi argument order matches this order. *)
let predecessors t label =
  let preds = ref [] in
  Array.iter
    (fun b ->
      List.iter
        (fun s -> if Label.equal s label then preds := b.label :: !preds)
        (successors t b.label))
    t.blocks;
  List.sort_uniq Label.compare !preds

(* All predecessors, including duplicates when both branch targets are the
   same block (not produced by our lowering, but defensive). *)
let pred_table t =
  let n = num_blocks t in
  let preds = Array.make n [] in
  for l = n - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- l :: preds.(s)) (successors t l)
  done;
  preds

let index t =
  match t.index with
  | Some idx -> idx
  | None ->
    let idx = Instr.Id.Table.create 256 in
    Array.iter
      (fun b ->
        List.iter (fun i -> Instr.Id.Table.replace idx i.Instr.id (b.label, i)) b.instrs)
      t.blocks;
    t.index <- Some idx;
    idx

(* [find_instr t id] is the instruction with the given id.
   @raise Not_found if it was deleted or never existed. *)
let find_instr t id = snd (Instr.Id.Table.find (index t) id)

let find_instr_opt t id =
  Option.map snd (Instr.Id.Table.find_opt (index t) id)

(* [block_of_instr t id] is the label of the block containing [id]. *)
let block_of_instr t id = fst (Instr.Id.Table.find (index t) id)

let iter_instrs t f =
  Array.iter (fun b -> List.iter (fun i -> f b.label i) b.instrs) t.blocks

let fold_instrs t f acc =
  Array.fold_left
    (fun acc b -> List.fold_left (fun acc i -> f acc b.label i) acc b.instrs)
    acc t.blocks

let num_instrs t = fold_instrs t (fun n _ _ -> n + 1) 0

(* [replace_instrs t label f] maps the instruction list of a block. *)
let replace_instrs t label f =
  let b = block t label in
  b.instrs <- f b.instrs;
  invalidate t

(* Reverse postorder over reachable blocks; analyses iterate in this
   order so forward dataflow converges fast. *)
let reverse_postorder t =
  let n = num_blocks t in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs l =
    if not visited.(l) then begin
      visited.(l) <- true;
      List.iter dfs (successors t l);
      order := l :: !order
    end
  in
  dfs t.entry;
  !order

let reachable t =
  let n = num_blocks t in
  let visited = Array.make n false in
  let rec dfs l =
    if not visited.(l) then begin
      visited.(l) <- true;
      List.iter dfs (successors t l)
    end
  in
  dfs t.entry;
  visited

let pp_terminator fmt = function
  | Jump l -> Format.fprintf fmt "jump %a" Label.pp l
  | Branch (v, l1, l2) ->
    Format.fprintf fmt "branch %a ? %a : %a" Instr.pp_value v Label.pp l1 Label.pp l2
  | Halt -> Format.pp_print_string fmt "halt"

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun b ->
      let header =
        match b.loop_name with
        | Some name -> Printf.sprintf " ; loop %s header" name
        | None -> ""
      in
      Format.fprintf fmt "@[<v 2>%a:%s@," Label.pp b.label header;
      List.iter (fun i -> Format.fprintf fmt "%a@," Instr.pp i) b.instrs;
      Format.fprintf fmt "%a@]@," pp_terminator b.term)
    t.blocks;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
