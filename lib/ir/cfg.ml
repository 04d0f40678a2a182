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
  (* Indexed by label; the first [count] slots are the blocks, the rest
     is spare capacity (doubled when full, so building is linear). *)
  mutable blocks : block array;
  mutable count : int;
  entry : Label.t;
  mutable next_instr : int;
  (* Cache: instruction id -> (block, instr); rebuilt on demand. *)
  mutable index : (Label.t * Instr.t) Instr.Id.Table.t option;
}

let create () =
  let entry_block = { label = 0; instrs = []; term = Halt; loop_name = None } in
  {
    blocks = [| entry_block |];
    count = 1;
    entry = 0;
    next_instr = 0;
    index = None;
  }

let entry t = t.entry
let num_blocks t = t.count

let block t label =
  if label < 0 || label >= t.count then invalid_arg "index out of bounds";
  t.blocks.(label)

let iter_blocks t f =
  for l = 0 to t.count - 1 do
    f t.blocks.(l)
  done

let labels t = List.init (num_blocks t) (fun i -> i)

let invalidate t = t.index <- None

let add_block t =
  let label = t.count in
  let b = { label; instrs = []; term = Halt; loop_name = None } in
  if label = Array.length t.blocks then begin
    let grown = Array.make (2 * label) b in
    Array.blit t.blocks 0 grown 0 label;
    t.blocks <- grown
  end;
  t.blocks.(label) <- b;
  t.count <- label + 1;
  label

let fresh_instr_id t =
  let id = t.next_instr in
  t.next_instr <- id + 1;
  id

let instr_id_bound t = t.next_instr

(* [append t label op args] creates an instruction at the end of [label]. *)
let append t label op args =
  let id = fresh_instr_id t in
  let instr = { Instr.id; op; args } in
  let b = block t label in
  b.instrs <- b.instrs @ [ instr ];
  invalidate t;
  instr

(* [prepend t label op args] creates an instruction at the start of
   [label]; used for phi insertion. *)
let prepend t label op args =
  let id = fresh_instr_id t in
  let instr = { Instr.id; op; args } in
  let b = block t label in
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
  iter_blocks t (fun b ->
      List.iter
        (fun s -> if Label.equal s label then preds := b.label :: !preds)
        (successors t b.label));
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
    iter_blocks t (fun b ->
        List.iter (fun i -> Instr.Id.Table.replace idx i.Instr.id (b.label, i)) b.instrs);
    t.index <- Some idx;
    idx

(* [find_instr t id] is the instruction with the given id.
   @raise Not_found if it was deleted or never existed. *)
let find_instr t id = snd (Instr.Id.Table.find (index t) id)

let find_instr_opt t id =
  Option.map snd (Instr.Id.Table.find_opt (index t) id)

(* [block_of_instr t id] is the label of the block containing [id]. *)
let block_of_instr t id = fst (Instr.Id.Table.find (index t) id)

let iter_instrs t f = iter_blocks t (fun b -> List.iter (fun i -> f b.label i) b.instrs)

let fold_instrs t f acc =
  let acc = ref acc in
  iter_blocks t (fun b ->
      acc := List.fold_left (fun acc i -> f acc b.label i) !acc b.instrs);
  !acc

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
  iter_blocks t (fun b ->
      let header =
        match b.loop_name with
        | Some name -> Printf.sprintf " ; loop %s header" name
        | None -> ""
      in
      Format.fprintf fmt "@[<v 2>%a:%s@," Label.pp b.label header;
      List.iter (fun i -> Format.fprintf fmt "%a@," Instr.pp i) b.instrs;
      Format.fprintf fmt "%a@]@," pp_terminator b.term);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t
