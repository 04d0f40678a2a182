(* Dominator tree and dominance frontiers.

   Uses the Cooper–Harvey–Kennedy iterative algorithm on reverse
   postorder: simple, robust, and fast enough for the CFGs this library
   sees. Dominance frontiers follow Cytron et al., which is what the SSA
   phi-placement pass consumes. Dominance queries compare pre/post
   numbers of the dominator tree, so each is O(1) however deep the tree
   (a file of sequential loop nests makes it one long chain). *)

type t = {
  idom : int array; (* idom.(l) = immediate dominator; entry maps to itself *)
  rpo_index : int array; (* position of each block in reverse postorder *)
  order : Label.t list; (* reverse postorder of reachable blocks *)
  reachable : bool array;
  children : Label.t list array; (* dominator-tree children *)
  frontier : Label.Set.t array;
  (* Dominator-tree entry and exit numbers: [a] dominates [b] iff [a]'s
     interval holds [b]'s. -1 (an empty interval) if unreachable. *)
  pre : int array;
  post : int array;
}

let idom t l = t.idom.(l)
let children t l = t.children.(l)
let frontier t l = t.frontier.(l)
let reverse_postorder t = t.order
let is_reachable t l = t.reachable.(l)

(* [dominates t a b] holds when [a] dominates [b] (reflexively): [a]'s
   subtree of the dominator tree holds [b]. An unreachable [b] has no
   idom chain, and a query on one raises, as walking that chain did. *)
let dominates t a b =
  a = b
  || (if not t.reachable.(b) then invalid_arg "index out of bounds";
      a >= 0
      && a < Array.length t.pre
      && t.pre.(a) <= t.pre.(b)
      && t.post.(b) <= t.post.(a))

let strictly_dominates t a b = a <> b && dominates t a b

let compute ?preds (cfg : Cfg.t) : t =
  let n = Cfg.num_blocks cfg in
  let order = Cfg.reverse_postorder cfg in
  let reachable = Cfg.reachable cfg in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i l -> rpo_index.(l) <- i) order;
  let preds = match preds with Some p -> p | None -> Cfg.pred_table cfg in
  let entry = Cfg.entry cfg in
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          (* First processed predecessor that already has an idom. *)
          let processed = List.filter (fun p -> idom.(p) >= 0 && reachable.(p)) preds.(l) in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
            if idom.(l) <> new_idom then begin
              idom.(l) <- new_idom;
              changed := true
            end
        end)
      order
  done;
  let children = Array.make n [] in
  List.iter
    (fun l -> if l <> entry && idom.(l) >= 0 then children.(idom.(l)) <- l :: children.(idom.(l)))
    order;
  (* Dominance frontiers (Cytron et al. fig. 10): for each join point,
     walk up from each predecessor to the idom. *)
  let frontier = Array.make n Label.Set.empty in
  List.iter
    (fun l ->
      let ps = List.filter (fun p -> reachable.(p)) preds.(l) in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            while !runner <> idom.(l) do
              frontier.(!runner) <- Label.Set.add l frontier.(!runner);
              runner := idom.(!runner)
            done)
          ps)
    order;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let clock = ref 0 in
  let rec number l =
    pre.(l) <- !clock;
    incr clock;
    List.iter number children.(l);
    post.(l) <- !clock;
    incr clock
  in
  number entry;
  { idom; rpo_index; order; reachable; children; frontier; pre; post }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun l ->
      Format.fprintf fmt "%a: idom=%a df={%a}@," Label.pp l Label.pp t.idom.(l)
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           Label.pp)
        (Label.Set.elements t.frontier.(l)))
    t.order;
  Format.fprintf fmt "@]"
