(* Natural-loop detection and the loop-nesting forest.

   A back edge is an edge t -> h where h dominates t; the natural loop of
   h is h plus every block that can reach some t without passing through
   h. Loops sharing a header are merged. The forest orders loops by block
   containment; the induction-variable driver walks it inner-to-outer
   (paper §5.3: "induction variable recognition proceeds from the inner
   loops outward"). *)

type loop = {
  id : int;
  header : Label.t;
  name : string; (* source label when available, else "L@<header>" *)
  blocks : Label.Set.t;
  latches : Label.t list; (* in-loop sources of back edges to the header *)
  mutable parent : int option;
  mutable loop_children : int list;
  mutable depth : int; (* 1 for outermost *)
}

type t = {
  loops : loop array;
  roots : int list; (* outermost loops *)
  containing : int option array; (* innermost loop containing each block *)
}

let loop t id = t.loops.(id)
let num_loops t = Array.length t.loops
let roots t = t.roots
let all t = Array.to_list t.loops

(* [innermost t l] is the innermost loop containing block [l], if any. *)
let innermost t l = t.containing.(l)

let contains_block loop l = Label.Set.mem l loop.blocks

(* [find_by_name t name] finds a loop by its source label (e.g. "L18"). *)
let find_by_name t name =
  let found = ref None in
  Array.iter (fun lp -> if String.equal lp.name name then found := Some lp) t.loops;
  !found

(* Post-order over the forest: inner loops before their parents. *)
let postorder t =
  let order = ref [] in
  let rec visit id =
    let lp = t.loops.(id) in
    List.iter visit lp.loop_children;
    order := lp :: !order
  in
  List.iter visit t.roots;
  List.rev !order

let compute ?preds (cfg : Cfg.t) (dom : Dom.t) : t =
  let preds = match preds with Some p -> p | None -> Cfg.pred_table cfg in
  (* Collect back edges grouped by header. *)
  let back_edges : (Label.t, Label.t list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun l ->
      List.iter
        (fun s ->
          if Dom.is_reachable dom s && Dom.dominates dom s l then
            Hashtbl.replace back_edges s (l :: (Option.value ~default:[] (Hashtbl.find_opt back_edges s))))
        (Cfg.successors cfg l))
    (Dom.reverse_postorder dom);
  (* Natural loop of each header: reverse reachability from the latches. *)
  let headers = Hashtbl.fold (fun h _ acc -> h :: acc) back_edges [] in
  let headers = List.sort Label.compare headers in
  let loops =
    List.mapi
      (fun id header ->
        let latches = Hashtbl.find back_edges header in
        let blocks = ref (Label.Set.singleton header) in
        let rec pull l =
          if not (Label.Set.mem l !blocks) then begin
            blocks := Label.Set.add l !blocks;
            List.iter pull preds.(l)
          end
        in
        List.iter pull latches;
        let name =
          match (Cfg.block cfg header).Cfg.loop_name with
          | Some n -> n
          | None -> "L@" ^ Label.to_string header
        in
        {
          id;
          header;
          name;
          blocks = !blocks;
          latches = List.sort Label.compare latches;
          parent = None;
          loop_children = [];
          depth = 0;
        })
      headers
  in
  let loops = Array.of_list loops in
  (* Nesting: loop A is inside loop B iff A's header is in B's blocks and
     A <> B; A's parent is the smallest such B. Natural loops with
     distinct headers are disjoint or strictly nested, so visiting loops
     largest first and recording, per block, the last (hence smallest)
     loop seen to contain it finds each parent at its header's owner —
     and leaves every block's owner its innermost loop. *)
  let owner = Array.make (Cfg.num_blocks cfg) None in
  let by_size =
    Array.map (fun lp -> (Label.Set.cardinal lp.blocks, lp)) loops |> Array.to_list
    |> List.stable_sort (fun (m, _) (n, _) -> compare n m)
  in
  List.iter
    (fun (_, a) ->
      (match owner.(a.header) with
       | Some b ->
         a.parent <- Some b;
         loops.(b).loop_children <- a.id :: loops.(b).loop_children
       | None -> ());
      Label.Set.iter (fun l -> owner.(l) <- Some a.id) a.blocks)
    by_size;
  Array.iter (fun lp -> lp.loop_children <- List.sort compare lp.loop_children) loops;
  let roots =
    Array.to_list loops
    |> List.filter (fun lp -> lp.parent = None)
    |> List.map (fun lp -> lp.id)
  in
  let rec set_depth d id =
    let lp = loops.(id) in
    lp.depth <- d;
    List.iter (set_depth (d + 1)) lp.loop_children
  in
  List.iter (set_depth 1) roots;
  { loops; roots; containing = owner }

(* [exit_edges cfg loop] is the list of (from, to) edges leaving [loop]. *)
let exit_edges cfg loop =
  Label.Set.fold
    (fun l acc ->
      List.fold_left
        (fun acc s -> if contains_block loop s then acc else (l, s) :: acc)
        acc (Cfg.successors cfg l))
    loop.blocks []

(* [instrs cfg loop] is every instruction in the loop's blocks. *)
let instrs cfg loop =
  Label.Set.fold (fun l acc -> acc @ (Cfg.block cfg l).Cfg.instrs) loop.blocks []

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun lp ->
      Format.fprintf fmt "loop %s: header=%a depth=%d blocks={%a} parent=%s@," lp.name
        Label.pp lp.header lp.depth
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           Label.pp)
        (Label.Set.elements lp.blocks)
        (match lp.parent with None -> "-" | Some p -> string_of_int p))
    t.loops;
  Format.fprintf fmt "@]"
