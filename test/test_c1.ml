(* C1 across file size: the paper's claim that the work is linear in
   the size of the SSA graph, checked on files of 8, 32 and 128
   sequential loop nests. Each layer of a bare pipeline is forced in
   turn, and the words it allocates (minor allocations plus words
   allocated directly in the major heap) are divided by the number of
   SSA instructions. At one domain the count is deterministic, so the
   bound is tight: at 128 nests no layer may allocate more than 1.25x
   per node what it does at 8. *)

module Pipeline = Analysis.Pipeline

let sizes = [ 8; 32; 128 ]
let bound = 1.25

(* Words allocated by [f]: minor words, plus major words that were not
   promoted from the minor heap (those were counted when they were
   allocated, possibly before [f]). [Gc.minor_words] is exact;
   [Gc.counters]'s minor count lags until the next minor collection. *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let allocated f =
  let mi0 = Gc.minor_words () and ma0 = direct_major () in
  f ();
  Gc.minor_words () -. mi0 +. (direct_major () -. ma0)

let get = function Ok v -> v | Error e -> Alcotest.fail e

(* Per-layer words per SSA node for one K-nest file. *)
let measure nests =
  let src = Ir.Ast.to_string (Helpers.nest_program ~seed:1 ~nests) in
  let p = Pipeline.create src in
  let force pass () = get (Pipeline.force p pass) in
  let layers =
    List.map
      (fun pass -> (Pipeline.name pass, allocated (force pass)))
      Pipeline.[ Parse; Ssa; Looptree; Sccp; Units; Classify; Trip; Ranges ]
  in
  let deps =
    allocated (fun () ->
        let a = get (Pipeline.promoted p) in
        let ranges = get (Pipeline.ranges p) in
        ignore (Dependence.Dep_graph.build ~ranges a))
  in
  let nodes = Ir.Cfg.num_instrs (Ir.Ssa.cfg (get (Pipeline.ssa p))) in
  List.map
    (fun (name, w) -> (name, w /. float_of_int nodes))
    (layers @ [ ("depgraph", deps) ])

(* The table is printed into the first test's log (under
   _build/_tests) for EXPERIMENTS.md. *)
let table =
  lazy
    (let t = List.map (fun k -> (k, measure k)) sizes in
     Printf.printf "words per SSA node at %s nests:\n"
       (String.concat "/" (List.map string_of_int sizes));
     List.iter
       (fun (name, _) ->
         Printf.printf "  %-9s %s\n" name
           (String.concat " / "
              (List.map (fun (_, row) -> Printf.sprintf "%.0f" (List.assoc name row)) t)))
       (snd (List.hd t));
     t)

let check_layer name () =
  let t = Lazy.force table in
  let per k = List.assoc name (List.assoc k t) in
  let small = per (List.hd sizes) and large = per (List.nth sizes 2) in
  let ratio = large /. small in
  if ratio > bound then
    Alcotest.failf
      "%s allocates %.0f words per SSA node at %d nests but %.0f at %d \
       (%.2fx; bound %.2fx): words per node at 8/32/128 nests = %s"
      name large (List.nth sizes 2) small (List.hd sizes) ratio bound
      (String.concat " / "
         (List.map (fun k -> Printf.sprintf "%.0f" (per k)) sizes))

let layers =
  [ "parse"; "ssa"; "looptree"; "sccp"; "units"; "classify"; "trip"; "range";
    "depgraph" ]

let suite =
  ( "c1",
    List.map
      (fun name ->
        Helpers.case (Printf.sprintf "%s words per SSA node flat from 8 to 128 nests" name)
          (check_layer name))
      layers )
