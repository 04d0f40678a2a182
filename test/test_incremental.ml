(* Per-root incremental re-analysis: each loop-forest root is one
   analysis unit, and the per-unit cache must make an edit to one loop
   nest cheap (every other unit is a cache hit) without ever changing a
   byte of the merged whole-program reports. *)

module Engine = Service.Engine
module Server = Service.Server
module Pipeline = Analysis.Pipeline

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* Three independent top-level nests with straight-line code between
   the first two; editing one nest must leave the other units' digests
   (and so their cached artifacts) untouched. *)
let base ?(body1 = "s + i") ?(body2 = "t + 2") () =
  Printf.sprintf
    "s = 0\n\
     L1: for i = 1 to n loop\n\
    \  s = %s\n\
    \  A(i) = s\n\
     endloop\n\
     t = 0\n\
     L2: for j = 1 to m loop\n\
    \  t = %s\n\
    \  B(j) = t\n\
     endloop\n\
     L3: for k = 1 to 10 loop\n\
    \  C(k) = k * k\n\
     endloop\n"
    body1 body2

let old_src = base ()
let new_src = base ~body2:"t + 3" ()

let stat engine name =
  match
    List.find_opt (fun (p, _, _) -> p = name) (Engine.pass_stats engine)
  with
  | Some (_, hits, misses) -> (hits, misses)
  | None -> Alcotest.failf "no pass named %s in pass_stats" name

(* --- the units themselves --- *)

let root_names p =
  let loops = ok (Pipeline.looptree p) in
  List.map (fun r -> (Ir.Loops.loop loops r).Ir.Loops.name)

let test_one_unit_per_root () =
  let p = Pipeline.create old_src in
  let infos = ok (Pipeline.units p) in
  Alcotest.(check (list int))
    "one unit per loop-forest root, in forest order"
    (Ir.Loops.roots (ok (Pipeline.looptree p)))
    (List.map (fun (i : Pipeline.unit_info) -> i.uroot) infos);
  Alcotest.(check (list string))
    "the three nests" [ "L1"; "L2"; "L3" ]
    (root_names p (List.map (fun (i : Pipeline.unit_info) -> i.uroot) infos))

(* --- cache behaviour across an edit --- *)

let test_unit_reuse () =
  let e = Engine.create () in
  ignore (ok (Engine.classify e old_src));
  Alcotest.(check (pair int int))
    "cold run computes all three nests" (0, 3) (stat e "unit_classify");
  ignore (ok (Engine.classify e new_src));
  (* Only L2 changed: L1 and L3 are served from the unit cache, the
     edited nest is the single new miss. *)
  Alcotest.(check (pair int int))
    "edit reuses the two untouched nests" (2, 4) (stat e "unit_classify")

(* --- byte-identity of the merged reports --- *)

let reports engine src =
  List.map
    (fun a -> ok (Engine.render engine a src))
    [ Engine.Classify; Engine.Trip; Engine.Deps ]

(* Where [warm] (merged from relocated artifacts) and [cold] differ as
   records, not as reports: a trip count's exit block, say, reaches no
   report when it only sharpens a range that was already tight. *)
let analysis_mismatch (warm : Pipeline.analysis) (cold : Pipeline.analysis) =
  let module T = Ir.Instr.Id.Table in
  let same_table eq a b =
    T.length a = T.length b
    && T.fold (fun id x ok -> ok && match T.find_opt b id with Some y -> eq x y | None -> false) a true
  in
  let trip_text (t : Analysis.Trip_count.t) =
    Format.asprintf "%a/%a exit=%s positive=%b" Analysis.Trip_count.pp_count
      t.Analysis.Trip_count.count Analysis.Trip_count.pp_count t.max_count
      (match t.exit_block with Some l -> string_of_int l | None -> "-")
      t.assumes_positive
  in
  if not (same_table Analysis.Sym.equal warm.exit_values cold.exit_values) then Some "exit values"
  else
    Array.to_list (Array.mapi (fun l r -> (l, r, cold.by_loop.(l))) warm.by_loop)
    |> List.find_map (fun (l, w, c) ->
           match (w, c) with
           | None, None -> None
           | Some (w : Pipeline.loop_result), Some (c : Pipeline.loop_result) ->
             if w.nodes <> c.nodes then Some (Printf.sprintf "loop %d: nodes" l)
             else if trip_text w.trip <> trip_text c.trip then
               Some (Printf.sprintf "loop %d: trip %s, cold %s" l (trip_text w.trip) (trip_text c.trip))
             else if not (same_table Analysis.Ivclass.equal w.table c.table) then
               Some (Printf.sprintf "loop %d: class table" l)
             else None
           | _ -> Some (Printf.sprintf "loop %d: present in one analysis only" l))

let check_identical ?(expect_reuse = true) ?hits ~edited old_src new_src =
  let warm = Engine.create () in
  ignore (ok (Engine.classify warm old_src));
  let incremental = reports warm new_src in
  let cold = reports (Engine.create ()) new_src in
  List.iter2
    (fun a b ->
      Alcotest.(check string) ("incremental = cold after " ^ edited) a b)
    cold incremental;
  Option.iter
    (fun what -> Alcotest.failf "merged analysis differs from cold after %s: %s" edited what)
    (analysis_mismatch (ok (Engine.analyze warm new_src))
       (Pipeline.analyze (Ir.Ssa.of_source new_src)));
  if expect_reuse then begin
    (* Some nest really was reused, so the equality above is a
       statement about merged-from-cache output, not a trivial re-run. *)
    let h, _ = stat warm "unit_classify" in
    Alcotest.(check bool) "some units were reused" true (h > 0);
    Option.iter (fun n -> Alcotest.(check int) "units reused" n h) hits
  end

let test_merged_byte_identity () = check_identical ~edited:"a mid-nest edit" old_src new_src

let test_first_nest_edit () =
  (* Same program, different edited unit: the first nest this time
     (size-preserving, so downstream SSA ids — and with them the other
     units' digests — are untouched). *)
  check_identical ~edited:"a first-nest edit" old_src (base ~body1:"s - i" ())

let test_size_changing_edit () =
  (* An edit that inserts an instruction shifts every later SSA id (and
     every phi id, which are numbered after lowering). Unit keys are
     canonical, so the two untouched nests still hit, and their
     artifacts are relocated into the new numbering. *)
  check_identical ~hits:2 ~edited:"a size-changing edit" old_src
    (base ~body1:"s + 2 * i" ())

(* Deleting [a]'s first definition moves [a] after [b] in
   first-definition order, so L0's exit phis, which M reads, swap ids.
   M's key is unchanged, and its relocated classes must re-sort their
   terms: "inv(b2 + a1)", as a cold run prints them. *)
let test_live_in_reorder () =
  let src ~init_a =
    (if init_a then "a = 0\n" else "")
    ^ "b = 0\nL0: for i = 1 to n loop\n  b = b + 1\n  a = a + i\nendloop\n\
       M: for j = 1 to 10 loop\n  C(j) = a + b\nendloop\n"
  in
  check_identical ~hits:1 ~edited:"a live-in reorder" (src ~init_a:true) (src ~init_a:false);
  Alcotest.(check bool) "terms in the new id order" true
    (Helpers.contains (ok (Engine.classify (Engine.create ()) (src ~init_a:false))) "inv(b2 + a1)")

let test_parallel_merge_identical () =
  (* Unit fan-out across domains must not perturb merged output. *)
  let pool = Service.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Service.Pool.shutdown pool)
    (fun () ->
      let warm = Engine.create () in
      ignore (ok (Engine.classify warm old_src));
      let par = ok (Engine.render ~pool warm Engine.Classify new_src) in
      let seq = ok (Engine.render (Engine.create ()) Engine.Classify new_src) in
      Alcotest.(check string) "pooled merge = sequential" seq par)

(* --- range sections: the Ranges pass through the unit layer --- *)

(* Range-section hits and misses, from the engine's registry. *)
let range_stat engine =
  let registry = Obs.Instrument.snapshot (Engine.metrics engine) in
  let count name =
    match List.assoc_opt name registry with
    | Some (Obs.Instrument.V_counter n) -> n
    | _ -> 0
  in
  (count "unit.range_hits", count "unit.range_misses")

(* Warm an engine on [old_src]'s RANGES and DEPS replies, then render
   [new_src]'s: each must equal a cold engine's byte for byte. Returns
   the edit step's range (hits, misses) and unit_classify (hits,
   misses). *)
let check_ranges_identical ~edited old_src new_src =
  let replies e src = List.map (fun a -> ok (Engine.render e a src)) Engine.[ Ranges; Deps ] in
  let warm = Engine.create () in
  ignore (replies warm old_src);
  let r0 = range_stat warm and c0 = stat warm "unit_classify" in
  let incremental = replies warm new_src in
  let cold = replies (Engine.create ()) new_src in
  List.iter2
    (fun a b -> Alcotest.(check string) ("RANGES/DEPS incremental = cold after " ^ edited) a b)
    cold incremental;
  let since (h0, m0) (h1, m1) = (h1 - h0, m1 - m0) in
  (since r0 (range_stat warm), since c0 (stat warm "unit_classify"))

(* L2 reads [s], L1's exit value: not constant, so no part of L2's
   digest. Flipping L1's step keeps every id but moves the interval of
   [s], and with it whether B(s + 10) can meet B(j). L2's classification
   is reused; its range key must miss. *)
let test_live_in_interval_edit () =
  let src op =
    Printf.sprintf
      "s = 0
       L1: for i = 1 to 10 loop
      \  s = s %s 2
       endloop
       L2: for j = 1 to 5 loop
      \  B(j) = B(s + 10)
       endloop
       L3: for k = 1 to 4 loop
      \  C(k) = k
       endloop
"
      op
  in
  let ranges, classify = check_ranges_identical ~edited:"an earlier nest's edit" (src "+") (src "-") in
  Alcotest.(check (pair int int)) "L2 and L3 classifications reused" (2, 1) classify;
  Alcotest.(check (pair int int)) "only L3's range section reused" (1, 2) ranges

(* A constant set before a top-level if decides whether L1 runs: its
   blocks' executability changes while its digest does not. *)
let test_executability_edit () =
  let src c =
    Printf.sprintf
      "c = %d
       if c > 0 then
      \  L1: for i = 1 to 10 loop
      \    A(i) = A(i + 1)
      \  endloop
       endif
       L2: for j = 1 to 5 loop
      \  B(j) = j
       endloop
"
      c
  in
  let ranges, classify = check_ranges_identical ~edited:"an executability edit" (src 1) (src 0) in
  Alcotest.(check (pair int int)) "both classifications reused" (2, 0) classify;
  Alcotest.(check (pair int int)) "L1's range key misses" (1, 1) ranges

(* A size-changing edit to the first nest shifts every later id: the
   later nests' range sections hit and are mapped into the new
   numbering. *)
let test_range_sections_relocated () =
  let ranges, classify =
    check_ranges_identical ~edited:"a size-changing edit" old_src (base ~body1:"s + 2 * i" ())
  in
  Alcotest.(check (pair int int)) "two classifications relocated" (2, 1) classify;
  Alcotest.(check (pair int int)) "two range sections relocated" (2, 1) ranges

(* Sixty-four independent nests: after a one-nest edit, a DEPS request
   solves the range fixpoint for the edited root alone, whether the
   edit keeps every id or shifts them. *)
let test_one_root_resolved () =
  let program ?(op = "+") ?(extra = "") () =
    String.concat ""
      (List.init 64 (fun k ->
           let op = if k = 40 then op else "+" and extra = if k = 40 then extra else "" in
           Printf.sprintf
             "s%d = 0
N%d: for i%d = 1 to n loop
  s%d = s%d %s i%d
%s  A%d(i%d) = s%d
endloop
"
             k k k k k op k extra k k k))
  in
  List.iter
    (fun (edited, new_src) ->
      let ranges, classify = check_ranges_identical ~edited (program ()) new_src in
      Alcotest.(check (pair int int)) (edited ^ ": classifications") (63, 1) classify;
      Alcotest.(check (pair int int)) (edited ^ ": one root solved") (63, 1) ranges)
    [ ("a size-preserving edit", program ~op:"-" ());
      ("a size-changing edit", program ~extra:"  s40 = s40 + 1\n" ()) ]

(* --- the merged analysis still satisfies the checked-mode oracle --- *)

let test_check_after_merge () =
  let e = Engine.create () in
  ignore (ok (Engine.classify e old_src));
  ignore (ok (Engine.classify e new_src));
  let report = ok (Engine.check e new_src) in
  Alcotest.(check int) "no checker errors on merged analysis" 0
    (Verify.Check.errors report);
  Alcotest.(check bool) "oracle actually checked something" true
    (Verify.Check.checks report > 0)

(* --- user-facing surfaces --- *)

let test_diff_report () =
  let e = Engine.create () in
  let text = ok (Engine.diff e old_src new_src) in
  Alcotest.(check bool) "counts the units" true
    (Helpers.contains text "diff: 3 units");
  Alcotest.(check bool) "reused nests are visible" true
    (Helpers.contains text "reused (unit cache hit)");
  Alcotest.(check bool) "the edited nest is re-analyzed" true
    (Helpers.contains text "reanalyzed (changed)")

let test_relocations_reported () =
  let e = Engine.create () in
  let size_preserving = ok (Engine.diff e old_src new_src) in
  Alcotest.(check bool) "no relocation when the numbering holds" false
    (Helpers.contains size_preserving "relocated"
    || Helpers.contains (Engine.prometheus_report e) "iv_unit_relocations_total");
  let text = ok (Engine.diff e old_src (base ~body1:"s + 2 * i" ())) in
  Alcotest.(check bool) "relocated hits are marked" true
    (Helpers.contains text "diff: 3 units, 2 reused, 1 reanalyzed"
    && Helpers.contains text "reused (unit cache hit, relocated)");
  Alcotest.(check bool) "and counted" true
    (Helpers.contains (Engine.prometheus_report e) "iv_unit_relocations_total 2\n")

let with_temp_program src f =
  let path = Filename.temp_file "ivtool_incr" ".iv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc;
      f path)

let payload = function
  | Server.Ok_payload s -> s
  | Server.Err msg -> Alcotest.fail ("unexpected ERR: " ^ msg)
  | Server.Bye -> Alcotest.fail "unexpected BYE"

let test_reanalyze_verb () =
  let e = Engine.create () in
  with_temp_program old_src (fun path ->
      ignore (payload (Server.handle e ("CLASSIFY " ^ path))));
  with_temp_program new_src (fun path ->
      let reply = payload (Server.handle e ("REANALYZE " ^ path)) in
      (* One unit per nest: two of the three are reused. *)
      Alcotest.(check bool) "summarises reuse" true
        (Helpers.contains reply "reanalyze: 3 units, 2 reused, 1 computed");
      Alcotest.(check bool) "carries the classify report" true
        (Helpers.contains reply "loop L2"));
  Alcotest.(check bool) "REANALYZE needs a path" true
    (match Server.handle e "REANALYZE" with
     | Server.Err msg -> Helpers.contains msg "file argument"
     | _ -> false)

(* Cached unit artifacts hold ids, classes and counts only: once a
   version is invalidated, nothing cached keeps its SSA alive, and its
   artifacts still serve the next REANALYZE of the same text. *)
let test_artifacts_release_program () =
  let e = Engine.create () in
  with_temp_program old_src (fun path ->
      let request verb = payload (Server.handle e (verb ^ " " ^ path)) in
      ignore (request "REANALYZE");
      let held = Weak.create 1 in
      (* Not inlined, so no register or stack slot of this frame keeps
         the SSA reachable. *)
      let[@inline never] hold () =
        Weak.set held 0 (Some (ok (Engine.analyze e old_src)).Pipeline.ssa)
      in
      hold ();
      ignore (request "INVALIDATE");
      Gc.full_major ();
      Alcotest.(check bool) "alive after invalidate" false (Weak.check held 0);
      Alcotest.(check bool) "every unit still cached" true
        (Helpers.contains (request "REANALYZE") "reanalyze: 3 units, 3 reused, 0 computed"))

(* --- units: every loop-forest root is exactly one unit --- *)

(* A countable nest after an infinite loop: the CFG drops the nest as
   unreachable, so it is no unit. *)
let unreachable_tail ?(body = "s + j") () =
  Printf.sprintf
    "i = 0\nL: loop\n  i = i + 1\nendloop\nM: for j = 1 to 10 loop\n  s = %s\nendloop\n"
    body

(* An unconditional exit before an infinite inner loop: L never reaches
   its latch, so the forest root is the inner loop M. *)
let exit_before_inner ?(body = "k + i") () =
  Printf.sprintf
    "k = 0\nL: loop\n  exit\n  M: loop\n    k = k + 1\n  endloop\nendloop\n\
     N: for i = 1 to n loop\n  A(i) = %s\nendloop\n"
    body

let same_label ?(body = "t + 2") () =
  Printf.sprintf
    "s = 0\nL: for i = 1 to n loop\n  s = s + i\n  A(i) = s\nendloop\nt = 0\n\
     L: for j = 1 to m loop\n  t = %s\n  A(j) = t\nendloop\n"
    body

let roots_partitioned src =
  let p = Pipeline.create src in
  List.map (fun (i : Pipeline.unit_info) -> i.uroot) (ok (Pipeline.units p))
  = Ir.Loops.roots (ok (Pipeline.looptree p))

(* Each unit's root loop name, with the unit's index. *)
let owners src =
  let p = Pipeline.create src in
  List.mapi
    (fun k name -> (name, k))
    (root_names p (List.map (fun (i : Pipeline.unit_info) -> i.uroot) (ok (Pipeline.units p))))

(* [src]'s roots map onto [owners] and its reports match the goldens;
   [edited] changes one of its two nests, so a warm engine reuses the
   other nest's unit and the merged reports equal a cold run's. *)
let check_mapping ~src ~edited ~owners:expected ~classify ~trip ~deps =
  Alcotest.(check bool) "roots partitioned" true (roots_partitioned src);
  Alcotest.(check (list (pair string int))) "root owners" expected (owners src);
  let e = Engine.create () in
  Alcotest.(check (list string))
    "classify, trip, deps" [ classify; trip; deps ] (reports e src);
  let h0, _ = stat e "unit_classify" in
  check_identical ~edited:"one nest" src edited;
  ignore (ok (Engine.classify e edited));
  let h1, _ = stat e "unit_classify" in
  Alcotest.(check int) "the other nest is reused" 1 (h1 - h0)

let test_unreachable_tail () =
  check_mapping ~src:(unreachable_tail ())
    ~edited:(unreachable_tail ~body:"s - j" ())
    ~owners:[ ("L", 0) ]
    ~classify:"loop L (depth 1, trip count infinite):\n  i2       (L, 0, 1)\n  i3       (L, 1, 1)\n  \n"
    ~trip:"loop L        trips: infinite\n" ~deps:"no dependences\n";
  let text = ok (Engine.diff (Engine.create ()) (unreachable_tail ()) (unreachable_tail ~body:"s - j" ())) in
  Alcotest.(check bool) "diff maps every unit" true
    (Helpers.contains text "diff: 1 units, 1 reused, 0 reanalyzed")

(* examples/incremental/unreachable_tail_{old,new}.iv: the dropped nest
   M stores to the array K writes. Dependence testing skips code the CFG
   drops (it used to raise Not_found on it), so M's store neither
   crashes DEPS nor pairs with K's. *)
let incremental_example name =
  let dir =
    List.find Sys.file_exists
      [ Filename.concat (Filename.concat ".." "examples") "incremental";
        Filename.concat "examples" "incremental" ]
  in
  let ic = open_in_bin (Filename.concat dir name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_unreachable_array_store () =
  let old_src = incremental_example "unreachable_tail_old.iv" in
  let new_src = incremental_example "unreachable_tail_new.iv" in
  Alcotest.(check bool) "the dropped nest stores to A" true
    (Helpers.contains new_src "  A(j) = s\nendloop");
  List.iter
    (fun src ->
      Alcotest.(check string) "deps golden" "no dependences\n"
        (ok (Engine.render (Engine.create ()) Engine.Deps src)))
    [ old_src; new_src ];
  check_identical ~edited:"the reachable nest" old_src new_src

(* examples/incremental/if_pair_{old,new}.iv: two loops under one
   top-level [if] are two units, so an edit to one reuses the other. *)
let test_if_pair () =
  let old_src = incremental_example "if_pair_old.iv" in
  let new_src = incremental_example "if_pair_new.iv" in
  check_identical ~hits:1 ~edited:"one of two loops under an if" old_src new_src;
  Alcotest.(check bool) "diff counts two units" true
    (Helpers.contains
       (ok (Engine.diff (Engine.create ()) old_src new_src))
       "diff: 2 units, 1 reused, 1 reanalyzed")

(* A unit is keyed on its SSA alone: the same nest with its scalars
   renamed, or behind extra straight-line statements, hits the
   original's artifact. *)
let sum_nest ~s ~i =
  Printf.sprintf "%s = 0\nL: for %s = 1 to n loop\n  %s = %s + %s\n  A(%s) = %s\nendloop\n" s i
    s s i i s

let test_renamed_or_moved_nest () =
  let nest = sum_nest ~s:"s" ~i:"i" in
  check_identical ~hits:1 ~edited:"renamed scalars" nest (sum_nest ~s:"acc" ~i:"k");
  check_identical ~hits:1 ~edited:"straight statements in front" nest ("x = 1\ny = x * 2\n" ^ nest)

let test_exit_before_inner () =
  check_mapping ~src:(exit_before_inner ())
    ~edited:(exit_before_inner ~body:"k - i" ())
    ~owners:[ ("M", 0); ("N", 1) ]
    ~classify:
      "loop M (depth 1, trip count infinite):\n  k2       (M, 0, 1)\n  k3       (M, 1, 1)\n  \n\
       loop N (depth 1, trip count n):\n  i2       (N, 1, 1)\n  %10      unknown\n\
      \  %14      (N, 1, 1)\n  %15      (N, 1, 1)\n  i3       (N, 2, 1)\n  \n"
    ~trip:"loop M        trips: infinite\nloop N        trips: n\n"
    ~deps:"no dependences\n"

let test_same_label () =
  check_mapping ~src:(same_label ())
    ~edited:(same_label ~body:"t + 3" ())
    ~owners:[ ("L", 0); ("L", 1) ]
    ~classify:
      "loop L (depth 1, trip count n):\n  i2       (L, 1, 1)\n  s2       (L, 0, 1/2, 1/2)\n\
      \  %6       unknown\n  s3       (L, 1, 3/2, 1/2)\n  %13      (L, 1, 3/2, 1/2)\n\
      \  i3       (L, 2, 1)\n  \n\
       loop L (depth 1, trip count m):\n  j2       (L, 1, 1)\n  t2       (L, 0, 2)\n\
      \  %23      unknown\n  t3       (L, 2, 2)\n  %29      (L, 2, 2)\n  j3       (L, 2, 1)\n  \n"
    ~trip:"loop L        trips: n\nloop L        trips: m\n"
    ~deps:"output A@%13 -> A@%29: dependent ()\n"

let prop_units_partition_roots =
  Helpers.qtest ~count:100 "units partition the forest roots" Gen.gen_program
    (fun prog ->
      let src = Ir.Ast.to_string prog in
      roots_partitioned src
      || QCheck2.Test.fail_reportf "roots not partitioned for:\n%s" src)

(* --- relocation: edits that renumber the program --- *)

type edit =
  | Insert_or_delete
    (* one statement at the head of a nest's outer loop; an inserted one
       stores a constant, so no other nest's inputs change (a read of a
       scalar could keep alive a phi in the nest before) *)
  | Add_loop (* a new nest before a program: later loop ids shift *)
  | Drop_first_def (* a variable's first definition: phi order changes *)
  | Change_constant (* a constant flowing into a later nest: must miss *)

let edit_name = function
  | Insert_or_delete -> "insert or delete a statement"
  | Add_loop -> "add a loop"
  | Drop_first_def -> "drop a first definition"
  | Change_constant -> "change a constant"

(* A generated program's leading assignments (its initialising
   prelude) and the rest. *)
let split_prelude stmts =
  let rec go acc = function
    | (Ir.Ast.Assign _ as s) :: rest -> go (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] stmts

let on_outer_body f =
  List.map (function
    | Ir.Ast.For l -> Ir.Ast.For { l with Ir.Ast.body = f l.Ir.Ast.body }
    | s -> s)

(* [k] generated programs joined into one file. Programs after the
   first drop their prelude when [keep] says so, and always when the
   edit drops a first definition: their nest then reads live-in defs
   from the nest before, and that edit permutes those defs' ids (phis
   are numbered in first-definition order). Returns (old, new, the
   number of top-level loops before the [target]th program's nest in
   new: the nest's unit index). *)
let edited_pair (seeds, keep, edit, target, choice) =
  let progs =
    List.mapi
      (fun i seed ->
        let p = Corpus.Gen.program (Random.State.make [| seed |]) in
        let pre, rest = split_prelude p.Ir.Ast.stmts in
        ((if i = 0 || (List.nth keep i && edit <> Drop_first_def) then pre else []), rest))
      seeds
  in
  let flows = Change_constant = edit in
  (* For a constant edit, both versions define [vk] in the first
     prelude and store it in the target nest, so the constant reaches
     that nest's instructions. *)
  let vk c = Ir.Ast.assign "vk" (Ir.Ast.i c) in
  let for_ name x body = Ir.Ast.for_ name x (Ir.Ast.i 1) (Ir.Ast.i 3) body in
  let store_at x e = Ir.Ast.astore "arr" [ Ir.Ast.v x ] e in
  (* When a first definition is dropped, both versions also read every
     variable after each program in a nest that leaves them alone, so
     a class sums the live-in defs whose ids the edit reorders. *)
  let reader = for_ "GR" "gr" [ store_at "gr" Ir.Ast.(v "va" + v "vb" + v "vc" + v "vd") ] in
  let old_progs =
    List.mapi
      (fun i (pre, rest) ->
        let pre = if flows && i = 0 then vk 1 :: pre else pre in
        let rest =
          if flows && i = target then
            on_outer_body (fun body -> store_at "vk" (Ir.Ast.v "vk") :: body) rest
          else rest
        in
        (pre, if edit = Drop_first_def then rest @ [ reader ] else rest))
      progs
  in
  let new_progs =
    List.mapi
      (fun i (pre, rest) ->
        match edit with
        | Insert_or_delete when i = target ->
          ( pre,
            on_outer_body
              (fun body ->
                match body with
                | _ :: (_ :: _ as tail) when choice mod 2 = 1 -> tail
                | body -> store_at "go" (Ir.Ast.i 1) :: body)
              rest )
        | Add_loop when i = target -> (for_ "GNEW" "gn" [ store_at "gn" (Ir.Ast.v "gn") ] :: pre, rest)
        | Drop_first_def when i = 0 ->
          let x = List.nth [ "va"; "vb"; "vc"; "vd" ] (choice mod 4) in
          ( List.filter
              (function Ir.Ast.Assign (y, _) -> Ir.Ident.name y <> x | _ -> true)
              pre,
            rest )
        | Change_constant when i = 0 -> (
          match pre with
          | _ :: pre -> (vk 2 :: pre, rest)
          | [] -> (pre, rest))
        | _ -> (pre, rest))
      old_progs
  in
  let join ps =
    Ir.Ast.to_string
      { Ir.Ast.decls = []; stmts = List.concat_map (fun (pre, rest) -> pre @ rest) ps }
  in
  let loops_in stmts = List.length (List.filter (function Ir.Ast.For _ -> true | _ -> false) stmts) in
  let nest_unit =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i < target)
         (List.map (fun (pre, rest) -> loops_in pre + loops_in rest) new_progs))
    + loops_in (fst (List.nth new_progs target))
  in
  (join old_progs, join new_progs, nest_unit)

let gen_edited =
  let open QCheck2.Gen in
  let* k = int_range 2 4 in
  let* seeds = list_repeat k (int_bound 1_000_000) in
  let* keep = list_repeat k bool in
  let* edit = oneofl [ Insert_or_delete; Add_loop; Drop_first_def; Change_constant ] in
  let* target = int_bound (k - 1) in
  let* choice = int_bound 1000 in
  return (seeds, keep, edit, target, choice)

let print_edited ((_, _, edit, target, _) as case) =
  let old_src, new_src, _ = edited_pair case in
  Printf.sprintf "%s in program %d\n--- old\n%s--- new\n%s" (edit_name edit) target old_src
    new_src

(* After each edit, a warm engine's merged analysis and its classify,
   trip, deps and range reports equal a cold run's, and checked mode
   passes on the merged analysis. Inserting a statement reuses every other nest; a constant
   that reaches the target nest's instructions makes it miss. *)
let prop_renumbering_edits =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"renumbering edits match a cold run"
       ~print:print_edited gen_edited (fun ((_, _, edit, _, choice) as case) ->
         let old_src, new_src, nest_unit = edited_pair case in
         let warm = Engine.create () in
         let diff = ok (Engine.diff warm old_src new_src) in
         let artifacts = [ Engine.Classify; Engine.Trip; Engine.Deps; Engine.Ranges ] in
         let cold = Engine.create () in
         List.iter
           (fun a ->
             let w = ok (Engine.render warm a new_src) in
             let c = ok (Engine.render cold a new_src) in
             if w <> c then
               QCheck2.Test.fail_reportf "%s: warm differs from cold\n--- warm\n%s--- cold\n%s"
                 (Engine.artifact_to_string a) w c)
           artifacts;
         (match
            analysis_mismatch (ok (Engine.analyze warm new_src))
              (Pipeline.analyze (Ir.Ssa.of_source new_src))
          with
          | Some what -> QCheck2.Test.fail_reportf "merged analysis differs from cold: %s" what
          | None -> ());
         let report = ok (Engine.check warm new_src) in
         if Verify.Check.errors report > 0 then
           QCheck2.Test.fail_reportf "checked mode on the merged analysis:\n%s"
             (Verify.Check.to_text report);
         let reused, reran =
           Scanf.sscanf diff "diff: %d units, %d reused, %d reanalyzed" (fun _ r c -> (r, c))
         in
         (match edit with
          | Insert_or_delete when choice mod 2 = 0 && reran <> 1 ->
            QCheck2.Test.fail_reportf "insertion: %d reused, %d reanalyzed\n%s" reused reran
              diff
          | Change_constant -> (
            let line =
              List.find
                (String.starts_with ~prefix:(Printf.sprintf "unit %-3d " nest_unit))
                (String.split_on_char '\n' diff)
            in
            if not (Helpers.contains line "reanalyzed") then
              QCheck2.Test.fail_reportf "the constant's nest was not recomputed:\n%s" diff)
          | _ -> ());
         true))

let suite =
  ( "incremental",
    [
      Helpers.case "one unit per loop-forest root" test_one_unit_per_root;
      Helpers.case "edit reuses untouched units" test_unit_reuse;
      Helpers.case "merged reports byte-identical" test_merged_byte_identity;
      Helpers.case "first-nest edit byte-identical" test_first_nest_edit;
      Helpers.case "size-changing edit byte-identical" test_size_changing_edit;
      Helpers.case "live-in reorder byte-identical" test_live_in_reorder;
      Helpers.case "parallel merge byte-identical" test_parallel_merge_identical;
      Helpers.case "live-in interval edit misses the reader's range key" test_live_in_interval_edit;
      Helpers.case "executability edit misses the range key" test_executability_edit;
      Helpers.case "range sections relocated after a size-changing edit"
        test_range_sections_relocated;
      Helpers.case "a one-nest edit re-solves one root of 64" test_one_root_resolved;
      Helpers.case "checked mode passes on merged" test_check_after_merge;
      Helpers.case "diff report" test_diff_report;
      Helpers.case "relocated hits reported" test_relocations_reported;
      Helpers.case "REANALYZE serve verb" test_reanalyze_verb;
      Helpers.case "artifacts release the program" test_artifacts_release_program;
      Helpers.case "unreachable tail maps every root" test_unreachable_tail;
      Helpers.case "exit before an inner loop maps its root" test_exit_before_inner;
      Helpers.case "two nests with the same label" test_same_label;
      prop_units_partition_roots;
      Helpers.case "array store in a dropped nest: deps" test_unreachable_array_store;
      prop_renumbering_edits;
      Helpers.case "two loops under one if" test_if_pair;
      Helpers.case "renamed or moved nest hits" test_renamed_or_moved_nest;
    ] )
