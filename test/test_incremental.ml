(* Region-based incremental re-analysis: the per-unit cache must make
   an edit to one loop nest cheap (every other unit is a cache hit)
   without ever changing a byte of the merged whole-program reports. *)

module Engine = Service.Engine
module Server = Service.Server
module Pipeline = Analysis.Pipeline
module Region = Ir.Region

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

(* --- the partition itself --- *)

let test_partition () =
  let infos = ok (Pipeline.units (Pipeline.create old_src)) in
  Alcotest.(check int) "five units" 5 (List.length infos);
  let kinds =
    List.map
      (fun (i : Pipeline.unit_info) -> Region.kind_to_string i.region.kind)
      infos
  in
  Alcotest.(check (list string))
    "straight / nest interleaving"
    [ "straight"; "nest"; "straight"; "nest"; "nest" ]
    kinds;
  List.iter
    (fun (i : Pipeline.unit_info) ->
      match i.region.kind with
      | Region.Nest ->
        Alcotest.(check bool) "nest unit owns loops" true (i.uroots <> [])
      | Region.Straight ->
        Alcotest.(check bool) "straight unit owns no loops" true
          (i.uroots = []))
    infos

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

let check_identical ?(expect_reuse = true) ~edited old_src new_src =
  let warm = Engine.create () in
  ignore (ok (Engine.classify warm old_src));
  let incremental = reports warm new_src in
  let cold = reports (Engine.create ()) new_src in
  List.iter2
    (fun a b ->
      Alcotest.(check string) ("incremental = cold after " ^ edited) a b)
    cold incremental;
  if expect_reuse then begin
    (* Some nest really was reused, so the equality above is a
       statement about merged-from-cache output, not a trivial re-run. *)
    let hits, _ = stat warm "unit_classify" in
    Alcotest.(check bool) "some units were reused" true (hits > 0)
  end

let test_merged_byte_identity () = check_identical ~edited:"a mid-nest edit" old_src new_src

let test_first_nest_edit () =
  (* Same program, different edited unit: the first nest this time
     (size-preserving, so downstream SSA ids — and with them the other
     units' digests — are untouched). *)
  check_identical ~edited:"a first-nest edit" old_src (base ~body1:"s - i" ())

let test_size_changing_edit () =
  (* An edit that inserts an instruction shifts every downstream SSA id,
     so the digests of later units change and their artifacts are not
     reused — correctness over cleverness. The merged output must still
     be byte-identical to a cold run. *)
  check_identical ~expect_reuse:false ~edited:"a size-changing edit" old_src
    (base ~body1:"s + 2 * i" ())

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
    (Helpers.contains text "diff: 5 units");
  Alcotest.(check bool) "reused nests are visible" true
    (Helpers.contains text "reused (unit cache hit)");
  Alcotest.(check bool) "the edited nest is re-analyzed" true
    (Helpers.contains text "reanalyzed (changed)")

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
      (* The summary counts nest units (straight-line units carry no
         cached loop work): two of the three nests are reused. *)
      Alcotest.(check bool) "summarises reuse" true
        (Helpers.contains reply "reanalyze: 3 units, 2 reused, 1 computed");
      Alcotest.(check bool) "carries the classify report" true
        (Helpers.contains reply "loop L2"));
  Alcotest.(check bool) "REANALYZE needs a path" true
    (match Server.handle e "REANALYZE" with
     | Server.Err msg -> Helpers.contains msg "file argument"
     | _ -> false)

(* --- unit mapping: every loop-forest root lands in exactly one unit --- *)

(* A countable nest after an infinite loop: the CFG drops the nest as
   unreachable, so its unit owns no root. *)
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
  let infos = ok (Pipeline.units p) in
  let roots = Ir.Loops.roots (ok (Pipeline.looptree p)) in
  List.sort compare (List.concat_map (fun (i : Pipeline.unit_info) -> i.uroots) infos)
  = List.sort compare roots

(* The unit (index) owning each loop-forest root, by loop name. *)
let owners src =
  let p = Pipeline.create src in
  let loops = ok (Pipeline.looptree p) in
  List.concat_map
    (fun (i : Pipeline.unit_info) ->
      List.map
        (fun r -> ((Ir.Loops.loop loops r).Ir.Loops.name, i.region.Region.index))
        i.uroots)
    (ok (Pipeline.units p))

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
    ~owners:[ ("L", 1) ]
    ~classify:"loop L (depth 1, trip count infinite):\n  i2       (L, 0, 1)\n  i3       (L, 1, 1)\n  \n"
    ~trip:"loop L        trips: infinite\n" ~deps:"no dependences\n";
  let text = ok (Engine.diff (Engine.create ()) (unreachable_tail ()) (unreachable_tail ~body:"s - j" ())) in
  Alcotest.(check bool) "diff maps every unit" true
    (Helpers.contains text "diff: 3 units, 1 reused, 0 reanalyzed")

let test_exit_before_inner () =
  check_mapping ~src:(exit_before_inner ())
    ~edited:(exit_before_inner ~body:"k - i" ())
    ~owners:[ ("M", 1); ("N", 2) ]
    ~classify:
      "loop M (depth 1, trip count infinite):\n  k2       (M, 0, 1)\n  k3       (M, 1, 1)\n  \n\
       loop N (depth 1, trip count n):\n  i2       (N, 1, 1)\n  %10      unknown\n\
      \  %14      (N, 1, 1)\n  %15      (N, 1, 1)\n  i3       (N, 2, 1)\n  \n"
    ~trip:"loop M        trips: infinite\nloop N        trips: n\n"
    ~deps:"no dependences\n"

let test_same_label () =
  check_mapping ~src:(same_label ())
    ~edited:(same_label ~body:"t + 3" ())
    ~owners:[ ("L", 1); ("L", 3) ]
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

let suite =
  ( "incremental",
    [
      Helpers.case "partition into units" test_partition;
      Helpers.case "edit reuses untouched units" test_unit_reuse;
      Helpers.case "merged reports byte-identical" test_merged_byte_identity;
      Helpers.case "first-nest edit byte-identical" test_first_nest_edit;
      Helpers.case "size-changing edit byte-identical" test_size_changing_edit;
      Helpers.case "parallel merge byte-identical" test_parallel_merge_identical;
      Helpers.case "checked mode passes on merged" test_check_after_merge;
      Helpers.case "diff report" test_diff_report;
      Helpers.case "REANALYZE serve verb" test_reanalyze_verb;
      Helpers.case "unreachable tail maps every root" test_unreachable_tail;
      Helpers.case "exit before an inner loop maps its root" test_exit_before_inner;
      Helpers.case "two nests with the same label" test_same_label;
      prop_units_partition_roots;
    ] )
