(* Checked mode: structural verifiers against injected faults (golden
   diagnostics), the corpus-clean property over examples/programs, the
   oracle's iteration depth, random-program structural soundness, the
   engine's verify-pass caching, and the CHECK serve verb. *)

module Diag = Ir.Diag
module Structural = Verify.Structural
module Inject = Verify.Inject
module Check = Verify.Check
module Oracle = Verify.Oracle
module Engine = Service.Engine
module Server = Service.Server

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Same resolution dance as test_pipeline: dune runtest runs in
   _build/default/test, a by-hand run in the repo root. *)
let corpus_dir =
  List.find Sys.file_exists
    [
      Filename.concat (Filename.concat ".." "examples") "programs";
      Filename.concat "examples" "programs";
    ]

let corpus_in dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".iv")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let corpus () = corpus_in corpus_dir

let fig9 () = read_file (Filename.concat corpus_dir "fig9_triangular.iv")
let stress () = read_file (Filename.concat corpus_dir "oracle_stress.iv")

(* ---------- fault injection: goldens ---------- *)

(* One golden rendered line per fault kind, pinned against the fig9
   fixture. The exact ids matter: they prove the diagnostics point at
   the corrupted site, not merely that something failed. *)
let injection_goldens =
  [
    ( Inject.Phi_arity,
      "error[SSA001] ssa (instr %28): phi %28 in B1 has 1 args but 2 preds" );
    ( Inject.Dangling_def,
      "error[SSA005] ssa (instr %6): dangling operand %1010 in B1" );
    ( Inject.Bad_edge,
      "error[CFG001] ssa-cfg (edge 0->14): terminator of block 0 targets \
       missing block 14" );
    ( Inject.Nondom_use,
      "error[SSA004] ssa (instr %6): use of %9 in B1 not dominated by its def \
       in B3" );
  ]

let test_injected_faults () =
  let src = fig9 () in
  List.iter
    (fun (kind, golden) ->
      let name = Inject.to_string kind in
      let prog = Ir.Parser.parse src in
      let ssa = Ir.Ssa.of_program prog in
      (match Inject.apply kind ssa with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "%s: injection not applicable: %s" name e);
      let diags = Structural.check_ir ssa in
      let code = Inject.expected_code kind in
      Alcotest.(check bool)
        (name ^ " reports " ^ code)
        true
        (List.exists (fun (d : Diag.t) -> d.Diag.code = code) diags);
      Alcotest.(check bool)
        (name ^ " golden line present")
        true
        (List.mem golden (List.map Diag.to_string diags));
      Alcotest.(check bool)
        (name ^ " is fatal")
        true
        (List.exists Diag.is_error diags))
    injection_goldens

let test_clean_fixture_has_no_findings () =
  let src = fig9 () in
  let prog = Ir.Parser.parse src in
  let lower = Ir.Lower.lower prog in
  let ssa = Ir.Ssa.of_program prog in
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map Diag.to_string (Structural.check_ir ~lower ssa))

(* ---------- the corpus-clean property ---------- *)

let test_corpus_checks_clean () =
  (* The ranges part is allowed to be vacuous on programs whose every
     interval is top (e.g. uncountable mutual induction) — but it must
     check something somewhere across the corpus. *)
  let range_checks = ref 0 in
  List.iter
    (fun (name, src) ->
      match Check.run ~iters:40 src with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok report ->
        Alcotest.(check int) (name ^ ": errors") 0 (Check.errors report);
        Alcotest.(check int) (name ^ ": warnings") 0 (Check.warnings report);
        Alcotest.(check int) (name ^ ": all four parts ran") 4
          (List.length report.Check.parts);
        Alcotest.(check bool) (name ^ ": not vacuous") true
          (Check.checks report > 0);
        List.iter
          (fun (p : Check.part) ->
            if p.Check.family = "ranges" then
              range_checks := !range_checks + p.Check.checks
            else if p.Check.family <> "structural" then
              Alcotest.(check bool)
                (name ^ ": " ^ p.Check.family ^ " checked something")
                true (p.Check.checks > 0))
          report.Check.parts)
    (corpus ());
  Alcotest.(check bool) "ranges checked something across the corpus" true
    (!range_checks > 0)

(* Code after an infinite loop is unreachable, so SSA renaming never
   visits it; its loads must still be resolved, or every operand naming
   one reads as a missing instruction (CFG003). *)
let test_unreachable_tail_checks_clean () =
  let dir = Filename.concat (Filename.dirname corpus_dir) "incremental" in
  List.iter
    (fun f ->
      let src = read_file (Filename.concat dir f) in
      (match Check.run ~iters:40 src with
       | Error e -> Alcotest.failf "%s: %s" f e
       | Ok report ->
         Alcotest.(check int) (f ^ ": errors") 0 (Check.errors report);
         Alcotest.(check int) (f ^ ": warnings") 0 (Check.warnings report));
      let ssa = Ir.Ssa.of_program (Ir.Parser.parse src) in
      (match Inject.apply Inject.Dangling_def ssa with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "%s: injection not applicable: %s" f e);
      let codes = List.map (fun (d : Diag.t) -> d.Diag.code) (Structural.check_ir ssa) in
      List.iter
        (fun code ->
          Alcotest.(check bool) (f ^ ": dangling-def reports " ^ code) true
            (List.mem code codes))
        [ "CFG003"; "SSA005" ])
    [ "unreachable_tail_old.iv"; "unreachable_tail_new.iv" ]

let test_oracle_depth () =
  (* The acceptance bar: closed forms hold for at least 64 iterations.
     oracle_stress.iv runs its outer loop 120 times, so the oracle must
     get at least that deep before fuel runs out. *)
  let t = Helpers.analyze (stress ()) in
  let r = Oracle.check ~fuel:200_000 Oracle.Classes t in
  Alcotest.(check (list string)) "no failures" []
    (List.map Diag.to_string r.Oracle.diags);
  Alcotest.(check bool) "reaches h >= 64" true (r.Oracle.max_h >= 64);
  Alcotest.(check bool) "several variables" true (r.Oracle.vars >= 4);
  Alcotest.(check bool) "fuel sufficed" false r.Oracle.out_of_fuel

let prop_random_programs_verify =
  Helpers.qtest ~count:100 "random programs verify structurally clean"
    Gen.gen_program (fun p ->
      let lower = Ir.Lower.lower p in
      let ssa = Ir.Ssa.of_program p in
      match
        List.filter
          (fun (d : Diag.t) -> d.Diag.severity <> Diag.Info)
          (Structural.check_ir ~lower ssa)
      with
      | [] -> true
      | d :: _ ->
        QCheck2.Test.fail_reportf "program:\n%s\nfinding: %s"
          (Ir.Ast.to_string p) (Diag.to_string d))

(* ---------- rendering ---------- *)

let test_json_rendering_parses () =
  match Check.run ~iters:10 (fig9 ()) with
  | Error e -> Alcotest.fail e
  | Ok report -> (
    let json = Check.to_json report in
    match Obs.Json.parse_result json with
    | Error e -> Alcotest.failf "JSON does not parse: %s\n%s" e json
    | Ok j ->
      Alcotest.(check bool) "has errors field" true
        (Obs.Json.member "errors" j <> None);
      Alcotest.(check bool) "has parts field" true
        (Obs.Json.member "parts" j <> None))

(* ---------- the engine: verify passes are cached ---------- *)

let bounded = "i = 0\nT: loop\n  i = i + 1\n  if i > 10 exit\nendloop\n"

let stat e pass =
  match
    List.find_opt (fun (p, _, _) -> p = pass) (Engine.pass_stats e)
  with
  | Some (_, hits, misses) -> (hits, misses)
  | None -> Alcotest.failf "pass %s not in pass_stats" pass

let test_engine_caches_verify_parts () =
  let e = Engine.create () in
  let r1 = Engine.check e bounded in
  let report =
    match r1 with Ok r -> r | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "clean" 0 (Check.errors report);
  let passes = Engine.passes_report e bounded in
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (pass ^ " recorded on the source")
        true
        (Helpers.contains passes (Printf.sprintf "%-14s forced engine" pass)))
    [ "verify_ir"; "verify_class"; "verify_trans" ];
  List.iter
    (fun pass ->
      let hits, misses = stat e pass in
      Alcotest.(check int) (pass ^ " computed once") 1 misses;
      Alcotest.(check int) (pass ^ " no hits yet") 0 hits)
    [ "verify_ir"; "verify_class"; "verify_trans" ];
  let r2 = Engine.check e bounded in
  Alcotest.(check bool) "second reply identical" true (r1 = r2);
  List.iter
    (fun pass ->
      let hits, misses = stat e pass in
      Alcotest.(check int) (pass ^ " still computed once") 1 misses;
      Alcotest.(check int) (pass ^ " served from cache") 1 hits)
    [ "verify_ir"; "verify_class"; "verify_trans" ]

let test_broken_ir_skips_oracle () =
  (* A structurally broken program must not be analyzed, interpreted or
     transformed: the report carries only the structural part. Broken IR
     cannot come from the parser, so build the structural part over
     injected IR and hand it to the assembly Check.run and Engine.check
     share, with thunks that record being forced. *)
  let prog = Ir.Parser.parse bounded in
  let ssa = Ir.Ssa.of_program prog in
  (match Inject.apply Inject.Bad_edge ssa with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  let part = Check.structural_part ssa in
  Alcotest.(check bool) "fault found" true
    (List.exists Diag.is_error part.Check.diags);
  let forced = ref [] in
  let thunk family () =
    forced := family :: !forced;
    { part with Check.family; diags = [] }
  in
  let report =
    Check.assemble
      ~structural:(fun () -> part)
      ~oracle:(thunk "oracle")
      ~ranges:(fun () -> Some (thunk "ranges" ()))
      ~transforms:(thunk "transforms")
  in
  Alcotest.(check (list string)) "structural part alone" [ "structural" ]
    (List.map (fun (p : Check.part) -> p.Check.family) report.Check.parts);
  Alcotest.(check (list string)) "no other part forced" [] !forced

(* ---------- the serve verb ---------- *)

let with_temp_program src f =
  let path = Filename.temp_file "ivtool_verify" ".iv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc;
      f path)

let test_check_verb () =
  with_temp_program bounded (fun path ->
      let e = Engine.create () in
      match Server.handle e ("CHECK " ^ path) with
      | Server.Ok_payload body ->
        Alcotest.(check bool) "structural section" true
          (Helpers.contains body "== structural ==");
        Alcotest.(check bool) "oracle section" true
          (Helpers.contains body "== oracle ==");
        Alcotest.(check bool) "transforms section" true
          (Helpers.contains body "== transforms ==");
        Alcotest.(check bool) "clean summary" true
          (Helpers.contains body "check: 0 errors, 0 warnings,")
      | Server.Err e -> Alcotest.fail e
      | Server.Bye -> Alcotest.fail "unexpected BYE")

(* ---------- one integer semantics ---------- *)

let traps_dir = Filename.concat (Filename.dirname corpus_dir) "traps"

(* examples/traps holds three programs at the edge of the
   native range, 2 ^ 100 and a zero divisor. Each run traps, and checked
   mode compares each run up to its trap: no errors, and the
   transform differentials are skipped because the original trapped. *)
let test_trap_programs_check_clean () =
  let traps = corpus_in traps_dir in
  Alcotest.(check int) "five reproducers" 5 (List.length traps);
  List.iter
    (fun (f, src) ->
      let st = Ir.Interp.run (Ir.Ssa.of_source src) in
      Alcotest.(check bool) (f ^ ": run traps") true
        (match st.Ir.Interp.outcome with Ir.Interp.Trapped _ -> true | _ -> false);
      match Check.run src with
      | Ok r ->
        Alcotest.(check int) (f ^ ": errors") 0 (Check.errors r);
        Alcotest.(check bool) (f ^ ": differential skipped") true
          (Helpers.contains (Check.to_text r) "the original trapped")
      | Error e -> Alcotest.failf "%s: %s" f e)
    traps;
  with_temp_program (List.assoc "div_zero.iv" traps) (fun path ->
      match Server.handle (Engine.create ()) ("CHECK " ^ path) with
      | Server.Ok_payload body ->
        Alcotest.(check bool) "CHECK answers clean" true
          (Helpers.contains body "check: 0 errors, 0 warnings,")
      | Server.Err e -> Alcotest.fail e
      | Server.Bye -> Alcotest.fail "unexpected BYE")

(* Hostile constants: Corpus.Gen programs with a share of their
   literals and loop steps moved next to max_int and min_int. A run
   either traps or computes over Z, so checked mode stays clean. *)
let hostile (p : Ir.Ast.program) =
  let k = ref 0 in
  let pick n =
    incr k;
    match (!k * 7 + abs n) mod 5 with
    | 0 -> max_int - abs n
    | 1 -> -max_int + abs n
    | 2 -> (max_int / 2) + n
    | _ -> n
  in
  let open Ir.Ast in
  let rec expr = function
    | Int n -> Int (pick n)
    | Var _ as e -> e
    | Aref (a, es) -> Aref (a, List.map expr es)
    | Binop (op, a, b) -> Binop (op, expr a, expr b)
    | Neg e -> Neg (expr e)
  in
  let cond = function Cmp (op, a, b) -> Cmp (op, expr a, expr b) | Unknown -> Unknown in
  let rec stmt = function
    | Assign (x, e) -> Assign (x, expr e)
    | Astore (a, es, e) -> Astore (a, List.map expr es, expr e)
    | If (c, t, e) -> If (cond c, List.map stmt t, List.map stmt e)
    | Loop (name, body) -> Loop (name, List.map stmt body)
    | For f ->
      let step = pick f.step in
      For
        {
          f with
          lo = expr f.lo;
          hi = expr f.hi;
          step = (if step = 0 then 1 else step);
          body = List.map stmt f.body;
        }
    | Exit_if c -> Exit_if (cond c)
  in
  { p with stmts = List.map stmt p.stmts }

let prop_hostile_constants_check_clean =
  Helpers.qtest ~count:300 "hostile constants check clean" Gen.gen_program
    (fun p ->
      let src = Ir.Ast.to_string (hostile p) in
      match Check.run src with
      | Ok r when Check.errors r = 0 -> true
      | Ok r -> QCheck2.Test.fail_reportf "%s\n%s" src (Check.to_text r)
      | Error e -> QCheck2.Test.fail_reportf "%s\n%s" src e)

(* ---------- one report, two callers ---------- *)

(* Check.run (no engine) and Engine.check (cached parts) assemble the
   same report: byte-identical text and JSON over both checked-in
   corpora, through one engine so cached parts are shared too. *)
let test_run_matches_engine () =
  let e = Engine.create () in
  List.iter
    (fun (f, src) ->
      match (Check.run src, Engine.check e src) with
      | Ok standalone, Ok engine ->
        Alcotest.(check string) (f ^ ": text") (Check.to_text standalone)
          (Check.to_text engine);
        Alcotest.(check string) (f ^ ": json") (Check.to_json standalone)
          (Check.to_json engine)
      | Error a, Error b -> Alcotest.(check string) (f ^ ": error") a b
      | Ok _, Error e | Error e, Ok _ -> Alcotest.failf "%s: only one side failed: %s" f e)
    (corpus () @ corpus_in (Filename.concat (Filename.dirname corpus_dir) "incremental"))

let suite =
  ( "verify",
    [
      Helpers.case "injected faults produce golden diagnostics"
        test_injected_faults;
      Helpers.case "clean fixture has no findings"
        test_clean_fixture_has_no_findings;
      Helpers.case "examples corpus checks clean" test_corpus_checks_clean;
      Helpers.case "oracle reaches 64 iterations" test_oracle_depth;
      prop_random_programs_verify;
      Helpers.case "JSON rendering parses" test_json_rendering_parses;
      Helpers.case "engine caches verify parts" test_engine_caches_verify_parts;
      Helpers.case "broken IR is caught before interpretation"
        test_broken_ir_skips_oracle;
      Helpers.case "CHECK serve verb" test_check_verb;
      Helpers.case "unreachable tail checks clean"
        test_unreachable_tail_checks_clean;
      Helpers.case "standalone and engine reports agree"
        test_run_matches_engine;
      Helpers.case "trap programs check clean" test_trap_programs_check_clean;
      prop_hostile_constants_check_clean;
    ] )
