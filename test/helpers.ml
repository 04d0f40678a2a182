(* Shared helpers for the test suites. *)

module Pipeline = Analysis.Pipeline
module Ivclass = Analysis.Ivclass
module Sym = Analysis.Sym

let analyze src = Pipeline.analyze (Ir.Ssa.of_source src)

let class_str t name =
  match Pipeline.class_of_name t name with
  | Some c -> Pipeline.class_to_string t c
  | None -> "<no such name>"

(* [check_class t name expected] compares a classification's rendered
   tuple against the expected string (the notation of the paper). *)
let check_class t name expected =
  Alcotest.(check string) name expected (class_str t name)

let check_classes src expectations =
  let t = analyze src in
  List.iter (fun (name, expected) -> check_class t name expected) expectations

(* ---------- the classification soundness oracle ----------

   Thin wrapper over the production oracle ({!Verify.Oracle}, which this
   helper pioneered): interpret, and at every instruction execution
   check the classification's prediction against the observed value.
   Failures come back as rendered diagnostic strings. *)

let oracle_check ?fuel ?params ?rand ?arrays src =
  let ssa = Ir.Ssa.of_source src in
  (match Ir.Ssa.check ssa with
   | [] -> ()
   | errs ->
     Alcotest.failf "SSA invariant violations: %s"
       (String.concat "; " (List.map Ir.Diag.to_string errs)));
  let t = Pipeline.analyze ssa in
  let r =
    Verify.Oracle.check ~max_diags:max_int ?fuel ?params ?rand ?arrays
      Verify.Oracle.Classes t
  in
  (r.Verify.Oracle.checked, List.map Ir.Diag.to_string r.Verify.Oracle.diags)

(* [oracle src] asserts every prediction matched. *)
let oracle ?fuel ?params ?rand ?arrays src =
  let checked, failures = oracle_check ?fuel ?params ?rand ?arrays src in
  (match failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "oracle: %d failures, first: %s" (List.length failures) f);
  checked

(* [oracle_min src n] additionally requires at least [n] checked
   predictions (guarding against vacuous passes). *)
let oracle_min ?fuel ?params ?rand ?arrays src n =
  let checked = oracle ?fuel ?params ?rand ?arrays src in
  if checked < n then
    Alcotest.failf "oracle made only %d checks (expected at least %d)" checked n

(* ---------- misc ---------- *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let case name f = Alcotest.test_case name `Quick f

(* [contains s sub] — naive substring search, for diagnostics checks. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let found = ref false in
    for i = 0 to n - m do
      if (not !found) && String.sub s i m = sub then found := true
    done;
    !found
  end

(* Final array contents of a run that halts — the semantic footprint
   used to validate transformations; [None] when the run runs out of
   fuel or traps. *)
let halted_footprint ?(fuel = 200_000) ?(params = fun _ -> 0)
    ?(rand = fun () -> false) ?(arrays = []) ssa =
  let st = Ir.Interp.run ~fuel ~params ~rand ~arrays ssa in
  match st.Ir.Interp.outcome with
  | Ir.Interp.Halted ->
    Some
      (Hashtbl.fold
         (fun (a, idx) v acc -> (Ir.Ident.name a, idx, v) :: acc)
         st.Ir.Interp.arrays []
      |> List.sort compare)
  | Ir.Interp.Out_of_fuel | Ir.Interp.Trapped _ -> None

(* The footprint of a run that must halt. *)
let ssa_footprint ?fuel ?params ?rand ?arrays ssa =
  match halted_footprint ?fuel ?params ?rand ?arrays ssa with
  | Some cells -> cells
  | None -> Alcotest.fail "interpreter did not halt (out of fuel or trapped)"

let array_footprint ?fuel ?params ?rand ?arrays ast =
  ssa_footprint ?fuel ?params ?rand ?arrays (Ir.Ssa.of_program ast)

(* The footprint property of a rewrite: runs are compared only where the
   original halts, and the rewritten program must then halt with the
   same cells (a trap of its own is a divergence). *)
let preserves before after =
  match before with None -> true | Some _ -> after = before

(* ---------- many-nest files ----------

   [nest_program ~seed ~nests] concatenates [nests] {!Corpus.Gen}
   programs (program [k] drawn from seed [(seed, k)]), with every loop
   and array of program [k] renamed to names of its own so that nests
   share no label and no array. Scalars stay shared, as in an edited
   file of sequential nests. *)
let rename_nest k stmts =
  let j = ref 0 in
  let fresh () =
    incr j;
    Printf.sprintf "N%dL%d" k !j
  in
  let arr = Ir.Ident.of_string (Printf.sprintf "a%d" k) in
  let open Ir.Ast in
  let rec e = function
    | Aref (_, es) -> Aref (arr, List.map e es)
    | Binop (o, a, b) -> Binop (o, e a, e b)
    | Neg x -> Neg (e x)
    | (Int _ | Var _) as x -> x
  in
  let c = function Cmp (o, a, b) -> Cmp (o, e a, e b) | Unknown -> Unknown in
  let rec stmt = function
    | For l ->
      let name = fresh () in
      For { l with name; lo = e l.lo; hi = e l.hi; body = List.map stmt l.body }
    | Loop (_, b) ->
      let name = fresh () in
      Loop (name, List.map stmt b)
    | If (cd, t, f) -> If (c cd, List.map stmt t, List.map stmt f)
    | Assign (v, x) -> Assign (v, e x)
    | Astore (_, es, x) -> Astore (arr, List.map e es, e x)
    | Exit_if cd -> Exit_if (c cd)
  in
  List.map stmt stmts

let nest_program ~seed ~nests =
  {
    Ir.Ast.decls = [];
    stmts =
      List.concat
        (List.init nests (fun k ->
             rename_nest k
               (Corpus.Gen.program (Random.State.make [| seed; k |])).Ir.Ast.stmts));
  }

(* One 64-nest file, converted once and shared by the properties that
   check the IR's tables on a large input. *)
let nest_ssa = lazy (Ir.Ssa.of_program (nest_program ~seed:64 ~nests:64))
