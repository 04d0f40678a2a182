(* Checked-mode report assembly and rendering. *)

module Diag = Ir.Diag

type part = {
  family : string;
  note : string;
  checks : int;
  diags : Ir.Diag.t list;
}

type report = { parts : part list }

let structural_part ?lower (ssa : Ir.Ssa.t) : part =
  let diags = Structural.check_ir ?lower ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let count_cfg c = Ir.Cfg.num_instrs c + Ir.Cfg.num_blocks c in
  let checks =
    count_cfg cfg
    + Ir.Loops.num_loops (Ir.Ssa.loops ssa)
    + (match lower with Some c -> count_cfg c | None -> 0)
  in
  let note =
    Printf.sprintf "%d instructions, %d blocks, %d loops%s"
      (Ir.Cfg.num_instrs cfg) (Ir.Cfg.num_blocks cfg)
      (Ir.Loops.num_loops (Ir.Ssa.loops ssa))
      (match lower with
       | Some c -> Printf.sprintf " (+ lowered CFG: %d blocks)" (Ir.Cfg.num_blocks c)
       | None -> "")
  in
  { family = "structural"; note; checks; diags }

(* Two fixed valuations so a classification that only holds for one
   accidental input is still caught. Everything here is deterministic —
   parameter values derive from the variable's name, the '??' streams
   from fixed seeds — so the rendered report is byte-stable across runs
   and worker domains (the batch determinism CI step diffs it). *)
let valuation ~base ~modulus x =
  let name = Ir.Ident.name x in
  let sum = ref 0 in
  String.iter (fun c -> sum := !sum + Char.code c) name;
  base + (!sum mod modulus)

let oracle_runs =
  [
    ("run-a", (fun x -> valuation ~base:70 ~modulus:37 x), 7);
    ("run-b", (fun x -> valuation ~base:2 ~modulus:5 x), 23);
  ]

let oracle_part ?(iters = 100) (t : Analysis.Pipeline.analysis) : part =
  let results =
    List.map
      (fun (tag, params, seed) ->
        let state = Random.State.make [| seed |] in
        Oracle.check ~iters ~fuel:200_000 ~params
          ~rand:(fun () -> Random.State.bool state)
          ~tag t)
      oracle_runs
  in
  let diags = List.concat_map (fun (r : Oracle.result) -> r.Oracle.diags) results in
  let checked = List.fold_left (fun a (r : Oracle.result) -> a + r.Oracle.checked) 0 results in
  let vars =
    List.fold_left (fun a (r : Oracle.result) -> max a r.Oracle.vars) 0 results
  in
  let max_h =
    List.fold_left (fun a (r : Oracle.result) -> max a r.Oracle.max_h) 0 results
  in
  let note =
    Printf.sprintf "%d runs, N=%d: %d predictions over %d variables, max h=%d"
      (List.length results) iters checked vars max_h
  in
  { family = "oracle"; note; checks = checked; diags }

let ranges_part ?(iters = 100) (t : Analysis.Pipeline.analysis)
    (r : Analysis.Range.t) : part =
  let results =
    List.map
      (fun (tag, params, seed) ->
        let state = Random.State.make [| seed |] in
        Range_oracle.check ~iters ~fuel:200_000 ~params
          ~rand:(fun () -> Random.State.bool state)
          ~tag t r)
      oracle_runs
  in
  let diags =
    List.concat_map (fun (x : Range_oracle.result) -> x.Range_oracle.diags) results
  in
  let checked =
    List.fold_left
      (fun a (x : Range_oracle.result) -> a + x.Range_oracle.checked)
      0 results
  in
  let vars =
    List.fold_left
      (fun a (x : Range_oracle.result) -> max a x.Range_oracle.vars)
      0 results
  in
  let max_h =
    List.fold_left
      (fun a (x : Range_oracle.result) -> max a x.Range_oracle.max_h)
      0 results
  in
  let note =
    Printf.sprintf "%d runs, N=%d: %d interval checks over %d defs, max h=%d"
      (List.length results) iters checked vars max_h
  in
  { family = "ranges"; note; checks = checked; diags }

let transform_part ?fuel (p : Ir.Ast.program) : part =
  let r = Transforms.check ?fuel p in
  let note =
    Printf.sprintf "%d transforms validated, %d array cells compared"
      r.Transforms.transforms r.Transforms.cells
  in
  {
    family = "transforms";
    note;
    checks = r.Transforms.transforms + r.Transforms.cells;
    diags = r.Transforms.diags;
  }

let all_diags r = List.concat_map (fun p -> p.diags) r.parts
let errors r = fst (Diag.count (all_diags r))
let warnings r = snd (Diag.count (all_diags r))
let checks r = List.fold_left (fun a p -> a + p.checks) 0 r.parts

let part_to_text p =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "== %s ==\n%s\n" p.family p.note);
  (match p.diags with
   | [] -> Buffer.add_string buf "ok\n"
   | diags ->
     List.iter
       (fun d -> Buffer.add_string buf (Diag.to_string d ^ "\n"))
       diags);
  Buffer.contents buf

let to_text r =
  String.concat "" (List.map part_to_text r.parts)
  ^ Printf.sprintf "check: %d errors, %d warnings, %d checks\n" (errors r)
      (warnings r) (checks r)

(* -- JSON (hand-rendered; strings escape through Obs.Json) -- *)

let diag_to_json (d : Diag.t) =
  Printf.sprintf
    {|{"severity":"%s","code":%s,"origin":%s,"loc":%s,"message":%s}|}
    (Diag.severity_to_string d.Diag.severity)
    (Obs.Json.escape d.Diag.code) (Obs.Json.escape d.Diag.origin)
    (Obs.Json.escape (Diag.location_to_string d.Diag.loc))
    (Obs.Json.escape d.Diag.message)

let part_to_json p =
  Printf.sprintf {|{"family":%s,"note":%s,"checks":%d,"diagnostics":[%s]}|}
    (Obs.Json.escape p.family) (Obs.Json.escape p.note) p.checks
    (String.concat "," (List.map diag_to_json p.diags))

let to_json r =
  Printf.sprintf {|{"errors":%d,"warnings":%d,"checks":%d,"parts":[%s]}|}
    (errors r) (warnings r) (checks r)
    (String.concat "," (List.map part_to_json r.parts))
  ^ "\n"

let run ?iters src =
  match Ir.Parser.parse_result src with
  | Error e -> Error e
  | Ok prog ->
    let lower = Ir.Lower.lower prog in
    let ssa = Ir.Ssa.of_program prog in
    let structural = structural_part ~lower ssa in
    (* Only analyze (and interpret) structurally sound programs. *)
    if List.exists Diag.is_error structural.diags then
      Ok { parts = [ structural ] }
    else
      let t = Analysis.Pipeline.analyze ssa in
      let r = Analysis.Pipeline.range_of t in
      Ok
        {
          parts =
            [
              structural;
              oracle_part ?iters t;
              ranges_part ?iters t r;
              transform_part prog;
            ];
        }
