(* Classification provenance reports: classify the engine pipeline's
   SSA afresh ([Pipeline.analyze]; a cached classification would emit no
   events) under a fresh collector and replay the per-SCR provenance
   events (category "provenance", one per strongly-connected region,
   emitted by Analysis.Classify in Tarjan emission order) as a readable
   report, followed by a ranges section — the per-def interval table
   plus the bounds-check classification it licenses. *)

let attr (e : Obs.Trace.event) key =
  Option.map Obs.Trace.attr_to_string (List.assoc_opt key e.Obs.Trace.ev_attrs)

let str e key = Option.value ~default:"?" (attr e key)

let members e = String.split_on_char ',' (str e "members")

let mentions v e = List.mem v (members e)

let provenance_events events =
  List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.ev_cat = "provenance") events

(* [report ?var events] renders the provenance events, grouped by loop
   in event order; with [var], only SCRs containing that SSA name. *)
let report ?var events =
  let selected =
    match var with
    | None -> provenance_events events
    | Some v -> List.filter (mentions v) (provenance_events events)
  in
  let buf = Buffer.create 512 in
  let current_loop = ref "" in
  List.iter
    (fun e ->
      let loop = str e "loop" in
      if loop <> !current_loop then begin
        current_loop := loop;
        Buffer.add_string buf (Printf.sprintf "== loop %s ==\n" loop)
      end;
      Buffer.add_string buf
        (Printf.sprintf "scr {%s}  shape: %s\n"
           (String.concat ", " (members e))
           (str e "shape"));
      Buffer.add_string buf (Printf.sprintf "  rule: %s\n" (str e "rule"));
      List.iter
        (fun name ->
          match attr e ("class." ^ name) with
          | Some c -> Buffer.add_string buf (Printf.sprintf "  %-8s %s\n" name c)
          | None -> ())
        (members e))
    selected;
  Buffer.contents buf

(* The provenance events as a JSON array of SCR objects. *)
let scrs_to_json ?var events =
  let selected =
    match var with
    | None -> provenance_events events
    | Some v -> List.filter (mentions v) (provenance_events events)
  in
  let scr e =
    let classes =
      List.filter_map
        (fun name ->
          Option.map
            (fun c ->
              Obs.Json.escape name ^ ":" ^ Obs.Json.escape c)
            (attr e ("class." ^ name)))
        (members e)
    in
    Printf.sprintf
      {|{"loop":%s,"members":[%s],"shape":%s,"rule":%s,"classes":{%s}}|}
      (Obs.Json.escape (str e "loop"))
      (String.concat "," (List.map Obs.Json.escape (members e)))
      (Obs.Json.escape (str e "shape"))
      (Obs.Json.escape (str e "rule"))
      (String.concat "," classes)
  in
  "[" ^ String.concat "," (List.map scr selected) ^ "]"

(* The ranges section: interval table plus, when the program declares
   array extents, the bounds-check classification. The range analysis
   and the AST are read from the engine's pipeline [p] for [src]. *)
let ranges_parts engine p src =
  match
    (Engine.analyze engine src, Analysis.Pipeline.ranges p, Analysis.Pipeline.parse p)
  with
  | Ok t, Ok r, Ok prog ->
    let bounds =
      if prog.Ir.Ast.decls = [] then None
      else Some (Transform.Bounds_elim.analyze r t.Analysis.Pipeline.ssa prog)
    in
    Some (r, bounds)
  | Error _, _, _ | _, Error _, _ | _, _, Error _ -> None

(* [run ?var ?json engine src] — classify [src] (through the engine, so
   cache options apply) and return the provenance report with the
   ranges section appended. [Error] when the program fails to
   parse/analyze, or when [var] matches no SCR. *)
let run ?var ?(json = false) engine src =
  let p = Engine.pipeline engine src in
  let use_sccp = (Analysis.Pipeline.options p).Analysis.Pipeline.use_sccp in
  let result, t =
    Obs.Trace.collect (fun () ->
        Result.map
          (Analysis.Pipeline.analyze ~use_sccp)
          (Analysis.Pipeline.ssa p))
  in
  match result with
  | Error msg -> Error msg
  | Ok _ -> (
    let events = Obs.Trace.events t in
    match var with
    | Some v when not (List.exists (mentions v) (provenance_events events)) ->
      Error (Printf.sprintf "no classification event mentions %S" v)
    | _ ->
      let ranges = ranges_parts engine p src in
      if json then begin
        let buf = Buffer.create 512 in
        Buffer.add_string buf "{\"scrs\":";
        Buffer.add_string buf (scrs_to_json ?var events);
        (match ranges with
         | Some (r, bounds) ->
           Buffer.add_string buf ",\"ranges\":";
           Buffer.add_string buf (Analysis.Range.to_json r);
           (match bounds with
            | Some (s : Transform.Bounds_elim.summary) ->
              Buffer.add_string buf
                (Printf.sprintf
                   {|,"bounds":{"eliminated":%d,"retained":%d,"skipped":%d}|}
                   s.Transform.Bounds_elim.eliminated
                   s.Transform.Bounds_elim.retained
                   s.Transform.Bounds_elim.skipped)
            | None -> ())
         | None -> ());
        Buffer.add_string buf "}\n";
        Ok (Buffer.contents buf)
      end
      else begin
        let buf = Buffer.create 512 in
        Buffer.add_string buf (report ?var events);
        (match ranges with
         | Some (r, bounds) ->
           Buffer.add_string buf "== ranges ==\n";
           Buffer.add_string buf (Analysis.Range.report r);
           (match bounds with
            | Some s ->
              Buffer.add_string buf (Transform.Bounds_elim.report s)
            | None -> ())
         | None -> ());
        Ok (Buffer.contents buf)
      end)
