(* The bench gate: compare two BENCH_*.json files row by row and fail
   (exit 3 in `ivtool bench-diff`) when a counter moved.

   The differ is generic over this repo's bench JSON shape — a
   top-level object whose array members ("runs", "rows") hold rows of
   scalar fields. A row's identity is its string and bool fields; every
   numeric field is a counter. Every counter the benches emit is
   deterministic (cache, store and unit hits, passes run, minor words
   at one domain, precision counts), so any move of more than
   [tolerance_pct] in either direction is a regression: a change that
   moves a counter on purpose updates the baseline in the same diff. A
   baseline row or counter missing from the new file is a regression
   too, so renaming or dropping a counter cannot pass silently. *)

let tolerance_pct = 1.0

type delta = {
  section : string;
  row_key : string;
  field : string;
  old_v : float;
  new_v : float;
  regression : bool;
}

type report = {
  deltas : delta list;
  missing : string list;
  notes : string list;
  regressions : int;
}

let render_scalar = function
  | Obs.Json.Str s -> Some s
  | Obs.Json.Bool b -> Some (string_of_bool b)
  | _ -> None

let row_identity fields =
  fields
  |> List.filter_map (fun (k, v) ->
         Option.map (fun s -> (k, s)) (render_scalar v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v)
  |> String.concat " "

let counters fields =
  List.filter_map
    (fun (k, v) -> match v with Obs.Json.Num n -> Some (k, n) | _ -> None)
    fields

(* Every comparable (section, row key, counters) triple of a bench
   file: the top-level numeric scalars as one synthetic row, then each
   array-of-objects member as a section. *)
let rows_of json =
  match json with
  | Obs.Json.Obj members ->
    let sections =
      List.concat_map
        (fun (k, v) ->
          match v with
          | Obs.Json.List elems ->
            List.filter_map
              (function
                | Obs.Json.Obj fields ->
                  Some (k, row_identity fields, counters fields)
                | _ -> None)
              elems
          | _ -> [])
        members
    in
    Ok (("(top)", "", counters members) :: sections)
  | _ -> Error "top level is not an object"

let where section row_key =
  if row_key = "" then section else Printf.sprintf "%s[%s]" section row_key

let compare_parsed old_json new_json =
  match (rows_of old_json, rows_of new_json) with
  | Error e, _ -> Error ("old: " ^ e)
  | _, Error e -> Error ("new: " ^ e)
  | Ok old_rows, Ok new_rows ->
    let find rows (section, row_key) =
      List.find_map
        (fun (s, k, fields) ->
          if s = section && k = row_key then Some fields else None)
        rows
    in
    let missing = ref [] and deltas = ref [] in
    List.iter
      (fun (section, row_key, old_fields) ->
        match find new_rows (section, row_key) with
        | None ->
          missing := Printf.sprintf "row %s" (where section row_key) :: !missing
        | Some new_fields ->
          List.iter
            (fun (field, old_v) ->
              match List.assoc_opt field new_fields with
              | None ->
                missing :=
                  Printf.sprintf "field %s.%s" (where section row_key) field
                  :: !missing
              | Some new_v ->
                let regression =
                  Float.abs (new_v -. old_v)
                  > Float.abs old_v *. tolerance_pct /. 100.0
                in
                deltas :=
                  { section; row_key; field; old_v; new_v; regression }
                  :: !deltas)
            old_fields)
      old_rows;
    let notes =
      List.filter_map
        (fun (section, row_key, _) ->
          match find old_rows (section, row_key) with
          | None -> Some (Printf.sprintf "row only in new: %s" (where section row_key))
          | Some _ -> None)
        new_rows
    in
    let deltas =
      List.sort
        (fun a b ->
          Stdlib.compare (a.section, a.row_key, a.field)
            (b.section, b.row_key, b.field))
        !deltas
    in
    let missing = List.sort String.compare !missing in
    Ok
      {
        deltas;
        missing;
        notes = List.sort String.compare notes;
        regressions =
          List.length missing
          + List.length (List.filter (fun d -> d.regression) deltas);
      }

let compare ~old_json ~new_json =
  match (Obs.Json.parse_result old_json, Obs.Json.parse_result new_json) with
  | Error e, _ -> Error ("old: not valid JSON: " ^ e)
  | _, Error e -> Error ("new: not valid JSON: " ^ e)
  | Ok o, Ok n -> compare_parsed o n

let to_string r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      if d.old_v <> d.new_v then begin
        let pct =
          if d.old_v = 0.0 then "   n/a"
          else Printf.sprintf "%+6.1f%%" ((d.new_v -. d.old_v) /. Float.abs d.old_v *. 100.0)
        in
        Buffer.add_string buf
          (Printf.sprintf "%-52s %-24s %14g -> %-14g %s%s\n"
             (where d.section d.row_key) d.field d.old_v d.new_v pct
             (if d.regression then "  REGRESSION" else ""))
      end)
    r.deltas;
  List.iter
    (fun m ->
      Buffer.add_string buf (Printf.sprintf "missing from new: %s  REGRESSION\n" m))
    r.missing;
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n)) r.notes;
  Buffer.add_string buf
    (Printf.sprintf "bench-diff: %d counters compared, %d regression%s (tolerance %g%%)\n"
       (List.length r.deltas) r.regressions
       (if r.regressions = 1 then "" else "s")
       tolerance_pct);
  Buffer.contents buf
