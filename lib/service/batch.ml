type item = { name : string; source : string }

let ensure_nl s =
  if s = "" || s.[String.length s - 1] = '\n' then s else s ^ "\n"

let report ?pool engine ~artifacts item =
  match artifacts with
  | [] -> invalid_arg "Batch.report: no artifacts requested"
  | [ a ] -> Result.map ensure_nl (Engine.render ?pool engine a item.source)
  | artifacts ->
    let rec go buf = function
      | [] -> Ok (Buffer.contents buf)
      | a :: rest -> (
        match Engine.render ?pool engine a item.source with
        | Error msg -> Error msg
        | Ok text ->
          Buffer.add_string buf
            (Printf.sprintf "-- %s --\n" (Engine.artifact_to_string a));
          Buffer.add_string buf (ensure_nl text);
          go buf rest)
    in
    go (Buffer.create 256) artifacts

let run ?timeout_s ?(passes = 1) ?pool ~domains ~engine ~artifacts items =
  let metrics = Engine.metrics engine in
  let depth = Metrics.gauge metrics "pool.queue_depth" in
  let items_counter = Metrics.counter metrics "batch.items" in
  let passes_counter = Metrics.counter metrics "batch.passes" in
  let arr = Array.of_list items in
  (* With a resident pool the spawn already happened; [domains] is
     advisory only (the pool's own size governs). Without one, a
     temporary pool of [domains] workers spans every pass (one worker
     spawns nothing and runs inline). Either way the pool reaches the
     engine through [report], so each item's per-unit classification
     walk forks onto the scheduler — units, not files, are the
     stealable tasks, and a single large file no longer serializes a
     domain (nor a single-item batch the whole pool). *)
  let with_pool k =
    match pool with
    | Some p -> k p
    | None ->
      let p = Pool.create ~domains ~metrics () in
      Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> k p)
  in
  with_pool @@ fun pool ->
  let one_pass p =
    Metrics.incr passes_counter;
    Metrics.incr ~by:(Array.length arr) items_counter;
    Obs.Trace.with_span ~cat:"batch"
      ~attrs:
        [ ("pass", Obs.Trace.Int p);
          ("items", Obs.Trace.Int (Array.length arr));
          ("domains", Obs.Trace.Int (Pool.size pool)) ]
      "batch.pass"
      (fun () ->
        Pool.run ?timeout_s ~queue_depth:(Metrics.set_gauge depth) ~metrics pool
          (fun item ->
            Obs.Trace.with_span ~cat:"batch"
              ~attrs:[ ("file", Obs.Trace.Str item.name) ]
              "batch.item"
              (fun () -> report ~pool engine ~artifacts item))
          arr)
  in
  let total = max 1 passes in
  let rec go n last = if n <= 0 then last else go (n - 1) (one_pass (total - n + 1)) in
  let outcomes = go total [||] in
  List.mapi
    (fun i item ->
      let result =
        match outcomes.(i) with
        | Pool.Done r -> r
        | o -> ( match Pool.to_result o with Ok r -> r | Error msg -> Error msg)
      in
      (item, result))
    items
