(* Line-delimited protocol driver. Replies are byte-counted so clients
   can frame multi-line payloads without sentinels. *)

type reply = Ok_payload of string | Err of string | Bye

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_file path f =
  match read_file path with
  | src -> f src
  | exception Sys_error msg -> Err msg

let artifact_reply ?pool engine artifact path =
  with_file path (fun src ->
      match Engine.render ?pool engine artifact src with
      | Ok text -> Ok_payload text
      | Error msg -> Err msg)

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, None)
  | Some i ->
    let arg = String.trim (String.sub line i (String.length line - i)) in
    (String.sub line 0 i, (if arg = "" then None else Some arg))

let handle ?pool engine line =
  let line = String.trim line in
  match split_command line with
  | "", None -> Err "empty request"
  | "QUIT", None -> Bye
  | "STATS", None -> Ok_payload (Engine.stats_report engine)
  | "METRICS", None -> Ok_payload (Engine.prometheus_report engine)
  | "PASSES", Some path ->
    with_file path (fun src -> Ok_payload (Engine.passes_report engine src))
  | "BATCH", Some args -> (
    match List.filter (fun s -> s <> "") (String.split_on_char ' ' args) with
    | [] | [ _ ] -> Err "BATCH needs an artifact and at least one file"
    | art :: paths -> (
      match Engine.artifact_of_string art with
      | None -> Err ("unknown artifact " ^ art)
      | Some artifact -> (
        let items =
          List.fold_left
            (fun acc path ->
              match acc with
              | Error _ as e -> e
              | Ok items -> (
                match read_file path with
                | src -> Ok ({ Batch.name = path; source = src } :: items)
                | exception Sys_error msg -> Error msg))
            (Ok []) paths
        in
        match items with
        | Error msg -> Err msg
        | Ok items ->
          let items = List.rev items in
          let domains = match pool with Some p -> Pool.size p | None -> 1 in
          let results =
            Batch.run ?pool ~domains ~engine ~artifacts:[ artifact ] items
          in
          let buf = Buffer.create 1024 in
          List.iter
            (fun ((item : Batch.item), r) ->
              Buffer.add_string buf (Printf.sprintf "== %s ==\n" item.Batch.name);
              match r with
              | Ok text -> Buffer.add_string buf text
              | Error msg -> Buffer.add_string buf ("error: " ^ msg ^ "\n"))
            results;
          Ok_payload (Buffer.contents buf))))
  | "TRACE", None -> (
    (* Drain whatever the ambient collector holds since the last TRACE
       (or since startup) as a Chrome trace-event JSON document. *)
    match Obs.Trace.current () with
    | None -> Err "tracing is not enabled in this server"
    | Some t ->
      let spans, events = Obs.Trace.drain t in
      Ok_payload (Obs.Export_chrome.render_parts spans events))
  | "RESET", None ->
    Engine.clear engine;
    Ok_payload "reset\n"
  | "PERSIST", None -> (
    (* Store status: root, live counters, and on-disk usage. *)
    match Engine.store engine with
    | None -> Ok_payload "no store attached\n"
    | Some s ->
      let entries, bytes = Store.Disk.usage s in
      Ok_payload
        (Printf.sprintf "store %s: %s entries=%d bytes=%d\n" (Store.Disk.root s)
           (Store.Disk.stats_to_string (Store.Disk.stats s))
           entries bytes))
  | "PERSIST", Some "off" ->
    let had = Engine.store engine <> None in
    Engine.set_store engine None;
    Ok_payload (if had then "store detached\n" else "no store attached\n")
  | "PERSIST", Some dir -> (
    match Store.Disk.open_store ~root:dir () with
    | Ok s ->
      Engine.set_store engine (Some s);
      Ok_payload (Printf.sprintf "store attached %s\n" (Store.Disk.root s))
    | Error msg -> Err msg)
  | "INVALIDATE", Some path ->
    with_file path (fun src ->
        Ok_payload (Printf.sprintf "invalidated %d\n" (Engine.invalidate engine src)))
  | "REANALYZE", Some path ->
    (* Re-read an updated source and classify it through the unit
       layer: unchanged loop nests reuse their cached artifacts. *)
    with_file path (fun src ->
        match Engine.reanalyze ?pool engine src with
        | Ok text -> Ok_payload text
        | Error msg -> Err msg)
  | (("CLASSIFY" | "DEPS" | "TRIP" | "CHECK" | "RANGES") as cmd), Some path ->
    let artifact =
      match cmd with
      | "CLASSIFY" -> Engine.Classify
      | "DEPS" -> Engine.Deps
      | "CHECK" -> Engine.Check
      | "RANGES" -> Engine.Ranges
      | _ -> Engine.Trip
    in
    artifact_reply ?pool engine artifact path
  | ( (("CLASSIFY" | "DEPS" | "TRIP" | "CHECK" | "RANGES" | "INVALIDATE"
      | "PASSES" | "BATCH" | "REANALYZE") as cmd),
      None ) ->
    Err (cmd ^ " needs a file argument")
  (* PERSIST with and without argument are both valid, handled above. *)
  | (("QUIT" | "STATS" | "METRICS" | "RESET" | "TRACE") as cmd), Some _ ->
    Err (cmd ^ " takes no argument")
  | cmd, _ -> Err ("unknown command " ^ cmd)

let reply_to_string = function
  | Ok_payload payload ->
    Printf.sprintf "OK %d\n%s" (String.length payload) payload
  | Err msg ->
    (* Keep the reply one line whatever the diagnostic contains. *)
    let msg = String.map (function '\n' | '\r' -> ' ' | c -> c) msg in
    Printf.sprintf "ERR %s\n" msg
  | Bye -> "BYE\n"

let run ?pool engine ic oc =
  let requests = Obs.Instrument.counter (Engine.metrics engine) "server.requests" in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> output_string oc (reply_to_string Bye)
    | line ->
      Obs.Instrument.incr requests;
      let verb, _ = split_command (String.trim line) in
      let reply =
        try
          (* TRACE drains the collector, so its own span would be left
             open inside the payload: serve it unspanned. *)
          if verb = "TRACE" || not (Obs.Trace.enabled ()) then
            handle ?pool engine line
          else
            Obs.Trace.with_span ~cat:"server"
              ~attrs:[ ("verb", Obs.Trace.Str verb) ]
              "server.request"
              (fun () -> handle ?pool engine line)
        with e -> Err (Printexc.to_string e)
      in
      output_string oc (reply_to_string reply);
      flush oc;
      (match reply with Bye -> () | _ -> loop ())
  in
  loop ();
  flush oc
