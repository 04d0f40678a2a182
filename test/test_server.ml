(* Service server: the line protocol, request by request, against a
   real engine and real files on disk. *)

module Engine = Service.Engine
module Server = Service.Server

let with_temp_program src f =
  let path = Filename.temp_file "ivtool_test" ".iv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc;
      f path)

let fig1 = "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n"

let payload = function
  | Server.Ok_payload s -> s
  | Server.Err msg -> Alcotest.fail ("unexpected ERR: " ^ msg)
  | Server.Bye -> Alcotest.fail "unexpected BYE"

let expect_err = function
  | Server.Err msg -> msg
  | Server.Ok_payload s -> Alcotest.fail ("unexpected OK: " ^ s)
  | Server.Bye -> Alcotest.fail "unexpected BYE"

let test_classify_roundtrip () =
  with_temp_program fig1 (fun path ->
      let e = Engine.create () in
      let first = payload (Server.handle e ("CLASSIFY " ^ path)) in
      Alcotest.(check bool) "report mentions the loop" true
        (Helpers.contains first "loop L7");
      let again = payload (Server.handle e ("CLASSIFY " ^ path)) in
      Alcotest.(check string) "second reply identical" first again;
      Alcotest.(check bool) "served from cache" true
        ((Engine.cache_stats e).Service.Cache.hits > 0))

let test_stats_and_reset () =
  with_temp_program fig1 (fun path ->
      let e = Engine.create () in
      ignore (payload (Server.handle e ("TRIP " ^ path)));
      let stats = payload (Server.handle e "STATS") in
      Alcotest.(check bool) "stats name the cache" true
        (Helpers.contains stats "cache:");
      Alcotest.(check bool) "phase timings present" true
        (Helpers.contains stats "phase.parse");
      ignore (payload (Server.handle e "RESET"));
      Alcotest.(check int) "cache emptied" 0 (Engine.cache_stats e).Service.Cache.size)

let test_metrics_verb () =
  with_temp_program fig1 (fun path ->
      let e = Engine.create () in
      ignore (payload (Server.handle e ("CLASSIFY " ^ path)));
      let text = payload (Server.handle e "METRICS") in
      Alcotest.(check bool) "prometheus counters" true
        (Helpers.contains text "# TYPE iv_cache_misses_total counter");
      Alcotest.(check bool) "per-pass labels" true
        (Helpers.contains text "iv_pass_misses_total{pass=\"classify\"}");
      Alcotest.(check bool) "phase histograms" true
        (Helpers.contains text "iv_phase_parse_seconds_count");
      Alcotest.(check bool) "takes no argument" true
        (Helpers.contains
           (expect_err (Server.handle e "METRICS now"))
           "takes no argument"))

let test_errors_and_quit () =
  let e = Engine.create () in
  Alcotest.(check bool) "unknown command" true
    (Helpers.contains (expect_err (Server.handle e "FROB x")) "unknown command");
  Alcotest.(check bool) "missing argument" true
    (Helpers.contains (expect_err (Server.handle e "CLASSIFY")) "file argument");
  Alcotest.(check bool) "missing file" true
    (Result.is_ok
       (match Server.handle e "DEPS /nonexistent/program.iv" with
        | Server.Err _ -> Ok ()
        | _ -> Error ()));
  with_temp_program "x = = 1\n" (fun path ->
      Alcotest.(check bool) "parse diagnostic" true
        (Helpers.contains
           (expect_err (Server.handle e ("CLASSIFY " ^ path)))
           "parse error"));
  (match Server.handle e "QUIT" with
   | Server.Bye -> ()
   | _ -> Alcotest.fail "QUIT should reply BYE")

let test_reply_framing () =
  Alcotest.(check string) "ok frame" "OK 3\nab\n"
    (Server.reply_to_string (Server.Ok_payload "ab\n"));
  Alcotest.(check string) "err frame keeps one line" "ERR a b\n"
    (Server.reply_to_string (Server.Err "a\nb"));
  Alcotest.(check string) "bye frame" "BYE\n" (Server.reply_to_string Server.Bye)

let test_run_loop_over_channels () =
  with_temp_program fig1 (fun path ->
      let requests =
        Printf.sprintf "CLASSIFY %s\nSTATS\nQUIT\nCLASSIFY after-quit\n" path
      in
      let req_path = Filename.temp_file "ivtool_requests" ".txt" in
      let out_path = Filename.temp_file "ivtool_replies" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove req_path;
          Sys.remove out_path)
        (fun () ->
          let oc = open_out_bin req_path in
          output_string oc requests;
          close_out oc;
          let ic = open_in_bin req_path in
          let oc = open_out_bin out_path in
          Server.run (Engine.create ()) ic oc;
          close_in ic;
          close_out oc;
          let ic = open_in_bin out_path in
          let replies = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check bool) "starts with OK" true (Helpers.contains replies "OK ");
          Alcotest.(check bool) "stats served" true (Helpers.contains replies "cache:");
          Alcotest.(check bool) "stops at QUIT" true
            (not (Helpers.contains replies "after-quit"));
          Alcotest.(check bool) "says BYE" true (Helpers.contains replies "BYE\n")))

(* STATS and METRICS render one registry: after every request, each
   accounting line of STATS must equal its Prometheus sample, and every
   nonzero accounting sample must have its STATS line. *)
let accounting_of_stats stats =
  List.concat_map
    (fun line ->
      let pass () =
        Scanf.sscanf line "pass.%[^:]: hits=%d misses=%d" (fun p h m ->
            [ (Printf.sprintf "iv_pass_hits_total{pass=\"%s\"}" p, h);
              (Printf.sprintf "iv_pass_misses_total{pass=\"%s\"}" p, m) ])
      and artifact () =
        Scanf.sscanf line "artifact.%[^:]: mem=%d disk=%d computed=%d" (fun a m d c ->
            List.map
              (fun (tier, v) ->
                ( Printf.sprintf "iv_artifact_served_total{artifact=\"%s\",tier=\"%s\"}"
                    a tier,
                  v ))
              [ ("mem", m); ("disk", d); ("computed", c) ])
      in
      if String.starts_with ~prefix:"pass." line then pass ()
      else if String.starts_with ~prefix:"artifact." line then artifact ()
      else [])
    (String.split_on_char '\n' stats)
  |> List.filter (fun (_, v) -> v <> 0)
  |> List.sort compare

let accounting_of_metrics text =
  List.filter_map
    (fun line ->
      if
        String.starts_with ~prefix:"iv_pass_" line
        || String.starts_with ~prefix:"iv_artifact_served_total" line
      then
        match String.rindex_opt line ' ' with
        | Some i ->
          let v = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
          if v = 0 then None else Some (String.sub line 0 i, v)
        | None -> None
      else None)
    (String.split_on_char '\n' text)
  |> List.sort compare

let test_stats_metrics_agree () =
  with_temp_program fig1 (fun path ->
      let e = Engine.create () in
      let agree step =
        let stats = accounting_of_stats (payload (Server.handle e "STATS")) in
        let metrics = accounting_of_metrics (payload (Server.handle e "METRICS")) in
        Alcotest.(check (list (pair string int))) ("after " ^ step) metrics stats;
        stats
      in
      List.iter
        (fun verb ->
          let request = if verb = "RESET" then verb else verb ^ " " ^ path in
          ignore (payload (Server.handle e request));
          let rows = agree request in
          if verb = "RESET" then
            Alcotest.(check int) "no accounting row after RESET" 0 (List.length rows)
          else
            Alcotest.(check bool) ("accounting rows after " ^ verb) true (rows <> []))
        [ "CLASSIFY"; "DEPS"; "RANGES"; "CHECK"; "CLASSIFY"; "RESET"; "TRIP"; "DEPS";
          "CLASSIFY" ])

let suite =
  ( "service-server",
    [
      Helpers.case "classify round-trip hits cache" test_classify_roundtrip;
      Helpers.case "stats and reset" test_stats_and_reset;
      Helpers.case "METRICS verb" test_metrics_verb;
      Helpers.case "error replies and quit" test_errors_and_quit;
      Helpers.case "reply framing" test_reply_framing;
      Helpers.case "run loop over channels" test_run_loop_over_channels;
      Helpers.case "STATS and METRICS agree" test_stats_metrics_agree;
    ] )
