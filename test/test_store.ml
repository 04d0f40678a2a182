(* The persistent artifact store: frame validation, crash-safe
   publication, corruption recovery, GC policy, and the engine's
   two-tier read path over it. The recurring shape: break something on
   disk, then check the reader degrades to a recompute — never a crash,
   never bad bytes. *)

module Frame = Store.Frame
module Disk = Store.Disk
module Engine = Service.Engine
module Server = Service.Server

let fig1 = "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n"

let key_of s = Hash.Fnv.feed_string Hash.Fnv.empty s

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_store_dir f =
  let dir = Filename.temp_file "ivstore" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let open_exn dir =
  match Disk.open_store ~root:dir () with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let write_raw path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------- framing ---------- *)

let err_kind = function
  | Frame.Foreign -> "foreign"
  | Frame.Bad_version _ -> "version"
  | Frame.Bad_kind _ -> "kind"
  | Frame.Truncated -> "truncated"
  | Frame.Trailing _ -> "trailing"
  | Frame.Bad_checksum -> "checksum"

let check_decode name expected ~kind bytes =
  match Frame.decode ~kind bytes with
  | Ok _ -> Alcotest.failf "%s: decoded a bad frame" name
  | Error e -> Alcotest.(check string) name expected (err_kind e)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match Frame.decode ~kind:"classify" (Frame.encode ~kind:"classify" payload) with
      | Ok p -> Alcotest.(check string) "payload survives" payload p
      | Error e -> Alcotest.failf "roundtrip rejected: %s" (Frame.error_to_string e))
    [ ""; "x"; fig1; String.make 100_000 '\255' ]

let test_frame_rejects () =
  let good = Frame.encode ~kind:"classify" "hello, artifact" in
  (* Truncation at every prefix length: always Truncated or Foreign
     (cut inside the magic), never an exception or a success. *)
  for len = 0 to String.length good - 1 do
    match Frame.decode ~kind:"classify" (String.sub good 0 len) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded" len
    | Error (Frame.Truncated | Frame.Foreign) -> ()
    | Error e ->
      Alcotest.failf "prefix of %d bytes: unexpected %s" len
        (Frame.error_to_string e)
  done;
  check_decode "trailing bytes" "trailing" ~kind:"classify" (good ^ "!");
  check_decode "foreign magic" "foreign" ~kind:"classify"
    ("JUNK" ^ String.sub good 4 (String.length good - 4));
  check_decode "wrong kind" "kind" ~kind:"deps" good;
  (let b = Bytes.of_string good in
   Bytes.set b 4 '\007';
   check_decode "future version" "version" ~kind:"classify" (Bytes.to_string b));
  (let b = Bytes.of_string good in
   let pos = String.length good - 3 in
   Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
   check_decode "flipped payload bit" "checksum" ~kind:"classify"
     (Bytes.to_string b));
  Alcotest.check_raises "empty kind rejected"
    (Invalid_argument "Store.Frame.encode: bad kind") (fun () ->
      ignore (Frame.encode ~kind:"" "x"))

(* ---------- the disk store ---------- *)

let test_disk_roundtrip () =
  with_store_dir (fun dir ->
      let s = open_exn dir in
      let k = key_of "report-a" in
      Alcotest.(check (option string)) "absent before put" None
        (Disk.get s ~kind:"classify" k);
      Disk.put s ~kind:"classify" k "the report";
      Alcotest.(check (option string)) "round trip" (Some "the report")
        (Disk.get s ~kind:"classify" k);
      (* Same digest, different kind: a distinct entry. *)
      Alcotest.(check (option string)) "kinds are disjoint" None
        (Disk.get s ~kind:"deps" k);
      let st = Disk.stats s in
      Alcotest.(check int) "one put" 1 st.Disk.puts;
      Alcotest.(check int) "one hit" 1 st.Disk.hits;
      Alcotest.(check int) "two misses" 2 st.Disk.misses;
      (* The layout contract: two-hex shard directory, kind suffix. *)
      let hex = Hash.Fnv.to_hex k in
      Alcotest.(check string) "sharded path"
        (Filename.concat
           (Filename.concat dir (String.sub hex 0 2))
           (String.sub hex 2 14 ^ ".classify"))
        (Disk.entry_path s ~kind:"classify" k);
      Alcotest.(check (pair int int)) "usage sees the entry bytes"
        (1, String.length (read_raw (Disk.entry_path s ~kind:"classify" k)))
        (Disk.usage s))

let test_disk_rejects_corruption () =
  with_store_dir (fun dir ->
      let s = open_exn dir in
      let corrupt name mutate =
        let k = key_of name in
        Disk.put s ~kind:"classify" k ("payload of " ^ name);
        let path = Disk.entry_path s ~kind:"classify" k in
        write_raw path (mutate (read_raw path));
        Alcotest.(check (option string)) (name ^ " rejected") None
          (Disk.get s ~kind:"classify" k)
      in
      corrupt "truncated" (fun b -> String.sub b 0 (String.length b - 4));
      corrupt "bitflip" (fun b ->
          let by = Bytes.of_string b in
          let pos = Bytes.length by - 1 in
          Bytes.set by pos (Char.chr (Char.code (Bytes.get by pos) lxor 0x80));
          Bytes.to_string by);
      corrupt "foreign" (fun _ -> "not a store entry at all");
      corrupt "version" (fun b ->
          let by = Bytes.of_string b in
          Bytes.set by 4 '\002';
          Bytes.to_string by);
      let st = Disk.stats s in
      Alcotest.(check int) "corrupt rejects" 2 st.Disk.rejects_corrupt;
      Alcotest.(check int) "foreign rejects" 1 st.Disk.rejects_foreign;
      Alcotest.(check int) "version rejects" 1 st.Disk.rejects_version;
      Alcotest.(check int) "every reject is also a miss" 4 st.Disk.misses;
      (* Republication over a corrupted entry heals it. *)
      Disk.put s ~kind:"classify" (key_of "bitflip") "healed";
      Alcotest.(check (option string)) "healed" (Some "healed")
        (Disk.get s ~kind:"classify" (key_of "bitflip")))

let test_disk_concurrent_writers () =
  with_store_dir (fun dir ->
      let k = key_of "contended" in
      let payload = String.concat "\n" (List.init 200 string_of_int) in
      (* Domains hammering one key through separate handles — the
         sharpest version of N processes sharing a store. Every read
         during and after the storm must be absent-or-complete. *)
      let workers =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                let s = open_exn dir in
                for _ = 1 to 25 do
                  Disk.put s ~kind:"classify" k payload;
                  match Disk.get s ~kind:"classify" k with
                  | None -> () (* raced a rename: an honest miss *)
                  | Some got -> assert (String.equal got payload)
                done;
                Disk.stats s))
      in
      let stats = List.map Domain.join workers in
      List.iter
        (fun (st : Disk.stats) ->
          Alcotest.(check int) "no writer errors" 0 st.Disk.put_errors;
          Alcotest.(check int) "no corrupt reads" 0 st.Disk.rejects_corrupt)
        stats;
      let s = open_exn dir in
      Alcotest.(check (option string)) "entry valid after the storm"
        (Some payload)
        (Disk.get s ~kind:"classify" k);
      Alcotest.(check (pair int int)) "exactly one entry, no temps left"
        (1, String.length (read_raw (Disk.entry_path s ~kind:"classify" k)))
        (Disk.usage s))

let test_disk_gc () =
  with_store_dir (fun dir ->
      let s = open_exn dir in
      let entry i = key_of (Printf.sprintf "entry-%d" i) in
      for i = 1 to 5 do
        Disk.put s ~kind:"classify" (entry i) (String.make 100 'x')
      done;
      (* Age entries 1-2 a day back; leave 3-5 fresh. *)
      let old = Unix.gettimeofday () -. 86_400.0 in
      for i = 1 to 2 do
        Unix.utimes (Disk.entry_path s ~kind:"classify" (entry i)) old old
      done;
      (* A stale temp from a "crashed writer". *)
      let temp =
        Filename.concat (Filename.dirname (Disk.entry_path s ~kind:"classify" (entry 1)))
          ".tmp.999.0"
      in
      write_raw temp "partial";
      Unix.utimes temp old old;
      let dry = Disk.gc ~dry_run:true ~max_age_s:3600.0 s () in
      Alcotest.(check int) "dry run would expire two" 2 dry.Disk.deleted;
      Alcotest.(check int) "dry run deletes nothing" 5 (fst (Disk.usage s));
      Alcotest.(check bool) "dry run keeps the temp" true (Sys.file_exists temp);
      let r = Disk.gc ~max_age_s:3600.0 s () in
      Alcotest.(check int) "expired two" 2 r.Disk.deleted;
      Alcotest.(check int) "swept the stale temp" 1 r.Disk.stale_temps;
      Alcotest.(check bool) "temp gone" false (Sys.file_exists temp);
      Alcotest.(check int) "three survive" 3 (fst (Disk.usage s));
      (* Size budget: each entry's file is ~130 bytes; 150 keeps one. *)
      let r = Disk.gc ~max_bytes:150 s () in
      Alcotest.(check int) "evicted down to budget" 2 r.Disk.deleted;
      Alcotest.(check int) "one left" 1 (fst (Disk.usage s));
      Alcotest.(check bool) "under budget" true (snd (Disk.usage s) <= 150);
      (* The survivors are still valid entries. *)
      let alive =
        List.filter
          (fun i -> Disk.get s ~kind:"classify" (entry i) <> None)
          [ 3; 4; 5 ]
      in
      Alcotest.(check int) "survivor readable" 1 (List.length alive))

let test_open_store_errors () =
  with_store_dir (fun dir ->
      let file = Filename.concat dir "plain-file" in
      write_raw file "x";
      match Disk.open_store ~root:file () with
      | Ok _ -> Alcotest.fail "opened a store over a plain file"
      | Error msg ->
        Alcotest.(check bool) "names the path" true
          (Helpers.contains msg "plain-file"))

(* ---------- the engine's two-tier read path ---------- *)

let artifact_counts e a =
  let _, mem, disk, computed =
    List.find (fun (a', _, _, _) -> a' = a) (Engine.artifact_stats e)
  in
  (mem, disk, computed)

let render_exn e a src =
  match Engine.render e a src with
  | Ok text -> text
  | Error msg -> Alcotest.fail msg

let test_engine_two_tiers () =
  with_store_dir (fun dir ->
      (* Cold process: compute, publish. *)
      let e1 = Engine.create ~store:(open_exn dir) () in
      let first = render_exn e1 Engine.Classify fig1 in
      Alcotest.(check (triple int int int)) "cold = computed" (0, 0, 1)
        (artifact_counts e1 Engine.Classify);
      ignore (render_exn e1 Engine.Classify fig1);
      Alcotest.(check (triple int int int)) "second request = memory" (1, 0, 1)
        (artifact_counts e1 Engine.Classify);
      (* "Restarted" process sharing the store: disk hit, byte-identical,
         and zero analysis passes run. *)
      let e2 = Engine.create ~store:(open_exn dir) () in
      let warm = render_exn e2 Engine.Classify fig1 in
      Alcotest.(check string) "byte-identical across processes" first warm;
      Alcotest.(check (triple int int int)) "warm start = disk" (0, 1, 0)
        (artifact_counts e2 Engine.Classify);
      List.iter
        (fun (name, _, misses) ->
          Alcotest.(check int) (name ^ " never ran") 0 misses)
        (Engine.pass_stats e2);
      (* The disk hit was promoted: the next request is a memory hit. *)
      ignore (render_exn e2 Engine.Classify fig1);
      Alcotest.(check (triple int int int)) "promoted to memory" (1, 1, 0)
        (artifact_counts e2 Engine.Classify);
      (* STATS surfaces all of it. *)
      let stats = Engine.stats_report e2 in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("stats mention " ^ needle) true
            (Helpers.contains stats needle))
        [ "store: hits=1"; "artifact.classify: mem=1 disk=1 computed=0";
          "hit_rate=1.00" ])

let test_engine_store_owner_column () =
  with_store_dir (fun dir ->
      let e1 = Engine.create ~store:(open_exn dir) () in
      ignore (render_exn e1 Engine.Classify fig1);
      let e2 = Engine.create ~store:(open_exn dir) () in
      ignore (render_exn e2 Engine.Classify fig1);
      let report = Engine.passes_report e2 fig1 in
      Alcotest.(check bool) "classify owned by the store" true
        (Helpers.contains report "store");
      (* The same report from the computing engine has no store rows:
         every pass genuinely ran there. *)
      Alcotest.(check bool) "computing engine owns its passes" false
        (Helpers.contains (Engine.passes_report e1 fig1) "store"))

let test_engine_recovers_from_corruption () =
  with_store_dir (fun dir ->
      let s = open_exn dir in
      let e1 = Engine.create ~store:s () in
      let first = render_exn e1 Engine.Classify fig1 in
      (* Find the published entry and tear it. *)
      let entries = ref [] in
      Array.iter
        (fun shard ->
          let d = Filename.concat dir shard in
          if Sys.is_directory d then
            Array.iter
              (fun n ->
                if Filename.check_suffix n ".classify" then
                  entries := Filename.concat d n :: !entries)
              (Sys.readdir d))
        (Sys.readdir dir);
      (match !entries with
       | [ path ] ->
         let b = read_raw path in
         write_raw path (String.sub b 0 (String.length b / 2))
       | l -> Alcotest.failf "expected one classify entry, found %d" (List.length l));
      (* A fresh process: the torn entry is rejected, the report is
         recomputed (bit-identical), and the store is healed. *)
      let s2 = open_exn dir in
      let e2 = Engine.create ~store:s2 () in
      Alcotest.(check string) "recomputed identically" first
        (render_exn e2 Engine.Classify fig1);
      Alcotest.(check (triple int int int)) "served by recompute" (0, 0, 1)
        (artifact_counts e2 Engine.Classify);
      Alcotest.(check int) "reject counted" 1 (Disk.stats s2).Disk.rejects_corrupt;
      let e3 = Engine.create ~store:(open_exn dir) () in
      Alcotest.(check (triple int int int)) "healed for the next process" (0, 1, 0)
        (ignore (render_exn e3 Engine.Classify fig1);
         artifact_counts e3 Engine.Classify))

let test_engine_check_keyed_by_iters () =
  with_store_dir (fun dir ->
      let mk iters =
        Engine.create
          ~options:{ Engine.default_options with Engine.check_iters = iters }
          ~store:(open_exn dir) ()
      in
      let e1 = mk 100 in
      ignore (render_exn e1 Engine.Check fig1);
      (* Same source, different oracle bound: must not share the entry. *)
      let e2 = mk 5 in
      ignore (render_exn e2 Engine.Check fig1);
      Alcotest.(check (triple int int int)) "different --iters recomputes"
        (0, 0, 1)
        (artifact_counts e2 Engine.Check);
      let e3 = mk 100 in
      ignore (render_exn e3 Engine.Check fig1);
      Alcotest.(check (triple int int int)) "same --iters shares" (0, 1, 0)
        (artifact_counts e3 Engine.Check))

let test_engine_without_store_unchanged () =
  let e = Engine.create () in
  (match Engine.render e Engine.Classify fig1 with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "no store line in stats" false
    (Helpers.contains (Engine.stats_report e) "store:");
  Alcotest.(check (triple int int int)) "tiers still counted" (0, 0, 1)
    (artifact_counts e Engine.Classify);
  Alcotest.(check bool) "no store accessor" true (Engine.store e = None)

(* ---------- the serve-mode PERSIST verb ---------- *)

let with_temp_program src f =
  let path = Filename.temp_file "ivtool_test" ".iv" in
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

let test_server_persist () =
  with_store_dir (fun dir ->
      with_temp_program fig1 (fun path ->
          let store_dir = Filename.concat dir "fleet" in
          let e1 = Engine.create () in
          Alcotest.(check string) "bare PERSIST without a store"
            "no store attached\n"
            (payload (Server.handle e1 "PERSIST"));
          Alcotest.(check string) "attach"
            (Printf.sprintf "store attached %s\n" store_dir)
            (payload (Server.handle e1 ("PERSIST " ^ store_dir)));
          let first = payload (Server.handle e1 ("CLASSIFY " ^ path)) in
          (* A second server over the same directory starts warm. *)
          let e2 = Engine.create () in
          ignore (payload (Server.handle e2 ("PERSIST " ^ store_dir)));
          Alcotest.(check string) "second server serves identical bytes" first
            (payload (Server.handle e2 ("CLASSIFY " ^ path)));
          Alcotest.(check (triple int int int)) "from disk" (0, 1, 0)
            (artifact_counts e2 Engine.Classify);
          let status = payload (Server.handle e2 "PERSIST") in
          List.iter
            (fun needle ->
              Alcotest.(check bool) ("status mentions " ^ needle) true
                (Helpers.contains status needle))
            [ store_dir; "hits=1"; "entries=1" ];
          Alcotest.(check bool) "STATS has the store line" true
            (Helpers.contains
               (payload (Server.handle e2 "STATS"))
               "store: hits=1");
          Alcotest.(check string) "detach" "store detached\n"
            (payload (Server.handle e2 "PERSIST off"));
          Alcotest.(check string) "detached status" "no store attached\n"
            (payload (Server.handle e2 "PERSIST"))))

let suite =
  ( "store",
    [
      Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame rejects" `Quick test_frame_rejects;
      Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
      Alcotest.test_case "disk rejects corruption" `Quick test_disk_rejects_corruption;
      Alcotest.test_case "concurrent writers" `Quick test_disk_concurrent_writers;
      Alcotest.test_case "gc policy" `Quick test_disk_gc;
      Alcotest.test_case "open errors" `Quick test_open_store_errors;
      Alcotest.test_case "engine two tiers" `Quick test_engine_two_tiers;
      Alcotest.test_case "passes owner column" `Quick test_engine_store_owner_column;
      Alcotest.test_case "corruption recovery" `Quick test_engine_recovers_from_corruption;
      Alcotest.test_case "check keyed by iters" `Quick test_engine_check_keyed_by_iters;
      Alcotest.test_case "store-less engine unchanged" `Quick
        test_engine_without_store_unchanged;
      Alcotest.test_case "serve PERSIST" `Quick test_server_persist;
    ] )
