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
  | Frame.Bad_section -> "section"

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

let test_frame_table () =
  let sections = [ ("trip", "t\n"); ("classify", fig1); ("deps", "") ] in
  let table = Frame.encode_table sections in
  (match Frame.decode_table table with
   | Ok got ->
     Alcotest.(check (list (pair string string)))
       "sections come back in tag order"
       (List.sort compare sections) got
   | Error e -> Alcotest.failf "table rejected: %s" (Frame.error_to_string e));
  (* A prefix is a shorter valid table or malformed, never an
     exception: the outer frame's checksum is what catches truncation. *)
  for len = 0 to String.length table - 1 do
    match Frame.decode_table (String.sub table 0 len) with
    | Ok _ | Error Frame.Bad_section -> ()
    | Error e -> Alcotest.failf "prefix of %d: unexpected %s" len (Frame.error_to_string e)
  done;
  let section tag text =
    String.make 1 (Char.chr (String.length tag)) ^ tag
    ^ String.init 8 (fun i -> Char.chr ((String.length text lsr (8 * i)) land 0xff))
    ^ text
  in
  List.iter
    (fun (name, bytes) ->
      match Frame.decode_table bytes with
      | Error Frame.Bad_section -> ()
      | Ok _ -> Alcotest.failf "%s decoded" name
      | Error e -> Alcotest.failf "%s: unexpected %s" name (Frame.error_to_string e))
    [ ("empty tag", section "" "x");
      ("tag outside [a-z]", section "Deps" "x");
      ("tag over 32 bytes", section (String.make 33 'a') "x");
      ("repeated tag", section "deps" "x" ^ section "deps" "y");
      ("descending tags", section "trip" "x" ^ section "deps" "y");
      ("length past the end", String.sub (section "deps" "xyz") 0 12);
      ( "length with the top bit set",
        "\004deps" ^ String.make 7 '\000' ^ "\128" ^ "x" ) ];
  Alcotest.check_raises "repeated tag refused"
    (Invalid_argument "Store.Frame.encode_table: bad or repeated tag") (fun () ->
      ignore (Frame.encode_table [ ("deps", "a"); ("deps", "b") ]))

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

(* Deps forces the ranges pass, so a later ranges request is a memory
   hit that never computes: it must still reach the store, once. *)
let test_engine_publishes_memory_renders () =
  with_store_dir (fun dir ->
      let s1 = open_exn dir in
      let e1 = Engine.create ~store:s1 () in
      List.iter (fun a -> ignore (render_exn e1 a fig1)) Engine.[ Classify; Deps; Ranges ];
      Alcotest.(check (triple int int int)) "ranges from memory" (1, 0, 0)
        (artifact_counts e1 Engine.Ranges);
      Alcotest.(check int) "three puts" 3 (Disk.stats s1).Disk.puts;
      List.iter (fun a -> ignore (render_exn e1 a fig1)) Engine.[ Classify; Ranges ];
      Alcotest.(check int) "published once per key" 3 (Disk.stats s1).Disk.puts;
      let e2 = Engine.create ~store:(open_exn dir) () in
      ignore (render_exn e2 Engine.Ranges fig1);
      Alcotest.(check (triple int int int)) "fresh engine: ranges from disk" (0, 1, 0)
        (artifact_counts e2 Engine.Ranges);
      List.iter
        (fun (name, hits, misses) ->
          Alcotest.(check int) (name ^ " never ran") 0 (hits + misses))
        (Engine.pass_stats e2))

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

(* The per-source entry files under [dir]. *)
let source_entries dir =
  List.concat_map
    (fun shard ->
      let d = Filename.concat dir shard in
      if Sys.is_directory d then
        List.filter_map
          (fun n ->
            if Filename.check_suffix n ".source" then Some (Filename.concat d n) else None)
          (Array.to_list (Sys.readdir d))
      else [])
    (Array.to_list (Sys.readdir dir))

let the_source_entry dir =
  match source_entries dir with
  | [ path ] -> path
  | l -> Alcotest.failf "expected one source entry, found %d" (List.length l)

let test_engine_recovers_from_corruption () =
  with_store_dir (fun dir ->
      let s = open_exn dir in
      let e1 = Engine.create ~store:s () in
      let first = render_exn e1 Engine.Classify fig1 in
      (* Find the published entry and tear it. *)
      (let path = the_source_entry dir in
       let b = read_raw path in
       write_raw path (String.sub b 0 (String.length b / 2)));
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

(* ---------- one entry per source ---------- *)

let three = Engine.[ Classify; Trip; Deps ]
let item = { Service.Batch.name = "fig1.iv"; source = fig1 }

let report_exn e =
  match Service.Batch.report e ~artifacts:three item with
  | Ok text -> text
  | Error msg -> Alcotest.fail msg

let test_batch_item_one_put () =
  with_store_dir (fun dir ->
      let s = open_exn dir in
      ignore (report_exn (Engine.create ~store:s ()));
      let st = Disk.stats s in
      Alcotest.(check int) "one read, a miss" 1 (st.Disk.hits + st.Disk.misses);
      Alcotest.(check int) "one put" 1 st.Disk.puts;
      Alcotest.(check int) "one entry" 1 (fst (Disk.usage s)))

let test_batch_item_one_read () =
  with_store_dir (fun dir ->
      let cold = report_exn (Engine.create ~store:(open_exn dir) ()) in
      let s = open_exn dir in
      let e = Engine.create ~store:s () in
      Alcotest.(check string) "same bytes from the store" cold (report_exn e);
      let st = Disk.stats s in
      Alcotest.(check (pair int int)) "one read, a hit" (1, 0) (st.Disk.hits, st.Disk.misses);
      Alcotest.(check int) "nothing to publish" 0 st.Disk.puts;
      List.iter
        (fun (name, hits, misses) ->
          Alcotest.(check int) (name ^ " never ran") 0 (hits + misses))
        (Engine.pass_stats e);
      List.iter
        (fun a ->
          Alcotest.(check (triple int int int))
            (Engine.artifact_to_string a ^ " from disk") (0, 1, 0) (artifact_counts e a))
        three;
      (* Promoted sections count disk once: the next serve is memory. *)
      ignore (report_exn e);
      List.iter
        (fun a ->
          Alcotest.(check (triple int int int))
            (Engine.artifact_to_string a ^ " then memory") (1, 1, 0) (artifact_counts e a))
        three)

(* Serve verbs render one artifact at a time: each new section
   republishes the source's entry with every section known so far. *)
let test_single_render_republishes_union () =
  with_store_dir (fun dir ->
      let s1 = open_exn dir in
      let e1 = Engine.create ~store:s1 () in
      let classify = render_exn e1 Engine.Classify fig1 in
      Alcotest.(check int) "first section: one put" 1 (Disk.stats s1).Disk.puts;
      ignore (render_exn e1 Engine.Classify fig1);
      Alcotest.(check int) "a known section: no put" 1 (Disk.stats s1).Disk.puts;
      let trip = render_exn e1 Engine.Trip fig1 in
      Alcotest.(check int) "a new section: republished" 2 (Disk.stats s1).Disk.puts;
      Alcotest.(check int) "still one entry" 1 (fst (Disk.usage s1));
      let s2 = open_exn dir in
      let e2 = Engine.create ~store:s2 () in
      Alcotest.(check string) "trip from the entry" trip (render_exn e2 Engine.Trip fig1);
      Alcotest.(check string) "classify kept in the union" classify
        (render_exn e2 Engine.Classify fig1);
      Alcotest.(check (pair int int)) "one read serves both" (1, 0)
        ((Disk.stats s2).Disk.hits, (Disk.stats s2).Disk.misses);
      List.iter
        (fun a ->
          Alcotest.(check (triple int int int))
            (Engine.artifact_to_string a ^ " from disk") (0, 1, 0) (artifact_counts e2 a))
        Engine.[ Classify; Trip ])

(* A section table behind a valid frame can still be malformed (a
   writer bug, or a hostile file): it is a counted corrupt reject and a
   recompute, never an exception. *)
let test_engine_rejects_bad_sections () =
  with_store_dir (fun dir ->
      let cold = report_exn (Engine.create ~store:(open_exn dir) ()) in
      let path = the_source_entry dir in
      let payload =
        match Frame.decode ~kind:"source" (read_raw path) with
        | Ok p -> p
        | Error e -> Alcotest.fail (Frame.error_to_string e)
      in
      List.iter
        (fun (name, mutate) ->
          write_raw path (Frame.encode ~kind:"source" (mutate payload));
          let s = open_exn dir in
          let e = Engine.create ~store:s () in
          Alcotest.(check string) (name ^ ": recomputed identically") cold (report_exn e);
          Alcotest.(check int) (name ^ ": corrupt reject") 1 (Disk.stats s).Disk.rejects_corrupt;
          Alcotest.(check int) (name ^ ": a miss") 1 (Disk.stats s).Disk.misses;
          Alcotest.(check (triple int int int))
            (name ^ ": computed") (0, 0, 1) (artifact_counts e Engine.Classify))
        [ ( "bad section length",
            fun p ->
              (* The first text length (after the 1-byte tag length and
                 the tag) claims more bytes than the payload holds. *)
              let b = Bytes.of_string p in
              Bytes.set b (1 + Char.code p.[0] + 7) '\001';
              Bytes.to_string b );
          ( "bad tag",
            fun p ->
              let b = Bytes.of_string p in
              Bytes.set b 1 'C';
              Bytes.to_string b ) ];
      (* The recompute republished a sound entry. *)
      let s = open_exn dir in
      Alcotest.(check string) "healed" cold (report_exn (Engine.create ~store:s ()));
      Alcotest.(check int) "served by the healed entry" 1 (Disk.stats s).Disk.hits)

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

(* ---------- one cache entry per source ---------- *)

let variant i = Printf.sprintf "j = %d\nL7: loop\n  i = j + c\n  j = i + k\nendloop\n" i

let renders_exn e artifacts src =
  match Engine.renders e artifacts src with
  | Ok texts -> texts
  | Error msg -> Alcotest.fail msg

(* A stored source whose record was evicted reads its entry again: the
   next request is a disk serve, not a recompute. *)
let test_evicted_source_reread () =
  with_store_dir (fun dir ->
      let sources = List.init 40 variant in
      let populate = Engine.create ~store:(open_exn dir) () in
      List.iter (fun src -> ignore (renders_exn populate three src)) sources;
      let s = open_exn dir in
      let e = Engine.create ~capacity:16 ~store:s () in
      List.iter (fun src -> ignore (renders_exn e three src)) sources;
      Alcotest.(check int) "one read per source" 40 (Disk.stats s).Disk.hits;
      let first = List.hd sources in
      Alcotest.(check (list string)) "same bytes after eviction"
        (renders_exn populate three first) (renders_exn e three first);
      Alcotest.(check int) "the evicted entry is read again" 41 (Disk.stats s).Disk.hits;
      List.iter
        (fun a ->
          Alcotest.(check (triple int int int))
            (Engine.artifact_to_string a ^ " from disk again") (0, 41, 0) (artifact_counts e a))
        three;
      List.iter
        (fun (name, _, misses) -> Alcotest.(check int) (name ^ " never ran") 0 misses)
        (Engine.pass_stats e))

(* A source is one record, whatever was rendered for it and whatever the
   store holds; INVALIDATE drops that record and nothing else. *)
let test_one_entry_per_source () =
  with_store_dir (fun dir ->
      with_temp_program fig1 (fun path ->
          let e = Engine.create ~store:(open_exn dir) () in
          ignore (renders_exn e Engine.[ Classify; Deps; Trip; Check; Ranges ] fig1);
          let size () = (Engine.cache_stats e).Service.Cache.size in
          Alcotest.(check int) "the record and one unit" 2 (size ());
          Alcotest.(check string) "one entry invalidated" "invalidated 1\n"
            (payload (Server.handle e ("INVALIDATE " ^ path)));
          Alcotest.(check int) "only the unit is left" 1 (size ())))

(* PERSIST to a second directory: a resident source's next render
   publishes its entry there, and a fresh engine reads it once. *)
let test_persist_switch_publishes () =
  with_store_dir (fun dir ->
      with_temp_program fig1 (fun path ->
          let first = Filename.concat dir "first" and second = Filename.concat dir "second" in
          let e = Engine.create () in
          ignore (payload (Server.handle e ("PERSIST " ^ first)));
          let classify = payload (Server.handle e ("CLASSIFY " ^ path)) in
          ignore (payload (Server.handle e ("PERSIST " ^ second)));
          Alcotest.(check string) "served from memory" classify
            (payload (Server.handle e ("CLASSIFY " ^ path)));
          let s2 = Option.get (Engine.store e) in
          Alcotest.(check int) "published to the second store" 1 (Disk.stats s2).Disk.puts;
          Alcotest.(check int) "one entry there" 1 (fst (Disk.usage s2));
          let s = open_exn second in
          let fresh = Engine.create ~store:s () in
          ignore (render_exn fresh Engine.Classify fig1);
          ignore (render_exn fresh Engine.Classify fig1);
          Alcotest.(check (pair int int)) "read once" (1, 0)
            ((Disk.stats s).Disk.hits, (Disk.stats s).Disk.misses);
          Alcotest.(check (triple int int int)) "disk, then memory" (1, 1, 0)
            (artifact_counts fresh Engine.Classify)))

let suite =
  ( "store",
    [
      Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame rejects" `Quick test_frame_rejects;
      Alcotest.test_case "frame section table" `Quick test_frame_table;
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
      Alcotest.test_case "memory renders published" `Quick
        test_engine_publishes_memory_renders;
      Alcotest.test_case "batch item: one put, one entry" `Quick test_batch_item_one_put;
      Alcotest.test_case "batch item: one read from a fresh engine" `Quick
        test_batch_item_one_read;
      Alcotest.test_case "single render republishes the union" `Quick
        test_single_render_republishes_union;
      Alcotest.test_case "malformed section table rejected" `Quick
        test_engine_rejects_bad_sections;
      Alcotest.test_case "evicted source is read again" `Quick test_evicted_source_reread;
      Alcotest.test_case "one cache entry per source" `Quick test_one_entry_per_source;
      Alcotest.test_case "PERSIST switch publishes there" `Quick
        test_persist_switch_publishes;
    ] )
