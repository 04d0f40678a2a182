(* Sharded content-addressed directory tree with atomic-rename
   publication. Nothing here raises on I/O: reads degrade to misses,
   writes to counted errors — a broken disk slows the fleet down, it
   does not take it down. *)

(* Temp-name uniqueness must hold across every handle in the process —
   concurrent domains may open the same store independently — so the
   sequence is module-global, not per-handle. Distinct processes are
   separated by the pid in the temp name. *)
let tmp_seq = Atomic.make 0

type t = {
  root : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  puts : int Atomic.t;
  put_errors : int Atomic.t;
  rej_corrupt : int Atomic.t;
  rej_version : int Atomic.t;
  rej_foreign : int Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  puts : int;
  put_errors : int;
  rejects_corrupt : int;
  rejects_version : int;
  rejects_foreign : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> () (* racing creator won *)
  end

let open_store ~root () =
  match mkdir_p root with
  | () ->
    if Sys.is_directory root then
      Ok
        {
          root;
          hits = Atomic.make 0;
          misses = Atomic.make 0;
          puts = Atomic.make 0;
          put_errors = Atomic.make 0;
          rej_corrupt = Atomic.make 0;
          rej_version = Atomic.make 0;
          rej_foreign = Atomic.make 0;
        }
    else Error (Printf.sprintf "%s exists and is not a directory" root)
  | exception (Unix.Unix_error _ | Sys_error _) ->
    Error (Printf.sprintf "cannot create store directory %s" root)

let root t = t.root

(* [ab/cdef0123456789.kind]: the first two hex digits shard, the rest
   name the entry. Kinds are short [a-z] names ("classify", "deps", …)
   fixed by the engine, never user input. *)
let shard_dir t key = Filename.concat t.root (String.sub (Hash.Fnv.to_hex key) 0 2)

let entry_path t ~kind key =
  let hex = Hash.Fnv.to_hex key in
  Filename.concat
    (Filename.concat t.root (String.sub hex 0 2))
    (String.sub hex 2 (String.length hex - 2) ^ "." ^ kind)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Read one entry and validate its frame, then [decode] its payload. A
   payload [decode] rejects counts like any other corrupt entry. *)
let read t ~kind key decode =
  let path = entry_path t ~kind key in
  match read_all path with
  | exception (Sys_error _ | End_of_file) ->
    Atomic.incr t.misses;
    None
  | bytes -> (
    match Result.bind (Frame.decode ~kind bytes) decode with
    | Ok v ->
      Atomic.incr t.hits;
      Some v
    | Error e ->
      (let c =
         match e with
         | Frame.Truncated | Frame.Trailing _ | Frame.Bad_checksum
         | Frame.Bad_section ->
           t.rej_corrupt
         | Frame.Bad_version _ -> t.rej_version
         | Frame.Foreign | Frame.Bad_kind _ -> t.rej_foreign
       in
       Atomic.incr c);
      Atomic.incr t.misses;
      None)

let get t ~kind key = read t ~kind key Result.ok
let get_table t ~kind key = read t ~kind key Frame.decode_table

let write_all path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes)

(* Publish = write the frame to a hidden per-writer temp in the entry's
   own shard (same filesystem), then rename over the final name. A
   reader never observes a partial entry; a crash leaves only a temp
   for [gc] to sweep. *)
let put t ~kind key payload =
  match
    let dir = shard_dir t key in
    mkdir_p dir;
    let tmp =
      Filename.concat dir
        (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_seq 1))
    in
    write_all tmp (Frame.encode ~kind payload);
    Sys.rename tmp (entry_path t ~kind key)
  with
  | () -> Atomic.incr t.puts
  | exception (Sys_error _ | Unix.Unix_error _) -> Atomic.incr t.put_errors

let put_table t ~kind key sections = put t ~kind key (Frame.encode_table sections)

let stats (t : t) : stats =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    puts = Atomic.get t.puts;
    put_errors = Atomic.get t.put_errors;
    rejects_corrupt = Atomic.get t.rej_corrupt;
    rejects_version = Atomic.get t.rej_version;
    rejects_foreign = Atomic.get t.rej_foreign;
  }

let stats_to_string (s : stats) =
  let total = s.hits + s.misses in
  let rate = if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total in
  Printf.sprintf "hits=%d misses=%d hit_rate=%.2f puts=%d put_errors=%d rejects=%d"
    s.hits s.misses rate s.puts s.put_errors
    (s.rejects_corrupt + s.rejects_version + s.rejects_foreign)

(* -- the directory walk shared by [usage] and [gc] -- *)

let is_hex2 s =
  String.length s = 2
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let is_temp name = String.length name >= 4 && String.sub name 0 4 = ".tmp"

type walked = { w_path : string; w_bytes : int; w_mtime : float; w_temp : bool }

let walk t =
  let acc = ref [] in
  let shards = try Sys.readdir t.root with Sys_error _ -> [||] in
  Array.iter
    (fun shard ->
      if is_hex2 shard then begin
        let dir = Filename.concat t.root shard in
        let files = try Sys.readdir dir with Sys_error _ -> [||] in
        Array.iter
          (fun name ->
            let path = Filename.concat dir name in
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
              acc :=
                {
                  w_path = path;
                  w_bytes = st_size;
                  w_mtime = st_mtime;
                  w_temp = is_temp name;
                }
                :: !acc
            | _ | (exception Unix.Unix_error _) -> ())
          files
      end)
    shards;
  !acc

let usage t =
  List.fold_left
    (fun (n, b) w -> if w.w_temp then (n, b) else (n + 1, b + w.w_bytes))
    (0, 0) (walk t)

type gc_report = {
  scanned : int;
  scanned_bytes : int;
  deleted : int;
  deleted_bytes : int;
  kept : int;
  kept_bytes : int;
  stale_temps : int;
}

(* A temp file a crashed writer left behind: sweep it once it is
   clearly not a publication in flight. *)
let temp_grace_s = 600.0

let gc ?(dry_run = false) ?max_age_s ?max_bytes t () =
  let now = Unix.gettimeofday () in
  let entries, temps = List.partition (fun w -> not w.w_temp) (walk t) in
  let stale_temps =
    List.filter (fun w -> now -. w.w_mtime > temp_grace_s) temps
  in
  let expired, fresh =
    match max_age_s with
    | None -> ([], entries)
    | Some age ->
      List.partition (fun w -> now -. w.w_mtime > age) entries
  in
  (* Oldest-first until under budget: the store is its own LRU
     approximation (mtime = publication time; re-publication of a hot
     key refreshes it). *)
  let over_budget, kept =
    match max_bytes with
    | None -> ([], fresh)
    | Some budget ->
      let by_age =
        List.sort (fun a b -> compare a.w_mtime b.w_mtime) fresh
      in
      let total = List.fold_left (fun acc w -> acc + w.w_bytes) 0 by_age in
      let rec drop total = function
        | w :: rest when total > budget ->
          let dropped, kept = drop (total - w.w_bytes) rest in
          (w :: dropped, kept)
        | rest -> ([], rest)
      in
      drop total by_age
  in
  let victims = expired @ over_budget in
  if not dry_run then
    List.iter
      (fun w -> try Sys.remove w.w_path with Sys_error _ -> ())
      (victims @ stale_temps);
  let bytes l = List.fold_left (fun acc w -> acc + w.w_bytes) 0 l in
  {
    scanned = List.length entries;
    scanned_bytes = bytes entries;
    deleted = List.length victims;
    deleted_bytes = bytes victims;
    kept = List.length kept;
    kept_bytes = bytes kept;
    stale_temps = List.length stale_temps;
  }

let gc_report_to_string r =
  Printf.sprintf
    "scanned %d entries (%d bytes): deleted %d (%d bytes), kept %d (%d bytes), swept %d stale temps"
    r.scanned r.scanned_bytes r.deleted r.deleted_bytes r.kept r.kept_bytes
    r.stale_temps
