(* Hierarchical spans and structured events, collected into an ambient
   per-process collector.

   The collector is installed globally (an [Atomic]); when none is
   installed, [with_span]/[event] cost one atomic load and nothing else,
   so the whole pipeline can stay instrumented unconditionally. Span
   parentage is tracked with a per-domain stack, so concurrent domains
   each build their own well-nested tree under one collector. *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type span = {
  sid : int;
  parent : int option;
  name : string;
  cat : string;
  tid : int; (* domain id *)
  start_ns : int64;
  mutable stop_ns : int64; (* equal to start while the span is open *)
  mutable attrs : (string * attr) list;
}

type event = {
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ts_ns : int64;
  ev_attrs : (string * attr) list;
}

type t = {
  lock : Mutex.t;
  limit : int;
  mutable spans_rev : span list;
  mutable events_rev : event list;
  mutable n : int; (* spans + events retained *)
  mutable dropped : int;
  next_sid : int Atomic.t;
}

let create ?(limit = 200_000) () =
  {
    lock = Mutex.create ();
    limit = max 1 limit;
    spans_rev = [];
    events_rev = [];
    n = 0;
    dropped = 0;
    next_sid = Atomic.make 1;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- the ambient collector --- *)

let ambient : t option Atomic.t = Atomic.make None

let install t = Atomic.set ambient (Some t)
let uninstall () = Atomic.set ambient None
let current () = Atomic.get ambient
let enabled () = Atomic.get ambient <> None

(* The open spans, innermost first, per domain. *)
let stack : span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let tid () = (Domain.self () :> int)

(* --- recording --- *)

let record_span t span =
  locked t (fun () ->
      if t.n >= t.limit then t.dropped <- t.dropped + 1
      else begin
        t.spans_rev <- span :: t.spans_rev;
        t.n <- t.n + 1
      end)

let record_event t ev =
  locked t (fun () ->
      if t.n >= t.limit then t.dropped <- t.dropped + 1
      else begin
        t.events_rev <- ev :: t.events_rev;
        t.n <- t.n + 1
      end)

let with_span ?(cat = "pipeline") ?(attrs = []) name f =
  match Atomic.get ambient with
  | None -> f ()
  | Some t ->
    let st = Domain.DLS.get stack in
    let parent = match !st with [] -> None | p :: _ -> Some p.sid in
    let sid = Atomic.fetch_and_add t.next_sid 1 in
    let start_ns = Clock.now_ns () in
    let span = { sid; parent; name; cat; tid = tid (); start_ns; stop_ns = start_ns; attrs } in
    (* Recorded at start so children observe the parent id even if the
       collector is drained mid-flight; [stop_ns] is patched at exit. *)
    record_span t span;
    st := span :: !st;
    Fun.protect
      ~finally:(fun () ->
        (match !st with s :: rest when s == span -> st := rest | _ -> ());
        span.stop_ns <- Clock.now_ns ())
      f

let add_attrs attrs =
  match Atomic.get ambient with
  | None -> ()
  | Some t -> (
    match !(Domain.DLS.get stack) with
    | [] -> ()
    | top :: _ ->
      (* The open span itself, whether or not the collector had room to
         retain it: no search of the retained spans. *)
      locked t (fun () -> top.attrs <- top.attrs @ attrs))

let event ?(cat = "event") ?(attrs = []) name =
  match Atomic.get ambient with
  | None -> ()
  | Some t ->
    record_event t
      { ev_name = name; ev_cat = cat; ev_tid = tid (); ts_ns = Clock.now_ns (); ev_attrs = attrs }

(* --- reading a collector --- *)

let spans t = locked t (fun () -> List.rev t.spans_rev)
let events t = locked t (fun () -> List.rev t.events_rev)
let dropped t = locked t (fun () -> t.dropped)

let drain t =
  locked t (fun () ->
      let s = List.rev t.spans_rev and e = List.rev t.events_rev in
      t.spans_rev <- [];
      t.events_rev <- [];
      t.n <- 0;
      (s, e))

(* [collect f] runs [f] under a fresh, temporarily-installed collector
   and restores whatever was installed before — the backbone of
   `ivtool --trace` and `ivtool explain`. *)
let collect ?limit f =
  let t = create ?limit () in
  let previous = Atomic.get ambient in
  Atomic.set ambient (Some t);
  let restore () = Atomic.set ambient previous in
  let result = Fun.protect ~finally:restore (fun () -> f ()) in
  (result, t)

(* --- attr rendering (shared by exporters) --- *)

let attr_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> string_of_bool b
