(* Counters, gauges and log2-bucketed latency histograms, registered by
   name. The registry's mutex guards registration and snapshots only:
   counters and gauges are single atomics, so an increment costs one
   fetch-and-add on a handle resolved at registration. Each histogram
   keeps its own mutex (a sample updates several fields together).

   Lives in [lib/obs] so the tracing exporters can fold instrument state
   into their summaries; the service engine keeps its pass and tier
   accounting here too. *)

let buckets = 40
(* bucket i holds samples in [2^i, 2^(i+1)) microseconds; 2^39 µs ≈ 6.4 days *)

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  h_lock : Mutex.t;
  counts : int array; (* log2 µs buckets *)
  mutable n : int;
  mutable sum : float; (* seconds *)
  mutable min_s : float;
  mutable max_s : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { lock : Mutex.t; tbl : (string, instrument) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 32 }

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register t name make cast =
  locked t.lock (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some i -> cast name i
      | None ->
        let i = make () in
        Hashtbl.replace t.tbl name i;
        cast name i)

let wrong name = invalid_arg ("Instrument: kind mismatch for " ^ name)

let counter t name =
  register t name
    (fun () -> Counter (Atomic.make 0))
    (fun name -> function Counter c -> c | _ -> wrong name)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let count = Atomic.get

let gauge t name =
  register t name
    (fun () -> Gauge (Atomic.make 0))
    (fun name -> function Gauge g -> g | _ -> wrong name)

let set_gauge = Atomic.set
let gauge_value = Atomic.get

let histogram t name =
  register t name
    (fun () ->
      Histogram
        {
          h_lock = Mutex.create ();
          counts = Array.make buckets 0;
          n = 0;
          sum = 0.0;
          min_s = infinity;
          max_s = neg_infinity;
        })
    (fun name -> function Histogram h -> h | _ -> wrong name)

let bucket_of_seconds s =
  let us = s *. 1e6 in
  if us < 1.0 then 0
  else
    let b = int_of_float (Float.log2 us) in
    if b < 0 then 0 else if b >= buckets then buckets - 1 else b

(* Upper edge of bucket [i], in seconds: 2^(i+1) µs. *)
let bucket_upper i = Float.of_int (1 lsl (i + 1)) *. 1e-6

let observe h s =
  locked h.h_lock (fun () ->
      let i = bucket_of_seconds s in
      h.counts.(i) <- h.counts.(i) + 1;
      h.n <- h.n + 1;
      h.sum <- h.sum +. s;
      if s < h.min_s then h.min_s <- s;
      if s > h.max_s then h.max_s <- s)

let time t name f =
  let h = histogram t name in
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

let samples h = locked h.h_lock (fun () -> h.n)
let sum h = locked h.h_lock (fun () -> h.sum)

(* The {k="v"} block goes at the *end* of the name so exporters can
   split it back off with a single [String.index] — see Export_prom. *)
let labeled name labels =
  match labels with
  | [] -> name
  | labels ->
    let buf = Buffer.create (String.length name + 16) in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        String.iter
          (fun c ->
            match c with
            | '\\' -> Buffer.add_string buf "\\\\"
            | '"' -> Buffer.add_string buf "\\\""
            | '\n' -> Buffer.add_string buf "\\n"
            | c -> Buffer.add_char buf c)
          v;
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

(* Point-in-time copies: no locks escape, and a histogram's buckets come
   back as (upper edge in seconds, count) pairs for the populated
   buckets only. *)
type view =
  | V_counter of int
  | V_gauge of int
  | V_histogram of {
      v_count : int;
      v_sum : float;
      v_min : float;
      v_max : float;
      v_buckets : (float * int) list;
    }

let view = function
  | Counter c -> V_counter (Atomic.get c)
  | Gauge g -> V_gauge (Atomic.get g)
  | Histogram h ->
    locked h.h_lock (fun () ->
        let bs = ref [] in
        for i = buckets - 1 downto 0 do
          if h.counts.(i) > 0 then bs := (bucket_upper i, h.counts.(i)) :: !bs
        done;
        V_histogram
          { v_count = h.n; v_sum = h.sum; v_min = h.min_s; v_max = h.max_s; v_buckets = !bs })

(* Quantiles interpolate nothing: the answer is always one of the two
   exact extremes or a bucket's upper edge clamped into [min, max], so
   the same samples always render the same bytes.

   Edge behavior: q <= 0 is the recorded minimum, q >= 1 (and NaN,
   conservatively) the recorded maximum. Only populated buckets are
   listed, so the cumulative scan skips empty ones by construction. *)
let view_quantile v q =
  match v with
  | V_counter _ | V_gauge _ -> None
  | V_histogram v ->
    if v.v_count = 0 then None
    else if Float.is_nan q || q >= 1.0 then Some v.v_max
    else if q <= 0.0 then Some v.v_min
    else begin
      let target = int_of_float (Float.round (q *. float_of_int (v.v_count - 1))) + 1 in
      let target = min target v.v_count in
      let rec scan seen = function
        | [] -> Some v.v_max
        | (upper, c) :: rest ->
          let seen = seen + c in
          if seen >= target then Some (Float.max v.v_min (Float.min upper v.v_max))
          else scan seen rest
      in
      scan 0 v.v_buckets
    end

let quantile h q = view_quantile (view (Histogram h)) q

let mean h =
  locked h.h_lock (fun () ->
      if h.n = 0 then None else Some (h.sum /. float_of_int h.n))

let snapshot t =
  locked t.lock (fun () ->
      Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, i) -> (name, view i))

(* Deterministic µs rendering: integer microseconds, half away from
   zero. [%.0f] would round half-to-even through the C library;
   converting explicitly keeps the text stable across runtimes. *)
let us_string s = Printf.sprintf "%.0f" (Float.round (s *. 1e6))

let dump_views views =
  let render (name, v) =
    match v with
    | V_counter c -> Printf.sprintf "%-32s %d" name c
    | V_gauge g -> Printf.sprintf "%-32s %d (gauge)" name g
    | V_histogram h when h.v_count = 0 -> Printf.sprintf "%-32s count=0" name
    | V_histogram h as v ->
      let q x = us_string (Option.get (view_quantile v x)) in
      Printf.sprintf "%-32s count=%d mean=%sus p50=%sus p90=%sus max=%sus" name
        h.v_count
        (us_string (h.v_sum /. float_of_int h.v_count))
        (q 0.5) (q 0.9) (us_string h.v_max)
  in
  String.concat "\n" (List.map render views)

let dump t = dump_views (snapshot t)

let reset t =
  let instruments =
    locked t.lock (fun () -> Hashtbl.fold (fun _ i acc -> i :: acc) t.tbl [])
  in
  List.iter
    (function
      | Counter c | Gauge c -> Atomic.set c 0
      | Histogram h ->
        locked h.h_lock (fun () ->
            Array.fill h.counts 0 buckets 0;
            h.n <- 0;
            h.sum <- 0.0;
            h.min_s <- infinity;
            h.max_s <- neg_infinity))
    instruments
