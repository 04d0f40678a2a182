(* LRU cache: a hash table from key to an intrusive doubly-linked node;
   the list is threaded most-recent-first. All public operations hold
   [lock], except the user computation in [find_or_add]. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards head (more recent) *)
  mutable next : ('k, 'v) node option; (* towards tail (less recent) *)
}

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  cap : int;
  lock : Mutex.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

let create ?(capacity = 256) () =
  {
    tbl = Hashtbl.create 64;
    cap = max 1 capacity;
    lock = Mutex.create ();
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
    invalidations = 0;
  }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let capacity c = c.cap
let size c = locked c (fun () -> Hashtbl.length c.tbl)

(* -- list surgery (call with the lock held) -- *)

let unlink c n =
  (match n.prev with Some p -> p.next <- n.next | None -> c.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> c.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front c n =
  n.next <- c.head;
  n.prev <- None;
  (match c.head with Some h -> h.prev <- Some n | None -> c.tail <- Some n);
  c.head <- Some n

let touch c n =
  if c.head != Some n then begin
    unlink c n;
    push_front c n
  end

let evict_lru c =
  match c.tail with
  | None -> ()
  | Some n ->
    unlink c n;
    Hashtbl.remove c.tbl n.key;
    c.evictions <- c.evictions + 1

let find_locked c k =
  match Hashtbl.find_opt c.tbl k with
  | Some n ->
    c.hits <- c.hits + 1;
    touch c n;
    Some n.value
  | None ->
    c.misses <- c.misses + 1;
    None

let add_locked c k v =
  match Hashtbl.find_opt c.tbl k with
  | Some n ->
    n.value <- v;
    touch c n
  | None ->
    if Hashtbl.length c.tbl >= c.cap then evict_lru c;
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace c.tbl k n;
    push_front c n;
    c.insertions <- c.insertions + 1

let find c k = locked c (fun () -> find_locked c k)

let add c k v = locked c (fun () -> add_locked c k v)

let find_or_add c k f =
  match find c k with
  | Some v -> v
  | None ->
    (* Compute outside the lock: analyses can be slow and must not
       serialize the whole pool. A racing domain may duplicate the
       work; the first [add] wins the slot. *)
    let v = f () in
    locked c (fun () ->
        match Hashtbl.find_opt c.tbl k with
        | Some n -> n.value
        | None ->
          add_locked c k v;
          v)

let invalidate c k =
  locked c (fun () ->
      match Hashtbl.find_opt c.tbl k with
      | None -> false
      | Some n ->
        unlink c n;
        Hashtbl.remove c.tbl k;
        c.invalidations <- c.invalidations + 1;
        true)

let clear c =
  locked c (fun () ->
      c.invalidations <- c.invalidations + Hashtbl.length c.tbl;
      Hashtbl.reset c.tbl;
      c.head <- None;
      c.tail <- None)

let stats c =
  locked c (fun () ->
      {
        hits = c.hits;
        misses = c.misses;
        evictions = c.evictions;
        insertions = c.insertions;
        invalidations = c.invalidations;
        size = Hashtbl.length c.tbl;
        capacity = c.cap;
      })

let reset_stats c =
  locked c (fun () ->
      c.hits <- 0;
      c.misses <- 0;
      c.evictions <- 0;
      c.insertions <- 0;
      c.invalidations <- 0)

let stats_to_string (s : stats) =
  let total = s.hits + s.misses in
  let rate = if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total in
  Printf.sprintf "hits=%d misses=%d hit_rate=%.2f evictions=%d size=%d/%d" s.hits
    s.misses rate s.evictions s.size s.capacity
