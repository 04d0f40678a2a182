(* Source-level identifiers: interned strings with O(1) comparison.

   Interning keeps identifier equality cheap in the renaming and
   classification passes, which compare variables constantly. *)

type t = { name : string; id : int }

(* The intern table is shared by every domain that parses (a batch
   parses its files in parallel), so it is read and grown under [lock]:
   an unguarded race can intern one name twice, and the program that got
   the second id then has two distinct variables of that name. *)
let table : (string, t) Hashtbl.t = Hashtbl.create 64
let next = ref 0
let lock = Mutex.create ()

let of_string name =
  Mutex.lock lock;
  let t =
    match Hashtbl.find_opt table name with
    | Some t -> t
    | None ->
      let t = { name; id = !next } in
      incr next;
      Hashtbl.add table name t;
      t
  in
  Mutex.unlock lock;
  t

let name t = t.name
let compare a b = Stdlib.compare a.id b.id
let equal a b = a.id = b.id
let hash t = t.id
let pp fmt t = Format.pp_print_string fmt t.name

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
