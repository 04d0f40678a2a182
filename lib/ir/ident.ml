(* Source-level identifiers: interned strings with O(1) comparison.

   Interning keeps identifier equality cheap in the renaming and
   classification passes, which compare variables constantly. *)

type t = { name : string; id : int }

let table : (string, t) Hashtbl.t = Hashtbl.create 64
let next = ref 0

let of_string name =
  match Hashtbl.find_opt table name with
  | Some t -> t
  | None ->
    let t = { name; id = !next } in
    incr next;
    Hashtbl.add table name t;
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
