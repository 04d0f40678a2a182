(* 64-bit FNV-1a. Each absorbed string is framed by its length so that
   multi-part keys cannot collide by re-splitting the same bytes. *)

type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let feed_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* A plain loop: a closure over the accumulator would box every
   intermediate hash. *)
let feed_bytes h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := feed_byte !h (Char.code s.[i])
  done;
  !h

let feed_int h n =
  let h = ref h in
  for i = 0 to 7 do
    h := feed_byte !h ((n lsr (i * 8)) land 0xff)
  done;
  !h

let feed_string h s = feed_bytes (feed_int h (String.length s)) s
let feed_bool h b = feed_byte h (if b then 1 else 0)
let of_strings parts = List.fold_left feed_string empty parts
let equal = Int64.equal
let compare = Int64.compare
let hash d = Int64.to_int d land max_int
let to_hex d = Printf.sprintf "%016Lx" d
