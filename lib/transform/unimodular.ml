(* Unimodular loop transformations over distance vectors (paper §6.1:
   "It may also force compilers to implement loop skewing and loop
   interchanging as a single transformation ... currently in vogue as
   unimodular transformations [WL91, Ban91]").

   A transformation T (an integer matrix with |det T| = 1) applied to the
   iteration space maps each dependence distance vector d to T·d; it is
   legal iff every transformed vector stays lexicographically positive.
   This module provides the legality check, the classic generator
   matrices, and the search the paper alludes to: make a nest
   interchangeable by skewing first. *)

type matrix = int array array (* row-major, square *)

let identity n = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

let interchange_2d : matrix = [| [| 0; 1 |]; [| 1; 0 |] |]

(* Skew the inner loop by [f] times the outer index. *)
let skew_2d f : matrix = [| [| 1; 0 |]; [| f; 1 |] |]

let multiply (a : matrix) (b : matrix) : matrix =
  let n = Array.length a in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref 0 in
          for k = 0 to n - 1 do
            acc := !acc + (a.(i).(k) * b.(k).(j))
          done;
          !acc))

let apply_vec (t : matrix) (d : int array) : int array =
  Array.init (Array.length t) (fun i ->
      let acc = ref 0 in
      Array.iteri (fun j dj -> acc := !acc + (t.(i).(j) * dj)) d;
      !acc)

let determinant_2d (t : matrix) = (t.(0).(0) * t.(1).(1)) - (t.(0).(1) * t.(1).(0))

let is_unimodular_2d t = abs (determinant_2d t) = 1

let lex_positive (d : int array) =
  let rec go i =
    if i >= Array.length d then false (* the zero vector is not a carried dep *)
    else if d.(i) > 0 then true
    else if d.(i) < 0 then false
    else go (i + 1)
  in
  go 0

let lex_nonnegative (d : int array) = Array.for_all (fun x -> x = 0) d || lex_positive d

(* [legal t dvs] holds when every (carried) distance vector stays
   lexicographically positive under [t]. *)
let legal (t : matrix) (dvs : int array list) =
  List.for_all
    (fun d -> (not (lex_positive d)) || lex_positive (apply_vec t d))
    dvs

(* [make_interchangeable dvs] searches for a skew factor f such that
   skewing then interchanging is legal: the compound transformation
   interchange * skew(f). Returns the compound matrix. This is the
   paper's "loop skewing and loop interchanging as a single
   transformation" on the triangular example: distance (1, -1) needs
   f >= 1. *)
let make_interchangeable ?(max_skew = 8) (dvs : int array list) : matrix option =
  let rec try_f f =
    if f > max_skew then None
    else begin
      let t = multiply interchange_2d (skew_2d f) in
      if legal t dvs then Some t else try_f (f + 1)
    end
  in
  try_f 0

let pp_matrix fmt (t : matrix) =
  Format.fprintf fmt "@[<v>";
  Array.iter
    (fun row ->
      Format.fprintf fmt "[%s]@,"
        (String.concat " " (Array.to_list (Array.map string_of_int row))))
    t;
  Format.fprintf fmt "@]"
