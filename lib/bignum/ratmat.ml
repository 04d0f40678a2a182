type t = { rows : int; cols : int; data : Rat.t array }
(* Row-major dense storage. *)

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Ratmat.create";
  { rows; cols; data = Array.make (rows * cols) Rat.zero }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let of_rows = function
  | [] -> invalid_arg "Ratmat.of_rows: empty"
  | first :: _ as rows_l ->
    let cols = List.length first in
    if cols = 0 then invalid_arg "Ratmat.of_rows: empty row";
    let rows = List.length rows_l in
    let m = create rows cols in
    List.iteri
      (fun i row ->
        if List.length row <> cols then invalid_arg "Ratmat.of_rows: ragged";
        List.iteri (fun j v -> m.data.((i * cols) + j) <- v) row)
      rows_l;
    m

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Ratmat.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Ratmat.set: out of bounds";
  m.data.((i * m.cols) + j) <- v

let copy m = { m with data = Array.copy m.data }

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 Rat.equal a.data b.data

let identity n = init n n (fun i j -> if i = j then Rat.one else Rat.zero)

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Ratmat.add";
  init a.rows a.cols (fun i j -> Rat.add (get a i j) (get b i j))

let mul a b =
  if a.cols <> b.rows then invalid_arg "Ratmat.mul: dimension mismatch";
  init a.rows b.cols (fun i j ->
      let acc = ref Rat.zero in
      for k = 0 to a.cols - 1 do
        acc := Rat.add !acc (Rat.mul (get a i k) (get b k j))
      done;
      !acc)

let scale c m = init m.rows m.cols (fun i j -> Rat.mul c (get m i j))

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Ratmat.mul_vec";
  Array.init m.rows (fun i ->
      let acc = ref Rat.zero in
      for j = 0 to m.cols - 1 do
        acc := Rat.add !acc (Rat.mul (get m i j) v.(j))
      done;
      !acc)

(* Gauss-Jordan elimination of [m] in place to reduced row echelon
   form, taking pivots in columns [0, cols) only: the columns past them
   ride along (an augmented right side or identity). Any shape and rank;
   returns the pivot columns in order, pivot k in row k. *)
let eliminate m ~cols =
  let pivots = ref [] in
  let row = ref 0 in
  for c = 0 to cols - 1 do
    let r = !row in
    let p = ref r in
    while !p < m.rows && Rat.is_zero (get m !p c) do
      incr p
    done;
    if !p < m.rows then begin
      (* Columns left of [c] are zero in rows [r] and below. *)
      for j = c to m.cols - 1 do
        let tmp = get m r j in
        set m r j (get m !p j);
        set m !p j tmp
      done;
      let inv_pivot = Rat.inv (get m r c) in
      for j = c to m.cols - 1 do
        set m r j (Rat.mul inv_pivot (get m r j))
      done;
      for i = 0 to m.rows - 1 do
        if i <> r && not (Rat.is_zero (get m i c)) then begin
          let factor = get m i c in
          for j = c to m.cols - 1 do
            set m i j (Rat.sub (get m i j) (Rat.mul factor (get m r j)))
          done
        end
      done;
      pivots := c :: !pivots;
      incr row
    end
  done;
  List.rev !pivots

(* Solve [m x = b] for every column of [b] at once: eliminate [m | b]
   and read the right block off a full-rank result. *)
let solve_block m b =
  let n = m.rows in
  let work = init n (n + b.cols) (fun i j -> if j < n then get m i j else get b i (j - n)) in
  if List.length (eliminate work ~cols:n) < n then None
  else Some (init n b.cols (fun i j -> get work i (n + j)))

let inverse m =
  if m.rows <> m.cols then invalid_arg "Ratmat.inverse: not square";
  solve_block m (identity m.rows)

let solve m b =
  if m.rows <> m.cols then invalid_arg "Ratmat.solve: not square";
  if Array.length b <> m.rows then invalid_arg "Ratmat.solve: bad vector";
  Option.map
    (fun x -> Array.init m.rows (fun i -> get x i 0))
    (solve_block m (init m.rows 1 (fun i _ -> b.(i))))

let determinant m =
  if m.rows <> m.cols then invalid_arg "Ratmat.determinant: not square";
  let n = m.rows in
  let work = copy m in
  let det = ref Rat.one in
  (try
     for c = 0 to n - 1 do
       (* Partial pivot. *)
       let pivot = ref (-1) in
       for r = c to n - 1 do
         if !pivot < 0 && not (Rat.is_zero (get work r c)) then pivot := r
       done;
       if !pivot < 0 then begin
         det := Rat.zero;
         raise Exit
       end;
       if !pivot <> c then begin
         for j = 0 to n - 1 do
           let tmp = get work c j in
           set work c j (get work !pivot j);
           set work !pivot j tmp
         done;
         det := Rat.neg !det
       end;
       det := Rat.mul !det (get work c c);
       let inv_pivot = Rat.inv (get work c c) in
       for i = c + 1 to n - 1 do
         let factor = Rat.mul (get work i c) inv_pivot in
         if not (Rat.is_zero factor) then
           for j = c to n - 1 do
             set work i j (Rat.sub (get work i j) (Rat.mul factor (get work c j)))
           done
       done
     done
   with Exit -> ());
  !det

let vandermonde n =
  init (n + 1) (n + 1) (fun h k ->
      if k = 0 then Rat.one else Rat.pow (Rat.of_int h) k)

let geometric_vandermonde n g =
  init (n + 2) (n + 2) (fun h k ->
      if k <= n then
        if k = 0 then Rat.one else Rat.pow (Rat.of_int h) k
      else Rat.pow g h)

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[<h>[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt ",@ ";
      Rat.pp fmt (get m i j)
    done;
    Format.fprintf fmt "]@]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
