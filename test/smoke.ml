(* Quick manual smoke driver: dune exec test/smoke.exe *)

let show title src =
  Printf.printf "=== %s ===\n" title;
  let ssa = Ir.Ssa.of_source src in
  (match Ir.Ssa.check ssa with
   | [] -> ()
   | errs ->
     List.iter (fun d -> print_endline (Ir.Diag.to_string d)) errs;
     failwith "SSA check failed");
  let t = Analysis.Pipeline.analyze ssa in
  print_endline (Analysis.Pipeline.report_of t)

let () =
  show "Fig 1 (L7)" {|
j = n
L7: loop
  i = j + c
  j = i + k
endloop
|};
  show "Fig 3 (L8): conditional same-offset" {|
i = 1
L8: loop
  if ?? then
    i = i + 2
  else
    i = i + 2
  endif
endloop
|};
  show "Fig 4 (L10): wrap-around" {|
k = 9
j = 8
i = 1
L10: loop
  k = j
  j = i
  i = i + 1
endloop
|};
  show "Fig 5 (L13): periodic" {|
j = 1
k = 2
l = 3
L13: loop
  t = j
  j = k
  k = l
  l = t
  A(2 * j) = A(2 * k)
endloop
|};
  show "Fig 6 (L16): monotonic strict" {|
k = 0
L16: loop
  if ?? then
    k = k + 1
  else
    k = k + 2
  endif
endloop
|};
  show "L15: conditional monotonic" {|
k = 0
L15: for i = 1 to n loop
  if ?? then
    k = k + 1
    B(k) = A(i)
  endif
endloop
|};
  show "Fig 10: mixed monotonic" {|
k = 0
L15: for i = 1 to n loop
  F(k) = A(i)
  if ?? then
    C(k) = D(i)
    k = k + 1
    B(k) = A(i)
    E(i) = B(k)
  endif
  G(i) = F(k)
endloop
|};
  show "L14: polynomial and geometric" {|
j = 2
k = 4
l = 3
m = 0
L14: for i = 1 to n loop
  j = j + i
  k = k + j + 1
  l = l * 2 + 1
  m = 3 * m + 2 * i + 1
endloop
|};
  show "L12: flip-flop" {|
j = 1
jold = 2
L12: for iter = 1 to n loop
  j = 3 - j
  jold = 3 - jold
endloop
|};
  show "Fig 7/8 (L17/L18): nested" {|
k = 0
L17: loop
  i = 1
  L18: loop
    k = k + 2
    if i > 100 exit
    i = i + 1
  endloop
  k = k + 2
endloop
|};
  show "Fig 9 (L19/L20): triangular" {|
j = 0
L19: for i = 1 to n loop
  j = j + i
  L20: for k = 1 to i loop
    j = j + 1
  endloop
endloop
|};
  show "L2: mutual induction" {|
j = n
L2: loop
  i = j + c
  j = i + k
endloop
|};
  show "L21: dependence example" {|
i = 0
j = 3
L21: loop
  i = i + 1
  A(i) = A(j - i)
  j = j + 2
endloop
|}

let show_deps title src =
  Printf.printf "=== deps: %s ===\n" title;
  let t = Analysis.Pipeline.analyze (Ir.Ssa.of_source src) in
  let g = Dependence.Dep_graph.build ~include_input:false t in
  print_endline (Dependence.Dep_graph.to_string t g)

let () =
  show_deps "L22 periodic relaxation" {|
j = 1
k = 2
l = 3
L22: loop
  A(2 * j) = A(2 * k)
  temp = j
  j = k
  k = l
  l = temp
endloop
|};
  show_deps "L23/L24 unnormalized" {|
L23: for i = 1 to n loop
  L24: for j = i + 1 to n loop
    A(i, j) = A(i - 1, j)
  endloop
endloop
|};
  show_deps "Fig 10 monotonic deps" {|
k = 0
L15: for i = 1 to n loop
  F(k) = A(i)
  if ?? then
    C(k) = D(i)
    k = k + 1
    B(k) = A(i)
    E(i) = B(k)
  endif
  G(i) = F(k)
endloop
|};
  show_deps "simple distance" {|
L1: for i = 1 to 100 loop
  A(i) = A(i - 1) + 1
endloop
|};
  show_deps "independent strides" {|
L1: for i = 1 to 100 loop
  A(2 * i) = A(2 * i + 1)
endloop
|}
