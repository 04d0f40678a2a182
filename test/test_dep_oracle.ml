(* The dependence-layer soundness oracle: run the program, record every
   array access with its address, time stamp and loop iteration vector,
   compute the *real* dependences from the trace, and require the static
   dependence graph to cover every one of them — including the observed
   direction vector over every common loop. *)

module Pipeline = Analysis.Pipeline
module Dep_graph = Dependence.Dep_graph
module Deptest = Dependence.Deptest

type event = {
  time : int;
  ref_id : Ir.Instr.Id.t;
  write : bool;
  address : string * int list;
  iters : (int * int) list; (* enclosing loops, outer first: (loop, h) *)
}

let trace ?(params = fun _ -> 0) ?(rand = fun () -> false) ssa =
  let loops = Ir.Ssa.loops ssa in
  let cfg = Ir.Ssa.cfg ssa in
  let events = ref [] in
  let time = ref 0 in
  let enclosing label =
    let rec up acc = function
      | None -> acc
      | Some id -> up (id :: acc) (Ir.Loops.loop loops id).Ir.Loops.parent
    in
    up [] (Ir.Loops.innermost loops label)
  in
  let on_instr st (instr : Ir.Instr.t) _v =
    let record write array idx_count =
      incr time;
      let idx =
        List.init idx_count (fun i -> Ir.Interp.value st instr.Ir.Instr.args.(i))
      in
      let label = Ir.Cfg.block_of_instr cfg instr.Ir.Instr.id in
      events :=
        {
          time = !time;
          ref_id = instr.Ir.Instr.id;
          write;
          address = (Ir.Ident.name array, idx);
          iters = List.map (fun l -> (l, Ir.Interp.loop_iter st l)) (enclosing label);
        }
        :: !events
    in
    match instr.Ir.Instr.op with
    | Ir.Instr.Aload a -> record false a (Array.length instr.Ir.Instr.args)
    | Ir.Instr.Astore a -> record true a (Array.length instr.Ir.Instr.args - 1)
    | _ -> ()
  in
  let st = Ir.Interp.run ~fuel:300_000 ~on_instr ~params ~rand ssa in
  (st.Ir.Interp.outcome, List.rev !events)

(* The observed direction on every loop common to both refs, outer
   first. *)
let observed_vector (e1 : event) (e2 : event) common =
  List.filter_map
    (fun l ->
      match (List.assoc_opt l e1.iters, List.assoc_opt l e2.iters) with
      | Some h1, Some h2 -> Some (l, if h1 < h2 then `Lt else if h1 = h2 then `Eq else `Gt)
      | _ -> None)
    common

(* Some vector of the union admits the observed directions. *)
let admits (d : Deptest.dependence) observed =
  List.exists
    (fun v ->
      List.for_all
        (fun (l, dir) ->
          match List.assoc_opt l v with
          | None -> true
          | Some ds -> (
            match dir with
            | `Lt -> ds.Deptest.lt
            | `Eq -> ds.Deptest.eq
            | `Gt -> ds.Deptest.gt))
        observed)
    d.Deptest.vectors

let check_program ?(rand = fun () -> false) src =
  let ssa = Ir.Ssa.of_source src in
  let t = Pipeline.analyze ssa in
  let outcome, events = trace ~rand ssa in
  if outcome <> Ir.Interp.Halted then []
  else begin
    let edges = Dep_graph.build t in
    let edge_for src_id dst_id =
      List.find_opt
        (fun (e : Dep_graph.edge) ->
          e.Dep_graph.src.Dep_graph.instr = src_id
          && e.Dep_graph.dst.Dep_graph.instr = dst_id)
        edges
    in
    let refs_by_id =
      List.fold_left
        (fun acc (r : Dep_graph.array_ref) -> (r.Dep_graph.instr, r) :: acc)
        []
        (Dep_graph.collect_refs t)
    in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    (* All ordered event pairs touching the same cell with >= 1 write. *)
    let arr = Array.of_list events in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let e1 = arr.(i) and e2 = arr.(j) in
        if e1.address = e2.address && (e1.write || e2.write) then begin
          (* e1 executed first, so the (e1.ref -> e2.ref) edge must have
             survived the tests. *)
          match edge_for e1.ref_id e2.ref_id with
          | None ->
            fail "missing edge for real dependence on %s(%s)" (fst e1.address)
              (String.concat "," (List.map string_of_int (snd e1.address)))
          | Some edge -> (
            match edge.Dep_graph.outcome with
            | Deptest.Independent ->
              fail "edge claims independence but %s(%s) repeats" (fst e1.address)
                (String.concat "," (List.map string_of_int (snd e1.address)))
            | Deptest.Dependent d ->
              (* The observed direction vector must fit the union. *)
              let r1 = List.assoc e1.ref_id refs_by_id in
              let r2 = List.assoc e2.ref_id refs_by_id in
              let observed = observed_vector e1 e2 (Dep_graph.common_loops r1 r2) in
              if not (admits d observed) then
                fail "direction (%s) not allowed on %s"
                  (String.concat ", "
                     (List.map
                        (fun (_, dir) ->
                          match dir with `Lt -> "<" | `Eq -> "=" | `Gt -> ">")
                        observed))
                  (fst e1.address))
        end
      done
    done;
    List.rev !failures
  end

(* Handwritten corpus with tricky subscripts. *)
let corpus =
  [
    "L1: for i = 1 to 12 loop\n  A(i) = A(i - 1) + 1\nendloop";
    "L1: for i = 1 to 12 loop\n  A(2 * i) = A(2 * i + 1)\nendloop";
    "L1: for i = 1 to 12 loop\n  A(i) = A(13 - i)\nendloop";
    "L1: for i = 1 to 6 loop\n  L2: for j = 1 to 6 loop\n    A(i, j) = A(i - 1, j + 1)\n  endloop\nendloop";
    "L1: for i = 1 to 6 loop\n  L2: for j = i + 1 to 6 loop\n    A(i, j) = A(i - 1, j)\n  endloop\nendloop";
    "iml = 9\nL9: for i = 1 to 9 loop\n  A(i) = A(iml) + 1\n  iml = i\nendloop";
    "j = 1\nk = 2\nl = 3\nL22: for it = 1 to 9 loop\n  A(2 * j) = A(2 * k)\n  tt = j\n  j = k\n  k = l\n  l = tt\nendloop";
    "k = 0\nL15: for i = 1 to 12 loop\n  F(k) = A(i)\n  if ?? then\n    C(k) = D(i)\n    k = k + 1\n    B(k) = A(i)\n  endif\n  G(i) = F(k)\nendloop";
    "s = 0\nL1: for i = 1 to 8 loop\n  A(s) = i\n  s = s + 2\nendloop";
    "L1: for i = 1 to 10 loop\n  A(5) = A(5) + i\nendloop";
    (* A subscript from a sibling loop holds that loop's exit value: the
       last write of L3 in one L0 iteration meets L2's first in the next. *)
    "v = 5\nL0: for g = 1 to 6 loop\n  L1: for k = 1 to 4 loop\n    L2: for j = 1 to 5 loop\n      A(v) = 1\n      v = v - 1\n    endloop\n    L3: for j = 1 to 5 loop\n      A(v) = 2\n    endloop\n  endloop\nendloop";
    (* k + i grows in every iteration, k only in some: the stored sum is
       no update of k's family, so A(k) repeats. *)
    "k = 0\nL1: for i = 1 to 8 loop\n  if i > 4 then\n    k = k + 1\n  endif\n  A(k) = k + i\nendloop";
    (* The first value of b in L1 is a from the previous L0 iteration:
       periodic against a wrap-around whose initial value is not tested. *)
    "a = -2\nb = 2\nc = -1\nL0: for g = 1 to 7 loop\n  a = -2 - a\n  L1: for i = 1 to 2 loop\n    x = A(b)\n    A(a) = x\n    b = c\n  endloop\n  b = a\nendloop";
    (* d in L1 steps from a wrap-around base: its first L0 iteration
       runs 2, 4, 6 and meets A(4). *)
    "d = 2\nL0: for g = 1 to 3 loop\n  L1: for i = 1 to 3 loop\n    A(d) = 1\n    d = d + 2\n  endloop\n  A(4) = 2\n  d = 3\nendloop";
    (* A monotonic counter holds within one activation of its loop: F(1)
       written at (i=1, j=3) is read at (i=2, j=1), direction (<, >) —
       whether k restarts in each L1 iteration or keeps growing. *)
    "L1: for i = 1 to 3 loop\n  k = 0\n  L2: for j = 1 to 4 loop\n    if ?? then\n      k = k + 1\n    endif\n    F(k) = F(k) + 1\n  endloop\nendloop";
    "k = 0\nL1: for i = 1 to 3 loop\n  L2: for j = 1 to 4 loop\n    if ?? then\n      k = k + 1\n    endif\n    F(k) = F(k) + 1\n  endloop\nendloop";
  ]

let test_corpus () =
  List.iteri
    (fun n src ->
      List.iter
        (fun seed ->
          let state = Random.State.make [| seed |] in
          match check_program ~rand:(fun () -> Random.State.bool state) src with
          | [] -> ()
          | f :: _ -> Alcotest.failf "corpus %d (seed %d): %s" n seed f)
        [ 1; 2; 3 ])
    corpus

let prop_random_programs_sound =
  Helpers.qtest ~count:80 "dependence graph covers the real dependences"
    Gen.gen_program (fun p ->
      let src = Ir.Ast.to_string p in
      let state = Random.State.make [| Hashtbl.hash src |] in
      match check_program ~rand:(fun () -> Random.State.bool state) src with
      | [] -> true
      | f :: _ -> QCheck2.Test.fail_reportf "program:\n%s\n%s" src f)

let suite =
  ( "dep-oracle",
    [
      Helpers.case "corpus" test_corpus;
      prop_random_programs_sound;
    ] )
