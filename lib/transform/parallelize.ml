(* Parallelization/vectorization legality from the dependence graph: a
   loop can run its iterations in parallel when no dependence is carried
   by it — the optimization the paper's dependence translations unlock
   (e.g. the relaxation sweep of §4.2 once '=' is disproved on the plane
   subscripts, and the pack loop of §4.4 once the write subscript is
   strictly monotonic). *)

module Dep_graph = Dependence.Dep_graph
module Pipeline = Analysis.Pipeline

(* [parallel_loops t] analyzes the program and returns, for every loop,
   whether its iterations are independent. *)
let parallel_loops (t : Pipeline.analysis) : (Ir.Loops.loop * bool) list =
  let edges = Dep_graph.build t in
  let loops = Ir.Ssa.loops t.Pipeline.ssa in
  List.map
    (fun (lp : Ir.Loops.loop) -> (lp, not (Dep_graph.carries edges lp.Ir.Loops.id)))
    (Ir.Loops.postorder loops)

let report t =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((lp : Ir.Loops.loop), ok) ->
      Buffer.add_string buf
        (Printf.sprintf "loop %s: %s\n" lp.Ir.Loops.name
           (if ok then "parallelizable (no carried dependences)"
            else "serial (carried dependences)")))
    (parallel_loops t);
  Buffer.contents buf
