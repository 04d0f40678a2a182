(** Parallelization legality from the dependence graph: a loop's
    iterations are independent (w.r.t. array traffic) when no dependence
    is carried by it — the optimization the paper's dependence
    translations unlock (§4.2 relaxation sweeps, §4.4 pack loops). Scalar
    reductions are outside this check's scope. *)

(** [parallel_loops t] decides for every loop of the program. *)
val parallel_loops : Analysis.Pipeline.analysis -> (Ir.Loops.loop * bool) list

val report : Analysis.Pipeline.analysis -> string
