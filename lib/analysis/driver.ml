(* The whole-program analysis now lives in [Pipeline]: [Pipeline.analyze]
   is the entry point and [Pipeline.analysis] the one analysis record.
   This identity conversion stays only because perfbench calls it, and
   perfbench changes only together with the benchmark; delete it then. *)

let of_analysis (a : Pipeline.analysis) : Pipeline.analysis = a
