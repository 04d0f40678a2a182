(** Lowering from the structured AST to the tuple-IR CFG.

    'for' loops desugar per the paper's §5.2 countable-loop shape: the
    bound is evaluated once into a compiler temp, the exit test sits at
    the top of the body, the increment at the bottom. Loop-header blocks
    carry their source label for the analyses' reports. *)

(** [lower p] builds the CFG of a program and records each top-level
    statement's first label ({!Cfg.stmt_starts}).
    @raise Failure on an 'exit' outside any loop. *)
val lower : Ast.program -> Cfg.t

(** [lower_source src] parses and lowers. *)
val lower_source : string -> Cfg.t
