(** Direct interpreter for the surface AST — an independent
    implementation of the language semantics used to cross-validate the
    lowering + SSA pipeline (AST semantics must equal SSA-interpreter
    semantics on every program). *)

type state = {
  env : (Ident.t, int) Hashtbl.t;
  arrays : (Ident.t * int list, int) Hashtbl.t;
  params : Ident.t -> int;
  rand : unit -> bool;
  mutable steps : int;
  fuel : int;
}

type outcome = Halted | Out_of_fuel | Trapped of Ops.trap

val run :
  ?fuel:int ->
  ?params:(Ident.t -> int) ->
  ?rand:(unit -> bool) ->
  ?arrays:((Ident.t * int list) * int) list ->
  Ast.program ->
  state * outcome

(** [array_footprint st] is the final array state, sorted, in the same
    shape the SSA interpreter's tests use. *)
val array_footprint : state -> (string * int list * int) list
