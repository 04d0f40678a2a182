(** Reference interpreter for SSA-form programs — the oracle the
    classification tests run against.

    Semantics notes: all phis of a block read their operands on the
    incoming edge simultaneously (so rotation patterns behave); '??'
    conditions read the supplied random stream; arrays are unbounded and
    zero-initialized; execution stops after [fuel] instruction steps, or
    at the first instruction that traps ({!Ops.Trap}: overflow of the
    native range or division by zero), which writes no value. *)

type outcome =
  | Halted
  | Out_of_fuel
  | Trapped of Ops.trap * Instr.Id.t  (** the trap and the instruction *)

type state = {
  ssa : Ssa.t;
  env : int Instr.Id.Table.t;
  params : Ident.t -> int;
  arrays : (Ident.t * int list, int) Hashtbl.t;
  rand : unit -> bool;
  iters : int array;
  activations : int array;
  mutable steps : int;
  mutable outcome : outcome;
}

(** [value st v] is the runtime value of an operand. *)
val value : state -> Instr.value -> int

(** [loop_iter st loop_id] is the 0-based iteration number of the loop's
    current activation (the paper's counter h). *)
val loop_iter : state -> int -> int

(** [loop_activation st loop_id] counts how many times the loop has been
    entered from outside (1-based once entered); monotonicity claims hold
    within one activation. *)
val loop_activation : state -> int -> int

val array_get : state -> Ident.t -> int list -> int
val array_set : state -> Ident.t -> int list -> int -> unit

(** [run ssa] executes from the entry block. [on_instr] is called after
    every instruction with the state and the computed value; [arrays]
    preloads cells; [params] supplies program inputs. *)
val run :
  ?fuel:int ->
  ?on_instr:(state -> Instr.t -> int -> unit) ->
  ?params:(Ident.t -> int) ->
  ?rand:(unit -> bool) ->
  ?arrays:((Ident.t * int list) * int) list ->
  Ssa.t ->
  state

(** [trace_of ssa targets] runs and collects, per target def, the
    (innermost-loop iteration, value) observations in order. *)
val trace_of :
  ?fuel:int ->
  ?params:(Ident.t -> int) ->
  ?rand:(unit -> bool) ->
  ?arrays:((Ident.t * int list) * int) list ->
  Ssa.t ->
  Instr.Id.Set.t ->
  state * (int * int) list Instr.Id.Map.t
