(** Operator vocabulary shared by the surface AST and the tuple IR — the
    paper's Figure 2 table (AD, SB, MP, DV, EX, NG) plus the comparisons
    used by loop-exit conditions — and the one integer semantics. *)

type binop = Add | Sub | Mul | Div | Exp

type relop = Lt | Le | Gt | Ge | Eq | Ne

val binop_to_string : binop -> string
val relop_to_string : relop -> string

(** [negate_relop r] holds exactly when [r] does not (used to normalize
    loop-exit conditions, paper §5.2). *)
val negate_relop : relop -> relop

(** {1 Integer semantics}

    Programs compute over Z. An operation whose exact result leaves the
    native 63-bit range, or a division by zero, raises {!Trap} instead
    of wrapping. [div] truncates toward zero; [exp] with a negative
    exponent is 0. *)

type trap = Overflow | Zero_divisor

exception Trap of trap

val trap_to_string : trap -> string

(** The checked operations. @raise Trap *)
val add : int -> int -> int

val sub : int -> int -> int
val mul : int -> int -> int
val neg : int -> int
val div : int -> int -> int
val exp : int -> int -> int

(** [eval_binop op] is [op]'s checked operation. @raise Trap *)
val eval_binop : binop -> int -> int -> int

val eval_relop : relop -> int -> int -> bool
