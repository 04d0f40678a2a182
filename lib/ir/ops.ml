(* Operator vocabulary shared by the surface AST and the tuple IR.

   The set matches the paper's Figure 2 table: AD, SB, MP, DV, EX, NG,
   plus the comparisons used by loop-exit conditions. *)

type binop = Add | Sub | Mul | Div | Exp

type relop = Lt | Le | Gt | Ge | Eq | Ne

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Exp -> "^"

let relop_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

(* [negate_relop r] is the relation that holds exactly when [r] does not:
   used to normalize loop-exit conditions (paper §5.2 table). *)
let negate_relop = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

(* --- integer semantics ---

   Programs compute over Z: an operation whose exact result leaves the
   native 63-bit range, or a division by zero, traps instead of
   wrapping, so every run that does not trap agrees with the exact
   arithmetic of the analyses. *)

type trap = Overflow | Zero_divisor

exception Trap of trap

let trap_to_string = function
  | Overflow -> "overflow: a value leaves the 63-bit integer range"
  | Zero_divisor -> "division by zero"

let overflow () = raise (Trap Overflow)

(* A sum leaves the range exactly when the operands share a sign and the
   native result does not. *)
let add a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then overflow () else s

let neg a = if a = min_int then overflow () else -a
let sub a b = if b = min_int then if a < 0 then a - b else overflow () else add a (-b)

(* The [min_int] corners come before the division-based check, since
   [min_int * -1] wraps and [min_int / -1] traps natively. *)
let mul x y =
  if x = 0 || y = 0 then 0
  else if x = 1 then y
  else if y = 1 then x
  else if x = -1 then neg y
  else if y = -1 then neg x
  else if x = min_int || y = min_int then overflow ()
  else begin
    let p = x * y in
    if p / y = x then p else overflow ()
  end

(* Truncating; [min_int / -1] is the one quotient past the range. *)
let div a b =
  if b = 0 then raise (Trap Zero_divisor) else if b = -1 then neg a else a / b

(* By squaring. A base is squared only while exponent bits remain, and
   each remaining bit multiplies its square into the result, so a
   square that overflows means a power that overflows. *)
let exp a b =
  let rec go acc a b =
    let acc = if b land 1 = 1 then mul acc a else acc in
    if b lsr 1 = 0 then acc else go acc (mul a a) (b lsr 1)
  in
  if b < 0 then 0 else go 1 a b

let eval_binop = function Add -> add | Sub -> sub | Mul -> mul | Div -> div | Exp -> exp

let eval_relop op a b =
  match op with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b
