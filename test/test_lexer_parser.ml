(* The loop-language front end. *)

module Lexer = Ir.Lexer
module Parser = Ir.Parser
module Ast = Ir.Ast
module Ops = Ir.Ops

let tokens src =
  List.map (fun (t : Lexer.located) -> t.Lexer.token) (Lexer.tokenize src)

let test_tokens () =
  let open Lexer in
  Alcotest.(check bool) "arith" true
    (tokens "x = a + 2*b - c/d ^ e"
    = [
        IDENT "x"; ASSIGN; IDENT "a"; PLUS; INT 2; STAR; IDENT "b"; MINUS; IDENT "c";
        SLASH; IDENT "d"; CARET; IDENT "e"; EOF;
      ]);
  Alcotest.(check bool) "relops" true
    (tokens "< <= > >= == != <> ??"
    = [ LT; LE; GT; GE; EQ; NE; NE; UNKNOWN_COND; EOF ]);
  Alcotest.(check bool) "keywords case-insensitive" true
    (tokens "LOOP EndLoop FOR to BY if THEN else endif exit"
    = [
        KW_LOOP; KW_ENDLOOP; KW_FOR; KW_TO; KW_BY; KW_IF; KW_THEN; KW_ELSE; KW_ENDIF;
        KW_EXIT; EOF;
      ]);
  Alcotest.(check bool) "comments" true
    (tokens "a = 1 # comment here\nb = 2 // another"
    = [ IDENT "a"; ASSIGN; INT 1; IDENT "b"; ASSIGN; INT 2; EOF ])

let test_positions () =
  match Lexer.tokenize "a = 1\n  b = 2" with
  | [ _; _; _; b; _; _; _ ] ->
    Alcotest.(check int) "line" 2 b.Lexer.pos.Lexer.line;
    Alcotest.(check int) "col" 3 b.Lexer.pos.Lexer.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lex_errors () =
  Alcotest.(check bool) "bad char" true
    (match Lexer.tokenize "a = $" with
     | exception Lexer.Lex_error (_, pos) -> pos.Lexer.col = 5
     | _ -> false)

let parse src = Parser.parse src

let test_precedence () =
  (* a + b * c parses as a + (b * c). *)
  let p = parse "x = a + b * c" in
  (match p.Ast.stmts with
   | [ Ast.Assign (_, Ast.Binop (Ops.Add, Ast.Var _, Ast.Binop (Ops.Mul, _, _))) ] -> ()
   | _ -> Alcotest.fail "precedence add/mul");
  let p = parse "x = a * b + c" in
  (match p.Ast.stmts with
   | [ Ast.Assign (_, Ast.Binop (Ops.Add, Ast.Binop (Ops.Mul, _, _), Ast.Var _)) ] -> ()
   | _ -> Alcotest.fail "precedence mul/add");
  (* Left associativity of subtraction. *)
  let p = parse "x = a - b - c" in
  (match p.Ast.stmts with
   | [ Ast.Assign (_, Ast.Binop (Ops.Sub, Ast.Binop (Ops.Sub, _, _), _)) ] -> ()
   | _ -> Alcotest.fail "sub associativity");
  (* Exponentiation binds tighter and is right-associative. *)
  let p = parse "x = a ^ b ^ c" in
  (match p.Ast.stmts with
   | [ Ast.Assign (_, Ast.Binop (Ops.Exp, Ast.Var _, Ast.Binop (Ops.Exp, _, _))) ] -> ()
   | _ -> Alcotest.fail "exp associativity");
  (* Unary minus. *)
  let p = parse "x = -a * b" in
  (match p.Ast.stmts with
   | [ Ast.Assign (_, Ast.Binop (Ops.Mul, Ast.Neg _, _)) ] -> ()
   | _ -> Alcotest.fail "unary minus binds to factor")

let test_structures () =
  let p = parse {|
L1: loop
  if x < 10 then
    x = x + 1
  else
    x = 0
  endif
  if x > 5 exit
endloop
A(i, j) = B(i) + 1
|} in
  match p.Ast.stmts with
  | [ Ast.Loop ("L1", [ Ast.If _; Ast.Exit_if _ ]); Ast.Astore (_, [ _; _ ], _) ] -> ()
  | _ -> Alcotest.fail "structure mismatch"

let test_for_forms () =
  (match (parse "for i = 1 to n loop endloop").Ast.stmts with
   | [ Ast.For { step = 1; lo = Ast.Int 1; _ } ] -> ()
   | _ -> Alcotest.fail "default step");
  (match (parse "for i = n to 1 by -2 loop endloop").Ast.stmts with
   | [ Ast.For { step = -2; _ } ] -> ()
   | _ -> Alcotest.fail "negative step");
  (match (parse "L9: for i = 1 to n loop endloop").Ast.stmts with
   | [ Ast.For { name = "L9"; _ } ] -> ()
   | _ -> Alcotest.fail "labelled for");
  (* Unlabelled loops get fresh names. *)
  match (parse "loop endloop loop endloop").Ast.stmts with
  | [ Ast.Loop (a, _); Ast.Loop (b, _) ] ->
    Alcotest.(check bool) "distinct" true (a <> b)
  | _ -> Alcotest.fail "two loops"

let test_parse_errors () =
  let fails src =
    match Parser.parse_result src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" src
  in
  fails "x = ";
  fails "loop";
  fails "if x then y = 1";
  fails "for i = 1 loop endloop";
  fails "for i = 1 to 2 by 0 loop endloop";
  fails "x = (1 + 2";
  fails "endloop";
  fails "if ?? y = 1 endif"

let test_roundtrip () =
  (* parse |> pretty-print |> parse is stable. *)
  let sources =
    [
      "j = n\nL7: loop\n  i = j + c\n  j = i + k\nendloop";
      "for i = 1 to n loop\n  A(i) = A(i - 1) + 1\nendloop";
      "if ?? then\n  x = 1\nelse\n  x = 2\nendif";
      "k = 0\nloop\n  k = k + 2\n  if k > 10 exit\nendloop";
    ]
  in
  List.iter
    (fun src ->
      let p1 = parse src in
      let printed = Ast.to_string p1 in
      let p2 = parse printed in
      Alcotest.(check string) "stable print" printed (Ast.to_string p2))
    sources

let prop_parser_total =
  (* Arbitrary input only ever raises the two documented exceptions. *)
  Helpers.qtest ~count:500 "parser is total" QCheck2.Gen.(string_size (int_range 0 60))
    (fun s ->
      match Parser.parse s with
      | _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception Parser.Parse_error _ -> true)

let prop_token_soup =
  (* Sequences of valid tokens never crash either. *)
  Helpers.qtest ~count:300 "token soup"
    QCheck2.Gen.(
      list_size (int_range 0 30)
        (oneofl
           [ "loop"; "endloop"; "for"; "to"; "by"; "if"; "then"; "else"; "endif";
             "exit"; "+"; "-"; "*"; "/"; "^"; "("; ")"; ","; ":"; "="; "=="; "!=";
             "<"; "<="; ">"; ">="; "??"; "x"; "A"; "0"; "42" ]))
    (fun toks ->
      let s = String.concat " " toks in
      match Parser.parse s with
      | _ -> true
      | exception Lexer.Lex_error _ -> true
      | exception Parser.Parse_error _ -> true)

(* Batch parses files on several domains at once, and they all intern
   into one table: each name must still get exactly one identity. *)
let test_intern_across_domains () =
  let names = Array.init 20_000 (Printf.sprintf "intern_race_%d") in
  let intern () = Array.map Ir.Ident.of_string names in
  let other = Domain.spawn intern in
  let mine = intern () in
  let theirs = Domain.join other in
  Array.iteri
    (fun i name ->
      let id = Ir.Ident.of_string name in
      if not (Ir.Ident.equal mine.(i) id && Ir.Ident.equal theirs.(i) id) then
        Alcotest.failf "%s interned twice" name)
    names

let suite =
  ( "lexer-parser",
    [
      Helpers.case "tokens" test_tokens;
      Helpers.case "positions" test_positions;
      Helpers.case "lexical errors" test_lex_errors;
      Helpers.case "precedence" test_precedence;
      Helpers.case "structured statements" test_structures;
      Helpers.case "for loop forms" test_for_forms;
      Helpers.case "parse errors" test_parse_errors;
      Helpers.case "print/parse roundtrip" test_roundtrip;
      Helpers.case "identifiers intern once across domains" test_intern_across_domains;
      prop_parser_total;
      prop_token_soup;
    ] )
