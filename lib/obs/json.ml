(* A minimal recursive-descent JSON parser — just enough to re-parse and
   validate our own Chrome trace output (tests, `ivtool trace-check`).
   Accepts standard JSON; numbers come back as floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* The one JSON string-escaping routine in the tree: Export_chrome, the
   Prometheus/folded exporters' JSON needs and the hand-rendered
   [--json] reports (explain, check, range) all go through here so a
   single test suite covers them (test_prom). Output includes the
   surrounding quotes. Bytes >= 0x80 pass through verbatim — strings
   are treated as opaque byte sequences, which round-trips UTF-8. *)
let escape_to_buffer buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  escape_to_buffer buf s;
  Buffer.contents buf

type state = { s : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> error st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st ("expected " ^ word)

let escape_char st buf =
  match peek st with
  | None -> error st "unterminated escape"
  | Some c ->
    advance st;
    (match c with
     | '"' -> Buffer.add_char buf '"'
     | '\\' -> Buffer.add_char buf '\\'
     | '/' -> Buffer.add_char buf '/'
     | 'b' -> Buffer.add_char buf '\b'
     | 'f' -> Buffer.add_char buf '\012'
     | 'n' -> Buffer.add_char buf '\n'
     | 'r' -> Buffer.add_char buf '\r'
     | 't' -> Buffer.add_char buf '\t'
     | 'u' ->
       if st.pos + 4 > String.length st.s then error st "bad \\u escape";
       let hex = String.sub st.s st.pos 4 in
       st.pos <- st.pos + 4;
       let code =
         match int_of_string_opt ("0x" ^ hex) with
         | Some c -> c
         | None -> error st "bad \\u escape"
       in
       (* Encode the code point as UTF-8 (surrogates land verbatim —
          good enough for validation). *)
       if code < 0x80 then Buffer.add_char buf (Char.chr code)
       else if code < 0x800 then begin
         Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
         Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
       end
       else begin
         Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
         Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
         Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
       end
     | _ -> error st "bad escape")

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      escape_char st buf;
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error st ("bad number " ^ text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec members () =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      fields := (key, v) :: !fields;
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ()
      | Some '}' -> advance st
      | _ -> error st "expected ',' or '}'"
    in
    members ();
    Obj (List.rev !fields)
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let items = ref [] in
    let rec elements () =
      let v = parse_value st in
      items := v :: !items;
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements ()
      | Some ']' -> advance st
      | _ -> error st "expected ',' or ']'"
    in
    elements ();
    List (List.rev !items)
  end

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing garbage";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- the trace-file checker (`ivtool trace-check`) --- *)

let check_trace s =
  match parse_result s with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok v -> (
    match member "traceEvents" v with
    | None -> Error "missing \"traceEvents\" key"
    | Some (List evs) -> (
      let bad = ref None in
      let complete = ref 0 in
      List.iteri
        (fun i ev ->
          if !bad = None then begin
            let need key pred =
              match member key ev with
              | Some v when pred v -> ()
              | _ ->
                bad := Some (Printf.sprintf "event %d: missing or ill-typed %S" i key)
            in
            need "name" (function Str _ -> true | _ -> false);
            need "ph" (function Str _ -> true | _ -> false);
            need "ts" (function Num _ -> true | _ -> false);
            need "pid" (function Num _ -> true | _ -> false);
            need "tid" (function Num _ -> true | _ -> false);
            (match member "ph" ev with
             | Some (Str "X") ->
               complete := !complete + 1;
               need "dur" (function Num n -> n >= 0.0 | _ -> false)
             | _ -> ())
          end)
        evs;
      match !bad with
      | Some msg -> Error msg
      | None -> Ok (List.length evs, !complete))
    | Some _ -> Error "\"traceEvents\" is not an array")
