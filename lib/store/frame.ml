(* One artifact entry = magic, version, kind, length, checksum, payload.
   Reads validate everything and return typed errors: a store read must
   degrade to a recompute, never crash or serve bad bytes. *)

let magic = "IVST"
let version = 1

type error =
  | Foreign
  | Bad_version of int
  | Bad_kind of string
  | Truncated
  | Trailing of int
  | Bad_checksum
  | Bad_section

let error_to_string = function
  | Foreign -> "not a store entry (bad magic)"
  | Bad_version v -> Printf.sprintf "format version %d (expected %d)" v version
  | Bad_kind k -> Printf.sprintf "entry kind %S does not match" k
  | Truncated -> "truncated entry"
  | Trailing n -> Printf.sprintf "%d trailing bytes past the payload" n
  | Bad_checksum -> "payload checksum mismatch"
  | Bad_section -> "malformed section table"

let checksum payload = Hash.Fnv.feed_string Hash.Fnv.empty payload

let put_u64_le buf (v : int64) =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (i * 8)) 0xffL)))
  done

let get_u64_le s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let encode ~kind payload =
  let klen = String.length kind in
  if klen = 0 || klen > 255 then invalid_arg "Store.Frame.encode: bad kind";
  let buf = Buffer.create (22 + klen + String.length payload) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr klen);
  Buffer.add_string buf kind;
  put_u64_le buf (Int64.of_int (String.length payload));
  put_u64_le buf (checksum payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let decode ~kind bytes =
  let len = String.length bytes in
  if len < 4 then Error Truncated
  else if String.sub bytes 0 4 <> magic then Error Foreign
  else if len < 6 then Error Truncated
  else
    let v = Char.code bytes.[4] in
    if v <> version then Error (Bad_version v)
    else
      let klen = Char.code bytes.[5] in
      if len < 22 + klen then Error Truncated
      else
        let k = String.sub bytes 6 klen in
        if k <> kind then Error (Bad_kind k)
        else
          let header = 22 + klen in
          let plen64 = get_u64_le bytes (6 + klen) in
          if Int64.compare plen64 0L < 0
             || Int64.compare plen64 (Int64.of_int (len - header)) > 0
          then Error Truncated
          else
            let plen = Int64.to_int plen64 in
            if len > header + plen then Error (Trailing (len - header - plen))
            else
              let payload = String.sub bytes header plen in
              let sum = get_u64_le bytes (6 + klen + 8) in
              if not (Int64.equal sum (checksum payload)) then Error Bad_checksum
              else Ok payload

(* -- section tables: one payload holding (tag, text) sections -- *)

(* A tag is 1..32 bytes of [a-z]; tags are strictly ascending, so a
   table has one canonical encoding and no tag twice. *)
let valid_tag tag =
  let n = String.length tag in
  n > 0 && n <= 32 && String.for_all (fun c -> c >= 'a' && c <= 'z') tag

let encode_table sections =
  let sections = List.sort (fun (a, _) (b, _) -> String.compare a b) sections in
  let buf = Buffer.create 256 in
  ignore
    (List.fold_left
       (fun prev (tag, text) ->
         if (not (valid_tag tag)) || prev = Some tag then
           invalid_arg "Store.Frame.encode_table: bad or repeated tag";
         Buffer.add_char buf (Char.chr (String.length tag));
         Buffer.add_string buf tag;
         put_u64_le buf (Int64.of_int (String.length text));
         Buffer.add_string buf text;
         Some tag)
       None sections);
  Buffer.contents buf

let decode_table payload =
  let len = String.length payload in
  let rec go off prev acc =
    if off = len then Ok (List.rev acc)
    else
      let tlen = Char.code payload.[off] in
      if off + 1 + tlen + 8 > len then Error Bad_section
      else
        let tag = String.sub payload (off + 1) tlen in
        let text_off = off + 1 + tlen + 8 in
        let n = get_u64_le payload (off + 1 + tlen) in
        if (not (valid_tag tag))
           || (match prev with Some p -> String.compare p tag >= 0 | None -> false)
           || Int64.compare n 0L < 0
           || Int64.compare n (Int64.of_int (len - text_off)) > 0
        then Error Bad_section
        else
          let n = Int64.to_int n in
          go (text_off + n) (Some tag) ((tag, String.sub payload text_off n) :: acc)
  in
  go 0 None []
