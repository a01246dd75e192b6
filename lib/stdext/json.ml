type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ----------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
      (* Integral values print exactly with a ".0" that keeps them floats
         on re-parse; below 1e17 %g could drop both the point and the
         exponent. Others take the shortest %g text that parses back
         equal: %.17g always does. *)
      if Float.is_integer f && Float.abs f < 1e17 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else
        let text p = Printf.sprintf "%.*g" p f in
        let round_trips s = Float.equal (float_of_string s) f in
        Buffer.add_string b
          (List.find_opt round_trips [ text 15; text 16 ]
          |> Option.value ~default:(text 17))
  | String s -> escape_string b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  write b v;
  Buffer.contents b

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* -- parsing ------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable i : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.i))

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let advance c = c.i <- c.i + 1

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  if
    c.i + String.length word <= String.length c.s
    && String.sub c.s c.i (String.length word) = word
  then begin
    c.i <- c.i + String.length word;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* Encode one Unicode scalar value as UTF-8 (enough for \uXXXX escapes;
   surrogate pairs are combined by the caller). *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c "bad \\u escape"
  in
  if c.i + 4 > String.length c.s then fail c "truncated \\u escape";
  let v =
    (digit c.s.[c.i] lsl 12)
    lor (digit c.s.[c.i + 1] lsl 8)
    lor (digit c.s.[c.i + 2] lsl 4)
    lor digit c.s.[c.i + 3]
  in
  c.i <- c.i + 4;
  v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | Some '"' -> Buffer.add_char b '"'; advance c
        | Some '\\' -> Buffer.add_char b '\\'; advance c
        | Some '/' -> Buffer.add_char b '/'; advance c
        | Some 'n' -> Buffer.add_char b '\n'; advance c
        | Some 'r' -> Buffer.add_char b '\r'; advance c
        | Some 't' -> Buffer.add_char b '\t'; advance c
        | Some 'b' -> Buffer.add_char b '\b'; advance c
        | Some 'f' -> Buffer.add_char b '\012'; advance c
        | Some 'u' ->
            advance c;
            let u = hex4 c in
            let u =
              if u >= 0xD800 && u <= 0xDBFF && c.i + 1 < String.length c.s
                 && c.s.[c.i] = '\\' && c.s.[c.i + 1] = 'u'
              then begin
                c.i <- c.i + 2;
                let lo = hex4 c in
                0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else u
            in
            add_utf8 b u
        | _ -> fail c "bad escape");
        loop ()
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let consume pred =
    while (match peek c with Some ch -> pred ch | None -> false) do
      advance c
    done
  in
  (match peek c with Some '-' -> advance c | _ -> ());
  consume (function '0' .. '9' -> true | _ -> false);
  let integral = ref true in
  (match peek c with
  | Some '.' ->
      integral := false;
      advance c;
      consume (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      integral := false;
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      consume (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub c.s start (c.i - start) in
  if !integral then
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)  (* out of int range *)
  else
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let parse s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.i <> String.length s then Error (Printf.sprintf "trailing garbage at offset %d" c.i)
      else Ok v
  | exception Parse_error msg -> Error msg

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg ("Json.parse: " ^ msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_str = function String s -> Some s | _ -> None
