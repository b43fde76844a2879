type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

type state = { text : string; mutable pos : int }

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.pos (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail st.pos (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let len = String.length word in
  if st.pos + len <= String.length st.text && String.sub st.text st.pos len = word then begin
    st.pos <- st.pos + len;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st.pos "unterminated escape"
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
                if st.pos + 4 > String.length st.text then fail st.pos "truncated \\u escape";
                let hex = String.sub st.text st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> fail st.pos "bad \\u escape"
                in
                (* ASCII and Latin-1 only; anything above passes through
                   as UTF-8 of the code point (BMP, no surrogates) *)
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
            | c -> fail st.pos (Printf.sprintf "bad escape \\%c" c));
            loop ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec loop () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  let body = String.sub st.text start (st.pos - start) in
  match float_of_string_opt body with
  | Some f -> Number f
  | None -> fail start (Printf.sprintf "bad number %S" body)

let max_depth = 512

(* [depth] counts the arrays and objects enclosing this value *)
let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some ('{' | '[') when depth = max_depth ->
      fail st.pos (Printf.sprintf "nesting deeper than %d arrays/objects" max_depth)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Object []
      end
      else begin
        let fields = Vec.create () in
        let rec members () =
          skip_ws st;
          expect st '"';
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          Vec.push fields (key, v);
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> fail st.pos "expected , or } in object"
        in
        members ();
        Object (Vec.to_list fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Array []
      end
      else begin
        let items = Vec.create () in
        let rec elements () =
          let v = parse_value st (depth + 1) in
          Vec.push items v;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> fail st.pos "expected , or ] in array"
        in
        elements ();
        Array (Vec.to_list items)
      end
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %c" c)

let parse text =
  let st = { text; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length text then fail st.pos "trailing input";
  v

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let format_number f =
  (* JSON has no nan/inf literals; "%.17g" would emit them verbatim and
     corrupt the document, so non-finite numbers degrade to null. *)
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let rec emit indent v =
    let pad = if pretty then String.make indent ' ' else "" in
    let nl = if pretty then "\n" else "" in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number f -> Buffer.add_string buf (format_number f)
    | String s -> Buffer.add_string buf (escape_string s)
    | Array [] -> Buffer.add_string buf "[]"
    | Array items ->
        Buffer.add_string buf ("[" ^ nl);
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ("," ^ nl);
            if pretty then Buffer.add_string buf (pad ^ "  ");
            emit (indent + 2) item)
          items;
        Buffer.add_string buf (nl ^ (if pretty then pad else "") ^ "]")
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
        Buffer.add_string buf ("{" ^ nl);
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string buf ("," ^ nl);
            if pretty then Buffer.add_string buf (pad ^ "  ");
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf (if pretty then ": " else ":");
            emit (indent + 2) item)
          fields;
        Buffer.add_string buf (nl ^ (if pretty then pad else "") ^ "}")
  in
  emit 0 v;
  Buffer.contents buf

let member key = function
  | Object fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> raise (Parse_error (Printf.sprintf "member %S: not an object" key))

let get_string = function
  | String s -> s
  | _ -> raise (Parse_error "expected a string")

let get_number = function
  | Number f -> f
  | _ -> raise (Parse_error "expected a number")

let get_list = function
  | Array items -> items
  | _ -> raise (Parse_error "expected an array")

let get_object = function
  | Object fields -> fields
  | _ -> raise (Parse_error "expected an object")
