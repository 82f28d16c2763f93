type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_num b x =
  if Float.is_nan x then Buffer.add_string b {|"nan"|}
  else if x = Float.infinity then Buffer.add_string b {|"inf"|}
  else if x = Float.neg_infinity then Buffer.add_string b {|"-inf"|}
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num x -> add_num b x
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          vs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\":";
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* --- parsing ----------------------------------------------------------- *)

exception Bad of string

let max_depth = 128

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected '%c' at byte %d, found '%c'" c !pos c'
    | None -> fail "expected '%c' at byte %d, found end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid token at byte %d" !pos
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape at byte %d" !pos;
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = s.[!pos] in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape at byte %d" !pos
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 b cp =
    (* encode one Unicode scalar as UTF-8 (surrogates arrive pre-paired) *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'u' ->
                  let cp = parse_hex4 () in
                  let cp =
                    if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n
                       && s.[!pos] = '\\'
                       && !pos + 1 < n
                       && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let lo = parse_hex4 () in
                      if lo >= 0xDC00 && lo <= 0xDFFF then
                        0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                      else fail "unpaired surrogate at byte %d" !pos
                    end
                    else cp
                  in
                  add_utf8 b cp
              | c -> fail "bad escape '\\%c' at byte %d" c !pos);
              go ())
      | Some c when Char.code c < 0x20 ->
          fail "raw control byte 0x%02x in string at byte %d" (Char.code c) !pos
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "malformed number at byte %d" start
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "malformed number at byte %d" start
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting deeper than %d" max_depth;
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec go () =
            items := parse_value (depth + 1) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']' at byte %d" !pos
          in
          go ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}' at byte %d" !pos
          in
          go ();
          Obj (List.rev !fields)
        end
    | Some c -> fail "unexpected '%c' at byte %d" c !pos
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value at byte %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* --- accessors --------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_float = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None
