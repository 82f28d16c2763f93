type token =
  | Name of string
  | Number of float
  | LParen
  | RParen
  | Comma
  | Semi
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | Eq
  | Neq
  | Le
  | Ge
  | Lt
  | Gt
  | Hash
  | Question
  | Dollar
  | At
  | Newline
  | Cont
  | Raw of string
      (* verbatim body of a [pepa ... end] block; [line] is its first
         source line *)
  | Eof

type t = { tok : token; line : int; col : int; endcol : int }

exception Error of string

let name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = ':' || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* strict number syntax: no underscores or colons, unlike float_of_string *)
let is_number s =
  let n = String.length s in
  let i = ref 0 in
  let digits () =
    let start = !i in
    while !i < n && is_digit s.[!i] do
      incr i
    done;
    !i > start
  in
  let int_part = digits () in
  let frac_part =
    if !i < n && s.[!i] = '.' then begin
      incr i;
      digits ()
    end
    else false
  in
  if (not int_part) && not frac_part then false
  else begin
    (if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
       incr i;
       if !i < n && (s.[!i] = '+' || s.[!i] = '-') then incr i;
       if not (digits ()) then i := -1
     end);
    !i = n
  end

let max_name_len = 29

let tokenize ?(warn = fun _ -> ()) src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let line_start = ref 0 in
  let emit tok col endcol = toks := { tok; line = !line; col; endcol } :: !toks in
  let i = ref 0 in
  let col () = !i - !line_start in
  let error line col msg =
    raise (Error (Printf.sprintf "line %d, col %d: %s" line (col + 1) msg))
  in
  let at_line_start = ref true in
  (* warn once per distinct over-long name, not once per occurrence *)
  let warned = Hashtbl.create 4 in
  let warn_truncated s =
    if not (Hashtbl.mem warned s) then begin
      Hashtbl.replace warned s ();
      warn
        (Printf.sprintf "warning: name %s longer than %d characters; truncated"
           s max_name_len)
    end
  in
  (* a [pepa] header line arms raw capture of the block body *)
  let pepa_pending = ref false in
  let capture_pepa_body () =
    let first_line = !line in
    let buf = Buffer.create 256 in
    let finished = ref false in
    while not !finished do
      if !i >= n then error first_line 0 "pepa block not terminated by end";
      let eol = try String.index_from src !i '\n' with Not_found -> n in
      let text = String.sub src !i (eol - !i) in
      if String.trim text = "end" then begin
        toks :=
          { tok = Raw (Buffer.contents buf); line = first_line; col = 0;
            endcol = 0 }
          :: !toks;
        emit (Name "end") 0 3;
        emit Newline (eol - !line_start) (eol - !line_start + 1);
        finished := true
      end
      else begin
        Buffer.add_string buf text;
        Buffer.add_char buf '\n'
      end;
      i := min (eol + 1) n;
      if eol < n then begin
        incr line;
        line_start := !i
      end
    done;
    at_line_start := true
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      emit Newline (col ()) (col () + 1);
      incr i;
      incr line;
      line_start := !i;
      at_line_start := true;
      if !pepa_pending then begin
        pepa_pending := false;
        capture_pepa_body ()
      end
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '*' && !at_line_start then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else begin
      let was_line_start = !at_line_start in
      at_line_start := false;
      let start = !i in
      let c0 = col () in
      if name_char c then begin
        while !i < n && name_char src.[!i] do
          incr i
        done;
        (* extend scientific-notation exponents: 1.0E-1 *)
        if
          !i < n
          && (src.[!i] = '+' || src.[!i] = '-')
          && !i > start
          && (src.[!i - 1] = 'e' || src.[!i - 1] = 'E')
          && is_number (String.sub src start (!i - start - 1))
          && !i + 1 < n
          && is_digit src.[!i + 1]
        then begin
          incr i;
          while !i < n && is_digit src.[!i] do
            incr i
          done
        end;
        let s = String.sub src start (!i - start) in
        let tok =
          if is_number s then Number (float_of_string s)
          else begin
            let s =
              if String.length s > max_name_len then begin
                warn_truncated s;
                String.sub s 0 max_name_len
              end
              else s
            in
            Name s
          end
        in
        emit tok c0 (col ());
        (* a statement-initial [pepa] keyword arms raw capture of the
           block body after its header line *)
        if tok = Name "pepa" && was_line_start then pepa_pending := true;
        (* echo swallows the rest of the line verbatim *)
        if tok = Name "echo" then begin
          let s0 = !i in
          while !i < n && src.[!i] <> '\n' do
            incr i
          done;
          let text = String.trim (String.sub src s0 (!i - s0)) in
          emit (Name text) (c0 + 5) (col ())
        end
      end
      else begin
        let simple tok len =
          i := !i + len;
          emit tok c0 (c0 + len)
        in
        let peek k = if !i + k < n then Some src.[!i + k] else None in
        match c with
        | '(' -> simple LParen 1
        | ')' -> simple RParen 1
        | ',' -> simple Comma 1
        | ';' -> simple Semi 1
        | '+' -> simple Plus 1
        | '-' -> simple Minus 1
        | '*' -> simple Star 1
        | '/' -> simple Slash 1
        | '^' -> simple Caret 1
        | '#' -> simple Hash 1
        | '?' -> simple Question 1
        | '$' -> simple Dollar 1
        | '@' -> simple At 1
        | '=' -> if peek 1 = Some '=' then simple Eq 2 else simple Eq 1
        | '!' ->
            if peek 1 = Some '=' then simple Neq 2
            else error !line c0 "unexpected '!'"
        | '<' ->
            if peek 1 = Some '=' then simple Le 2
            else if peek 1 = Some '>' then simple Neq 2
            else simple Lt 1
        | '>' -> if peek 1 = Some '=' then simple Ge 2 else simple Gt 1
        | '\\' ->
            (* line continuation: swallow trailing whitespace + newline *)
            incr i;
            while !i < n && (src.[!i] = ' ' || src.[!i] = '\t' || src.[!i] = '\r') do
              incr i
            done;
            if !i < n && src.[!i] = '\n' then begin
              incr i;
              incr line;
              line_start := !i
            end;
            emit Cont c0 (c0 + 1)
        | c -> error !line c0 (Printf.sprintf "illegal character %C" c)
      end
    end
  done;
  emit Newline (col ()) (col ());
  emit Eof (col ()) (col ());
  List.rev !toks
