open Ast

type error = { line : int; col : int; msg : string }

let error_to_string e = Printf.sprintf "line %d, col %d: %s" e.line e.col e.msg

exception Fail of error (* internal; caught at the entry points *)

type token =
  | IDENT of string
  | INT of string
  | STRING of string
  | LT | GT | COMMA | LBRACKET | RBRACKET | LPAREN | RPAREN
  | PIPE | PLUS | MINUS | AMP | ARROW (* <- *)
  | EQ | EQEQ | NEQ | SEMI | UNDERSCORE
  | EOF

type ltok = { tok : token; tline : int; tcol : int }

let fail line col msg = raise (Fail { line; col; msg })

let lex (src : string) : ltok array =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let push tok tline tcol = toks := { tok; tline; tcol } :: !toks in
  let advance () =
    (if !i < n then
       if src.[!i] = '\n' then begin
         incr line;
         col := 1
       end
       else incr col);
    incr i
  in
  while !i < n do
    let c = src.[!i] and tl = !line and tc = !col in
    match c with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '#' ->
        (* comment to end of line *)
        while !i < n && src.[!i] <> '\n' do
          advance ()
        done
    | '<' ->
        if !i + 1 < n && src.[!i + 1] = '-' then begin
          advance ();
          advance ();
          push ARROW tl tc
        end
        else begin
          advance ();
          push LT tl tc
        end
    | '>' -> advance (); push GT tl tc
    | ',' -> advance (); push COMMA tl tc
    | '[' -> advance (); push LBRACKET tl tc
    | ']' -> advance (); push RBRACKET tl tc
    | '(' -> advance (); push LPAREN tl tc
    | ')' -> advance (); push RPAREN tl tc
    | '|' -> advance (); push PIPE tl tc
    | '+' -> advance (); push PLUS tl tc
    | '-' -> advance (); push MINUS tl tc
    | '&' -> advance (); push AMP tl tc
    | ';' -> advance (); push SEMI tl tc
    | '=' ->
        if !i + 1 < n && src.[!i + 1] = '=' then begin
          advance ();
          advance ();
          push EQEQ tl tc
        end
        else begin
          advance ();
          push EQ tl tc
        end
    | '!' ->
        if !i + 1 < n && src.[!i + 1] = '=' then begin
          advance ();
          advance ();
          push NEQ tl tc
        end
        else fail tl tc "stray '!' (expected '!=')"
    | '_' -> advance (); push UNDERSCORE tl tc
    | '"' ->
        advance ();
        let b = Buffer.create 16 in
        let closed = ref false in
        while (not !closed) && !i < n do
          let c = src.[!i] in
          if c = '"' then begin
            advance ();
            closed := true
          end
          else if atom_char c then begin
            Buffer.add_char b c;
            advance ()
          end
          else
            fail !line !col
              (Printf.sprintf "character %C not allowed in a string atom" c)
        done;
        if not !closed then fail tl tc "unterminated string literal";
        push (STRING (Buffer.contents b)) tl tc
    | '0' .. '9' ->
        let b = Buffer.create 8 in
        while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
          Buffer.add_char b src.[!i];
          advance ()
        done;
        let s = Buffer.contents b in
        if not (is_canonical_int s) then
          fail tl tc (Printf.sprintf "non-canonical integer literal %S" s)
        else push (INT s) tl tc
    | 'a' .. 'z' | 'A' .. 'Z' ->
        let b = Buffer.create 8 in
        while
          !i < n
          &&
          let c = src.[!i] in
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
          || c = '_'
        do
          Buffer.add_char b src.[!i];
          advance ()
        done;
        push (IDENT (Buffer.contents b)) tl tc
    | c -> fail tl tc (Printf.sprintf "unexpected character %C" c)
  done;
  push EOF !line !col;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)

type st = { toks : ltok array; mutable pos : int }

let max_depth = 200

let peek st = st.toks.(st.pos)
let next st =
  let t = st.toks.(st.pos) in
  if t.tok <> EOF then st.pos <- st.pos + 1;
  t

let err_at (t : ltok) msg = fail t.tline t.tcol msg

let expect st tok what =
  let t = next st in
  if t.tok <> tok then err_at t ("expected " ^ what)

let deeper st d =
  if d >= max_depth then
    err_at (peek st) "expression too deeply nested";
  d + 1

let ident_name (t : ltok) =
  match t.tok with
  | IDENT s ->
      if List.mem s reserved then
        err_at t (Printf.sprintf "reserved word %S cannot be a name" s)
      else s
  | _ -> err_at t "expected a name"

let parse_scalar st =
  let t = next st in
  match t.tok with
  | INT s | STRING s -> Sconst s
  | IDENT s when not (List.mem s reserved) -> Svar s
  | _ -> err_at t "expected a value or variable"

let parse_pat st =
  let t = next st in
  match t.tok with
  | UNDERSCORE -> Pwild
  | INT s | STRING s -> Pconst s
  | IDENT s when not (List.mem s reserved) -> Pvar s
  | _ -> err_at t "expected a pattern (variable, _, or value)"

let parse_tuple st elem =
  expect st LT "'<'";
  let rec go acc =
    let x = elem st in
    let t = next st in
    match t.tok with
    | COMMA -> go (x :: acc)
    | GT -> List.rev (x :: acc)
    | _ -> err_at t "expected ',' or '>' in tuple"
  in
  go []

let const_of_scalar (t : ltok) = function
  | Sconst c -> c
  | Svar v ->
      err_at t (Printf.sprintf "variable %S not allowed in a relation literal" v)

let rec parse_expr st d =
  let d = deeper st d in
  let rec sums acc =
    match (peek st).tok with
    | PLUS ->
        ignore (next st);
        sums (Union (acc, parse_term st d))
    | MINUS ->
        ignore (next st);
        sums (Diff (acc, parse_term st d))
    | AMP ->
        ignore (next st);
        sums (Inter (acc, parse_term st d))
    | _ -> acc
  in
  sums (parse_term st d)

and parse_term st d =
  let d = deeper st d in
  let rec composes acc =
    match (peek st).tok with
    | IDENT "o" ->
        ignore (next st);
        composes (Compose (acc, parse_factor st d))
    | _ -> acc
  in
  composes (parse_factor st d)

and parse_factor st d =
  let d = deeper st d in
  let t = next st in
  match t.tok with
  | LPAREN ->
      let e = parse_expr st d in
      expect st RPAREN "')'";
      e
  | IDENT ("xfilter" as f) | IDENT ("xeq" as f) ->
      expect st LPAREN "'(' after builtin";
      let a = parse_expr st d in
      expect st COMMA "','";
      let b = parse_expr st d in
      expect st RPAREN "')'";
      if f = "xfilter" then Xfilter (a, b) else Xeq (a, b)
  | IDENT s ->
      if List.mem s reserved then
        err_at t (Printf.sprintf "reserved word %S cannot start an expression" s)
      else Ref s
  | LBRACKET -> parse_bracket st d t
  | _ -> err_at t "expected an expression"

(* '[' already consumed: either a relation literal or a comprehension *)
and parse_bracket st d open_tok =
  match (peek st).tok with
  | RBRACKET ->
      ignore (next st);
      Lit []
  | _ -> (
      let first_tok = peek st in
      let first = parse_tuple st parse_scalar in
      let t = next st in
      match t.tok with
      | PIPE ->
          let quals = parse_quals st d in
          Comp (first, quals)
      | RBRACKET ->
          Lit [ List.map (const_of_scalar first_tok) first ]
      | COMMA ->
          let first = List.map (const_of_scalar first_tok) first in
          let rec go acc =
            let tup_tok = peek st in
            let tup =
              List.map (const_of_scalar tup_tok) (parse_tuple st parse_scalar)
            in
            let t = next st in
            match t.tok with
            | COMMA -> go (tup :: acc)
            | RBRACKET -> List.rev (tup :: acc)
            | _ -> err_at t "expected ',' or ']' in relation literal"
          in
          Lit (first :: go [])
      | _ -> err_at open_tok "unterminated '[' (expected '|', ',' or ']')")

and parse_quals st d =
  let parse_qual () =
    match (peek st).tok with
    | LT ->
        let pats = parse_tuple st parse_pat in
        expect st ARROW "'<-' after generator pattern";
        Gen (pats, parse_expr st d)
    | _ ->
        let a = parse_scalar st in
        let t = next st in
        let c =
          match t.tok with
          | EQEQ -> Ceq
          | NEQ -> Cne
          | LT -> Clt
          | _ -> err_at t "expected '==', '!=' or '<' in guard"
        in
        Guard (a, c, parse_scalar st)
  in
  let rec go acc =
    let q = parse_qual () in
    let t = next st in
    match t.tok with
    | COMMA -> go (q :: acc)
    | RBRACKET -> List.rev (q :: acc)
    | _ -> err_at t "expected ',' or ']' after qualifier"
  in
  go []

let parse_stmt st =
  match ((peek st).tok, st.toks.(min (st.pos + 1) (Array.length st.toks - 1)).tok) with
  | IDENT _, EQ ->
      let name = ident_name (next st) in
      ignore (next st) (* '=' *);
      Bind (name, parse_expr st 0)
  | _ -> Eval (parse_expr st 0)

let parse_program_tokens st =
  let rec go acc =
    match (peek st).tok with
    | EOF -> List.rev acc
    | SEMI ->
        ignore (next st);
        go acc
    | _ ->
        let s = parse_stmt st in
        let t = peek st in
        (match t.tok with
        | SEMI | EOF -> ()
        | _ -> err_at t "expected ';' or end of input after statement");
        go (s :: acc)
  in
  go []

let run f src =
  match lex src with
  | exception Fail e -> Error e
  | toks -> (
      let st = { toks; pos = 0 } in
      match f st with exception Fail e -> Error e | v -> Ok v)

let parse_program src : (program, error) result = run parse_program_tokens src

let parse_expr_string src : (expr, error) result =
  run
    (fun st ->
      let e = parse_expr st 0 in
      let t = peek st in
      if t.tok <> EOF then err_at t "trailing input after expression";
      e)
    src
