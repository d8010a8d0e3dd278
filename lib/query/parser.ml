(* Parser for workload statements.

   Accepted forms (case-sensitive keywords, whitespace-insensitive):

     for $v in TABLE('COL')/path [, $w in ...]
       [where $v/rel CMP literal [and ...]]
       return ITEM [, ITEM]

     insert into TABLE <xml .../>
     delete from TABLE where /absolute/path[pred]
     update TABLE set /absolute/path = "value" where /absolute/path[pred]

   ITEM ::= $v | $v/rel | <tag>{ ITEM [, ITEM] }</tag> *)

module Xp_parser = Xia_xpath.Parser

type error = { position : int; message : string }

let pp_error ppf e = Fmt.pf ppf "query parse error at offset %d: %s" e.position e.message

exception Fail of error

type state = {
  input : string;
  mutable pos : int;
}

let fail st message = raise (Fail { position = st.pos; message })

(* The next character, or '\000' past the end; no character test below
   accepts '\000', so the end of input and a NUL byte take the same branch.
   A char, not an option: scanning allocates nothing per character. *)
let peek st = if st.pos < String.length st.input then st.input.[st.pos] else '\000'

let advance st = st.pos <- st.pos + 1

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while is_space (peek st) do
    advance st
  done

(* [s] occurs in [input] at [pos + i ..], compared in place. *)
let rec matches_at input pos s i =
  i = String.length s || (input.[pos + i] = s.[i] && matches_at input pos s (i + 1))

let looking_at st s =
  st.pos + String.length s <= String.length st.input && matches_at st.input st.pos s 0

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

(* Keyword match: the keyword must not be followed by a word character. *)
let keyword st kw =
  skip_space st;
  let n = String.length kw in
  if
    looking_at st kw
    && (st.pos + n >= String.length st.input || not (is_word_char st.input.[st.pos + n]))
  then begin
    st.pos <- st.pos + n;
    true
  end
  else false

let expect_keyword st kw =
  if not (keyword st kw) then fail st (Printf.sprintf "expected keyword %S" kw)

let parse_word st =
  skip_space st;
  let start = st.pos in
  while is_word_char (peek st) do
    advance st
  done;
  if st.pos = start then fail st "expected an identifier";
  String.sub st.input start (st.pos - start)

let parse_var st =
  skip_space st;
  if peek st = '$' then advance st else fail st "expected a variable ($name)";
  parse_word st

let embed_xpath st result =
  match result with
  | Ok (path, pos) ->
      st.pos <- pos;
      path
  | Error (e : Xp_parser.error) ->
      raise (Fail { position = e.position; message = "in path: " ^ e.message })

let parse_absolute_path st =
  skip_space st;
  embed_xpath st (Xp_parser.parse_prefix st.input ~pos:st.pos)

let parse_relative_path st =
  embed_xpath st (Xp_parser.parse_relative_prefix st.input ~pos:st.pos)

let parse_quoted st =
  skip_space st;
  match peek st with
  | ('"' | '\'') as q ->
      advance st;
      let start = st.pos in
      (* Bounds-checked: a NUL byte inside the string is part of it. *)
      while st.pos < String.length st.input && st.input.[st.pos] <> q do
        advance st
      done;
      if peek st = q then begin
        let s = String.sub st.input start (st.pos - start) in
        advance st;
        s
      end
      else fail st "unterminated string literal"
  | _ -> fail st "expected a quoted string"

let parse_source st =
  let table = parse_word st in
  skip_space st;
  let column =
    if peek st = '(' then begin
      advance st;
      let c = parse_quoted st in
      skip_space st;
      if peek st = ')' then advance st else fail st "expected ')'";
      c
    end
    else "XMLDOC"
  in
  let path = parse_absolute_path st in
  { Ast.table; column; path }

let parse_cmp st =
  skip_space st;
  match peek st with
  | '=' -> advance st; Some Xia_xpath.Ast.Eq
  | '!' ->
      advance st;
      if peek st = '=' then (advance st; Some Xia_xpath.Ast.Ne)
      else fail st "expected '!='"
  | '<' ->
      advance st;
      if peek st = '=' then (advance st; Some Xia_xpath.Ast.Le)
      else Some Xia_xpath.Ast.Lt
  | '>' ->
      advance st;
      if peek st = '=' then (advance st; Some Xia_xpath.Ast.Ge)
      else Some Xia_xpath.Ast.Gt
  | _ -> None

let parse_literal st =
  skip_space st;
  match peek st with
  | '"' | '\'' -> Xia_xpath.Ast.String_lit (parse_quoted st)
  | '0' .. '9' | '-' ->
      let start = st.pos in
      if peek st = '-' then advance st;
      while (match peek st with '0' .. '9' | '.' -> true | _ -> false) do
        advance st
      done;
      (match float_of_string_opt (String.sub st.input start (st.pos - start)) with
      | Some f -> Xia_xpath.Ast.Number_lit f
      | None -> fail st "invalid number")
  | _ -> fail st "expected a literal"

let parse_where_clause st =
  let var = parse_var st in
  skip_space st;
  let rel = if peek st = '/' then (advance st; parse_relative_path st) else [] in
  match parse_cmp st with
  | None ->
      if rel = [] then fail st "a bare $var cannot be a where clause";
      { Ast.var; predicate = Xia_xpath.Ast.Exists rel }
  | Some cmp ->
      let lit = parse_literal st in
      { Ast.var; predicate = Xia_xpath.Ast.Compare (rel, cmp, lit) }

let rec parse_return_item st =
  skip_space st;
  match peek st with
  | '$' ->
      let var = parse_var st in
      if peek st = '/' then begin
        advance st;
        let rel = parse_relative_path st in
        Ast.Ret_path (var, rel)
      end
      else Ast.Ret_var var
  | '<' ->
      advance st;
      let tag = parse_word st in
      skip_space st;
      if peek st = '>' then advance st else fail st "expected '>'";
      skip_space st;
      if peek st = '{' then advance st else fail st "expected '{'";
      let items = parse_return_items st in
      skip_space st;
      if peek st = '}' then advance st else fail st "expected '}'";
      skip_space st;
      if not (looking_at st ("</" ^ tag ^ ">")) then
        fail st (Printf.sprintf "expected closing </%s>" tag);
      st.pos <- st.pos + String.length tag + 3;
      Ast.Ret_element (tag, items)
  | _ -> fail st "expected a return item ($var, $var/path or an element constructor)"

and parse_return_items st =
  let first = parse_return_item st in
  let rec more acc =
    skip_space st;
    if peek st = ',' then begin
      advance st;
      more (parse_return_item st :: acc)
    end
    else List.rev acc
  in
  more [ first ]

let parse_flwor st =
  let rec parse_bindings acc =
    let var = parse_var st in
    expect_keyword st "in";
    let src = parse_source st in
    skip_space st;
    if peek st = ',' then begin
      advance st;
      skip_space st;
      parse_bindings ((var, src) :: acc)
    end
    else List.rev ((var, src) :: acc)
  in
  let bindings = parse_bindings [] in
  let where =
    (* conjunction of disjunctions: OR binds tighter than AND *)
    if keyword st "where" then begin
      let rec disjuncts acc =
        let c = parse_where_clause st in
        (match acc with
        | first :: _ when not (String.equal first.Ast.var c.Ast.var) ->
            fail st "all branches of an 'or' must constrain the same variable"
        | _ -> ());
        if keyword st "or" then disjuncts (c :: acc) else List.rev (c :: acc)
      in
      let rec groups acc =
        let g = disjuncts [] in
        if keyword st "and" then groups (g :: acc) else List.rev (g :: acc)
      in
      groups []
    end
    else []
  in
  expect_keyword st "return";
  let return_ = parse_return_items st in
  { Ast.bindings; where; return_ }

let finish st result =
  skip_space st;
  (* Allow a trailing semicolon. *)
  if peek st = ';' then advance st;
  skip_space st;
  if st.pos <> String.length st.input then
    Error { position = st.pos; message = "trailing characters" }
  else Ok result

let parse_statement_state st =
  skip_space st;
  if keyword st "for" then Ast.Select (parse_flwor st)
  else if keyword st "insert" then begin
    expect_keyword st "into";
    let table = parse_word st in
    skip_space st;
    let rest = String.sub st.input st.pos (String.length st.input - st.pos) in
    let rest =
      (* Strip a trailing semicolon from the XML payload. *)
      let r = String.trim rest in
      if String.length r > 0 && r.[String.length r - 1] = ';' then
        String.sub r 0 (String.length r - 1)
      else r
    in
    match Xia_xml.Parser.parse rest with
    | Ok document ->
        st.pos <- String.length st.input;
        Ast.Insert { table; document }
    | Error e ->
        raise (Fail { position = st.pos + e.position; message = "in XML: " ^ e.message })
  end
  else if keyword st "delete" then begin
    expect_keyword st "from";
    let table = parse_word st in
    expect_keyword st "where";
    let selector = parse_absolute_path st in
    Ast.Delete { table; selector }
  end
  else if keyword st "update" then begin
    let table = parse_word st in
    expect_keyword st "set";
    let target = parse_absolute_path st in
    skip_space st;
    if peek st = '=' then advance st else fail st "expected '='";
    let new_value = parse_quoted st in
    expect_keyword st "where";
    let selector = parse_absolute_path st in
    Ast.Update { table; selector; target; new_value }
  end
  else fail st "expected 'for', 'insert', 'delete' or 'update'"

let parse_statement input =
  let st = { input; pos = 0 } in
  try
    let s = parse_statement_state st in
    finish st s
  with Fail e -> Error e

let parse_statement_exn input =
  match parse_statement input with
  | Ok s -> s
  | Error e -> invalid_arg (Fmt.str "%S: %a" input pp_error e)
