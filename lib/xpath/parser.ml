(* Parser for the XPath subset.

   Grammar (whitespace allowed around tokens inside predicates):

     absolute  ::= ('/' | '//') step (('/' | '//') step)*
     relative  ::= step (('/' | '//') step)*        (first axis is Child)
     step      ::= nametest predicate*
     nametest  ::= NAME | '*' | '@' NAME | '@' '*'
     predicate ::= '[' rel-or-self (CMP literal)? ']'
     rel-or-self ::= '.' | relative
     CMP       ::= '=' | '!=' | '<' | '<=' | '>' | '>='
     literal   ::= NUMBER | '"' chars '"' | '\'' chars '\'' *)

type error = { position : int; message : string }

let pp_error ppf e = Fmt.pf ppf "XPath parse error at offset %d: %s" e.position e.message

exception Fail of error

type state = {
  input : string;
  mutable pos : int;
}

let fail st message = raise (Fail { position = st.pos; message })

(* The next character, or '\000' past the end; no character test below
   accepts '\000', so the end of input and a NUL byte take the same branch.
   A char, not an option: scanning allocates nothing per character. *)
let peek_at st i = if i < String.length st.input then st.input.[i] else '\000'
let peek st = peek_at st st.pos
let peek2 st = peek_at st (st.pos + 1)

let advance st = st.pos <- st.pos + 1

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while is_space (peek st) do
    advance st
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' | ':' -> true | _ -> false)

let parse_name st =
  let start = st.pos in
  if is_name_start (peek st) then advance st else fail st "expected a name";
  while is_name_char (peek st) do
    advance st
  done;
  String.sub st.input start (st.pos - start)

let parse_axis_leading st =
  (* At the start of an absolute path or between steps. *)
  match peek st with
  | '/' ->
      advance st;
      if peek st = '/' then (advance st; Ast.Descendant) else Ast.Child
  | _ -> fail st "expected '/' or '//'"

let parse_name_test st =
  match peek st with
  | '*' -> advance st; Ast.Elem Ast.Wildcard
  | '@' ->
      advance st;
      (match peek st with
      | '*' -> advance st; Ast.Attr Ast.Wildcard
      | _ -> Ast.Attr (Ast.Name (parse_name st)))
  | _ -> Ast.Elem (Ast.Name (parse_name st))

let parse_number st =
  let start = st.pos in
  if peek st = '-' then advance st;
  let digits = ref 0 in
  while is_digit (peek st) do
    incr digits; advance st
  done;
  if peek st = '.' && is_digit (peek2 st) then begin
    advance st;
    while is_digit (peek st) do
      incr digits; advance st
    done
  end;
  if !digits = 0 then fail st "expected a number";
  float_of_string (String.sub st.input start (st.pos - start))

let parse_literal st =
  match peek st with
  | ('"' | '\'') as q ->
      advance st;
      let start = st.pos in
      (* Bounds-checked: a NUL byte inside the literal is part of it. *)
      while st.pos < String.length st.input && st.input.[st.pos] <> q do
        advance st
      done;
      if peek st = q then begin
        let s = String.sub st.input start (st.pos - start) in
        advance st;
        Ast.String_lit s
      end
      else fail st "unterminated string literal"
  | '0' .. '9' | '-' -> Ast.Number_lit (parse_number st)
  | _ -> fail st "expected a literal"

let parse_cmp st =
  match peek st with
  | '=' -> advance st; Ast.Eq
  | '!' ->
      advance st;
      if peek st = '=' then (advance st; Ast.Ne) else fail st "expected '!='"
  | '<' ->
      advance st;
      if peek st = '=' then (advance st; Ast.Le) else Ast.Lt
  | '>' ->
      advance st;
      if peek st = '=' then (advance st; Ast.Ge) else Ast.Gt
  | _ -> fail st "expected a comparison operator"

let rec parse_step st =
  let test = parse_name_test st in
  let predicates = parse_predicates st [] in
  (test, predicates)

and parse_predicates st acc =
  if peek st = '[' then begin
    advance st;
    skip_space st;
    let rel =
      if peek st = '.' then (advance st; [])
      else parse_relative st
    in
    skip_space st;
    let pred =
      match peek st with
      | ']' -> Ast.Exists rel
      | _ ->
          let cmp = parse_cmp st in
          skip_space st;
          let lit = parse_literal st in
          Ast.Compare (rel, cmp, lit)
    in
    skip_space st;
    if peek st = ']' then advance st else fail st "expected ']'";
    parse_predicates st (pred :: acc)
  end
  else List.rev acc

and parse_relative st =
  (* First step has an implicit Child axis (or Descendant for a leading //). *)
  let first_axis =
    if peek st = '/' then parse_axis_leading st else Ast.Child
  in
  let test, predicates = parse_step st in
  let first = { Ast.axis = first_axis; test; predicates } in
  parse_rest st [ first ]

and parse_rest st acc =
  match peek st with
  | '/' ->
      let axis = parse_axis_leading st in
      let test, predicates = parse_step st in
      parse_rest st ({ Ast.axis; test; predicates } :: acc)
  | _ -> List.rev acc

let parse_absolute_state st =
  let axis = parse_axis_leading st in
  let test, predicates = parse_step st in
  parse_rest st [ { Ast.axis; test; predicates } ]

let finish st result =
  skip_space st;
  if st.pos <> String.length st.input then
    Error { position = st.pos; message = "trailing characters" }
  else Ok result

let parse input =
  let st = { input; pos = 0 } in
  try finish st (parse_absolute_state st) with Fail e -> Error e

(* Prefix variants: parse greedily from [pos], returning the path and the
   position of the first unconsumed character.  Used by the query parser to
   embed paths inside larger statements. *)
let parse_prefix input ~pos =
  let st = { input; pos } in
  try
    let p = parse_absolute_state st in
    Ok (p, st.pos)
  with Fail e -> Error e

let parse_relative_prefix input ~pos =
  let st = { input; pos } in
  try
    let p = parse_relative st in
    Ok (p, st.pos)
  with Fail e -> Error e

let parse_relative_path input =
  let st = { input; pos = 0 } in
  try finish st (parse_relative st) with Fail e -> Error e

let parse_exn input =
  match parse input with
  | Ok p -> p
  | Error e -> invalid_arg (Fmt.str "%S: %a" input pp_error e)

let parse_relative_exn input =
  match parse_relative_path input with
  | Ok p -> p
  | Error e -> invalid_arg (Fmt.str "%S: %a" input pp_error e)
