(** Hand-written lexer for the SQL subset.  [--] comments run to end of
    line; string literals use single quotes with [''] escaping; a number
    with a fraction or an exponent ([9.5e-05], [1e+06], as [%g] prints
    them) is a {!FLOAT}. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | KW of string  (** uppercased keyword *)
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | STAR
  | SEMI
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | SLASH
  | EOF

exception Lex_error of string * int  (** message, byte position *)

val tokenize : string -> token list
(** Tokenize a whole input; the result ends with {!EOF}.
    @raise Lex_error on invalid input. *)

val pp_token : Format.formatter -> token -> unit
