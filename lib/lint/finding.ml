type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  suggestion : string;
}

let make ~rule ~file ~line ~col ~message ~suggestion =
  { rule; file; line; col; message; suggestion }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    | c -> c)
  | c -> c

let to_json f =
  let module J = Relax_obs.Json in
  J.Obj
    [
      ("event", J.String "lint.finding");
      ("rule", J.String f.rule);
      ("file", J.String f.file);
      ("line", J.Int f.line);
      ("col", J.Int f.col);
      ("message", J.String f.message);
      ("suggestion", J.String f.suggestion);
    ]

let pp ppf f =
  Fmt.pf ppf "%s:%d:%d: [%s] %s@.    suggestion: %s" f.file f.line f.col
    f.rule f.message f.suggestion
