(** SQL rendering of queries, statements and workloads.

    The output is valid input for {!Parser}, which the round-trip property
    tests rely on. *)

open Types

let pp_where ppf (joins, ranges, others) =
  let join_exprs = List.map Predicate.join_to_expr joins in
  let range_exprs = List.concat_map Predicate.range_to_exprs ranges in
  let all = join_exprs @ range_exprs @ others in
  match all with
  | [] -> ()
  | conjuncts ->
    Fmt.pf ppf "@ WHERE %a" Fmt.(list ~sep:(any "@ AND ") Expr.pp) conjuncts

let pp_spjg ppf (q : Query.spjg) =
  Fmt.pf ppf "@[<hv>SELECT %a@ FROM %a%a"
    Fmt.(list ~sep:comma Query.pp_select_item)
    q.select
    Fmt.(list ~sep:comma string)
    q.tables pp_where
    (q.joins, q.ranges, q.others);
  if q.group_by <> [] then
    Fmt.pf ppf "@ GROUP BY %a" Fmt.(list ~sep:comma Column.pp) q.group_by;
  Fmt.pf ppf "@]"

let pp_order_item ppf (c, d) =
  match d with
  | Asc -> Column.pp ppf c
  | Desc -> Fmt.pf ppf "%a DESC" Column.pp c

let pp_select ppf (q : Query.select_query) =
  pp_spjg ppf q.body;
  if q.order_by <> [] then
    Fmt.pf ppf "@ ORDER BY %a" Fmt.(list ~sep:comma pp_order_item) q.order_by

let pp_dml ppf = function
  | Query.Update u ->
    Fmt.pf ppf "@[<hv>UPDATE %s SET %a%a@]" u.table
      Fmt.(
        list ~sep:comma (fun ppf (c, e) -> Fmt.pf ppf "%s = %a" c Expr.pp e))
      u.assignments pp_where
      ([], u.ranges, u.others)
  | Query.Insert i -> Fmt.pf ppf "INSERT INTO %s ROWS %d" i.table i.rows
  | Query.Delete d ->
    Fmt.pf ppf "@[<hv>DELETE FROM %s%a@]" d.table pp_where
      ([], d.ranges, d.others)

let pp_statement ppf = function
  | Query.Select q -> pp_select ppf q
  | Query.Dml d -> pp_dml ppf d

let statement_to_string s = Fmt.str "%a" pp_statement s
