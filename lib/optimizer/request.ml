(** Access-path requests — the contract between the optimizer and the
    tuner.

    An index request [(S, N, O, A)] (§2) is issued by the optimizer's
    single-relation access-path-selection entry point each time it needs a
    physical sub-plan for a logical single-table expression: [S] are columns
    in sargable predicates (here split into constant [ranges] and
    parameterized equalities [param_eq], the latter arising as inner sides of
    index nested-loop joins), [N] the non-sargable conjuncts, [O] the
    required order, and [A] the additionally referenced columns. *)

open Relax_sql.Types
module Predicate = Relax_sql.Predicate
module Expr = Relax_sql.Expr

type t = {
  rel : string;  (** the relation (base table or view-table) *)
  ranges : Predicate.range list;  (** sargable conjuncts against constants *)
  param_eq : column list;
      (** sargable equalities against join parameters *)
  others : Expr.t list;  (** N: non-sargable conjuncts local to [rel] *)
  order : (column * order_dir) list;  (** O: required output order *)
  cols : Column_set.t;  (** every column required upward (includes A) *)
}

let make ~rel ?(ranges = []) ?(param_eq = []) ?(others = []) ?(order = [])
    ~cols () =
  let cols =
    List.fold_left
      (fun acc (r : Predicate.range) -> Column_set.add r.rcol acc)
      cols ranges
  in
  let cols = List.fold_left (fun acc c -> Column_set.add c acc) cols param_eq in
  let cols =
    List.fold_left
      (fun acc e -> Column_set.union acc (Expr.columns e))
      cols others
  in
  let cols =
    List.fold_left (fun acc (c, _) -> Column_set.add c acc) cols order
  in
  { rel; ranges; param_eq; others; order; cols }

(** S: the sargable columns. *)
let sargable_columns t =
  List.fold_left
    (fun acc (r : Predicate.range) -> Column_set.add r.rcol acc)
    (Column_set.of_list t.param_eq)
    t.ranges

(** N: columns of non-sargable conjuncts. *)
let non_sargable_columns t =
  List.fold_left
    (fun acc e -> Column_set.union acc (Expr.columns e))
    Column_set.empty t.others

let order_columns t = List.map fst t.order

(** A: referenced columns not already in S, N or O. *)
let additional_columns t =
  let s = sargable_columns t in
  let n = non_sargable_columns t in
  let o = Column_set.of_list (order_columns t) in
  Column_set.diff t.cols (Column_set.union s (Column_set.union n o))

let pp ppf t =
  Fmt.pf ppf "@[<h>req %s S={%a%s%a} N=%d O=[%a] A=%a@]" t.rel
    Fmt.(list ~sep:comma Predicate.pp_range)
    t.ranges
    (if t.param_eq = [] then "" else "; param:")
    Fmt.(list ~sep:comma Column.pp)
    t.param_eq (List.length t.others)
    Fmt.(list ~sep:comma (fun ppf (c, _) -> Column.pp ppf c))
    t.order pp_column_set (additional_columns t)

(* Exact identity: constants by their bits, order with its direction, so
   two requests that may cost differently never compare equal. *)
let bound_identical (a : Predicate.bound) (b : Predicate.bound) =
  Bool.equal a.inclusive b.inclusive && Value.identical a.value b.value

let range_identical (a : Predicate.range) (b : Predicate.range) =
  Column.equal a.rcol b.rcol
  && Option.equal bound_identical a.lo b.lo
  && Option.equal bound_identical a.hi b.hi

let equal a b =
  String.equal a.rel b.rel
  && List.equal range_identical a.ranges b.ranges
  && List.equal Column.equal a.param_eq b.param_eq
  && List.equal Expr.identical a.others b.others
  && List.equal
       (fun (c1, d1) (c2, d2) -> Column.equal c1 c2 && d1 = d2)
       a.order b.order
  && Column_set.equal a.cols b.cols

(* [cols] is a balanced tree whose shape depends on insertion order, so it
   stays out of the hash; everything hashed is equal under [equal].  The
   range bounds are mixed in one by one: [Hashtbl.hash] stops after ten
   meaningful values, which a whole request spends before reaching its
   constants, and reparameterized requests differ only there. *)
let hash t =
  let bound h (b : Predicate.bound option) =
    (h * 31) + Hashtbl.hash (Option.map (fun (b : Predicate.bound) -> b.value) b)
  in
  List.fold_left
    (fun h (r : Predicate.range) ->
      bound (bound ((h * 31) + Hashtbl.hash r.rcol) r.lo) r.hi)
    (Hashtbl.hash (t.rel, t.param_eq, t.order, List.length t.others))
    t.ranges

(** Lossy identity for request de-duplication (Table 1 counts distinct
    requests). *)
let fingerprint t =
  Fmt.str "%s|%a|%s|%s|%s|%s" t.rel
    Fmt.(list ~sep:comma Predicate.pp_range)
    t.ranges
    (String.concat "," (List.map Column.to_string t.param_eq))
    (String.concat "," (List.map Expr.fingerprint t.others))
    (String.concat ","
       (List.map (fun (c, _) -> Column.to_string c) t.order))
    (String.concat ","
       (List.map Column.to_string (Column_set.elements t.cols)))
