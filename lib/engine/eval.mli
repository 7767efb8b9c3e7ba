(** Logical evaluation of predicates, expressions and whole SPJG blocks
    against concrete rows: the reference semantics the measurement layer
    compares optimizer estimates against. *)

open Relax_sql.Types

(** A bag of rows with a schema. *)
type rowset = {
  schema : column array;
  rows : float array array;
}

val of_relation : Data.relation -> rowset
val cardinality : rowset -> int

val index_of : rowset -> column -> int
(** @raise Invalid_argument for an unknown column. *)

exception Unsupported of string
(** Raised for constructs with no numeric execution (LIKE). *)

val filter :
  rowset ->
  ranges:Relax_sql.Predicate.range list ->
  others:Relax_sql.Expr.t list ->
  rowset

val count_matching :
  rowset ->
  ranges:Relax_sql.Predicate.range list ->
  others:Relax_sql.Expr.t list ->
  int

val matching_indices :
  rowset ->
  ranges:Relax_sql.Predicate.range list ->
  others:Relax_sql.Expr.t list ->
  int list
(** Row indices of the matches (for page-locality measurements). *)

val hash_join : rowset -> rowset -> Relax_sql.Predicate.join list -> rowset
(** Exact equi-join; empty predicate list = cartesian product. *)

val group_by :
  rowset ->
  keys:column list ->
  aggs:Relax_sql.Query.select_item list ->
  rowset
(** Exact grouping; aggregate outputs are named under the synthetic
    ["$agg"] relation via {!Relax_physical.View.item_name}. *)

val spjg : Data.t -> Relax_sql.Query.spjg -> rowset
(** Execute a whole block exactly: the reference result. *)

val materialize_view : Data.t -> Relax_physical.View.t -> Data.relation
(** Execute a view's definition and register the result so later accesses
    measure against real view rows. *)
