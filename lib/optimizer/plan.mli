(** Physical execution plans, annotated with estimated rows, cumulative
    cost, delivered order and delivered columns.

    Every single-relation access decision is wrapped in an [Access] node
    carrying the request it answered and per-index usage records — the
    "explain" information §3.3.2 requires: estimated cost, rows, type of
    usage (seek with its selectivity, or scan), required order, sought
    columns, and the additional columns provided upward. *)

open Relax_sql.Types
module Index = Relax_physical.Index
module View = Relax_physical.View

(** How one index was used by an access path. *)
type usage_kind =
  | Seek of { sel : float; seek_cols : column list }
  | Scan

type index_usage = {
  index : Index.t;
  kind : usage_kind;
  rows_touched : float;
}

(** The record attached to each single-relation access decision. *)
type access_info = {
  rel : string;
  request : Request.t;
  usages : index_usage list;  (** empty = a heap scan answered the request *)
  via_view : View.t option;
      (** set when this access implements a sub-join via a matched view *)
  access_cost : float;  (** cost of the access sub-plan, per execution *)
  access_rows : float;
  sorted : bool;  (** a sort operator was needed inside the access *)
  executions : float;
      (** how many times the access runs (> 1 on nested-loop inner sides);
          total attributable cost is [executions *. access_cost] *)
}

type t = {
  node : node;
  rows : float;
  cost : float;  (** cumulative, including inputs *)
  out_order : (column * order_dir) list;
  out_cols : Column_set.t;
}

and node =
  | Seq_scan of string
  | Index_scan of Index.t
  | Index_seek of { index : Index.t; sel : float; seek_cols : column list }
  | Rid_intersect of t * t
  | Rid_union of { index : Index.t; points : int; rows : float }
      (** multi-point seek: one seek per IN-list value, rids unioned *)
  | Rid_lookup of { input : t; rel : string }
  | Filter of {
      input : t;
      ranges : Relax_sql.Predicate.range list;
      others : Relax_sql.Expr.t list;
    }
  | Sort of { input : t; order : (column * order_dir) list }
  | Hash_join of { build : t; probe : t; joins : Relax_sql.Predicate.join list }
  | Merge_join of { left : t; right : t; joins : Relax_sql.Predicate.join list }
      (** both inputs sorted on the join keys *)
  | Nl_join of { outer : t; inner : t; joins : Relax_sql.Predicate.join list }
  | Group of {
      input : t;
      keys : column list;
      aggs : Relax_sql.Query.select_item list;
      streaming : bool;
    }
  | Access of { info : access_info; input : t }

val cost : t -> float
val rows : t -> float

val iter_accesses : (access_info -> unit) -> t -> unit
(** Apply a function to every access decision, pre-order, without
    materializing a list — the traversal the search's per-node scoring
    loops use. *)

val accesses : t -> access_info list
(** Every access decision in the plan ({!iter_accesses} order). *)

val index_usages : t -> index_usage list
val uses_view : t -> View.t -> bool

val pp : Format.formatter -> t -> unit
