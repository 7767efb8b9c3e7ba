(** Access-path requests — the contract between the optimizer and the
    tuner.

    An index request [(S, N, O, A)] (§2) is issued by the optimizer's
    single-relation access-path-selection entry point each time it needs a
    physical sub-plan for a logical single-table expression. *)

open Relax_sql.Types

type t = {
  rel : string;  (** the relation (base table or view-table) *)
  ranges : Relax_sql.Predicate.range list;
      (** sargable conjuncts against constants *)
  param_eq : column list;
      (** sargable equalities against join parameters (index nested-loop
          inner sides) *)
  others : Relax_sql.Expr.t list;  (** N: non-sargable conjuncts *)
  order : (column * order_dir) list;  (** O: required output order *)
  cols : Column_set.t;  (** every column required upward *)
}

val make :
  rel:string ->
  ?ranges:Relax_sql.Predicate.range list ->
  ?param_eq:column list ->
  ?others:Relax_sql.Expr.t list ->
  ?order:(column * order_dir) list ->
  cols:Column_set.t ->
  unit ->
  t
(** [cols] is automatically extended with every column the predicates and
    order reference. *)

val sargable_columns : t -> Column_set.t
(** S. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Exact identity: float constants by their bits, order columns with
    their direction, [cols] as a set.  Two requests that are not [equal]
    may be answered by different plans. *)

val hash : t -> int
(** A hash consistent with {!equal} (for [Hashtbl.Make]). *)

val fingerprint : t -> string
(** Lossy identity, used only to count distinct requests (Table 1).  It
    prints constants with [%g] (6 significant digits) and drops the order
    direction, so requests that cost differently can share a fingerprint:
    never use it as a costing key — {!equal} is the exact identity. *)
