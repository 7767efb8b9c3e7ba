(** Scalar expressions: the WHERE-clause building blocks.

    Expressions carry the non-sargable ("other") predicates of queries and
    view definitions — where structural equality modulo column equivalence
    is the matching test the paper prescribes — and the right-hand sides of
    UPDATE assignments. *)

open Types

type t =
  | Col of column
  | Const of value
  | Neg of t
  | Bin of arith_op * t * t
  | Cmp of cmp_op * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Like of t * string
  | In_list of t * value list

(** {1 Constructors} *)

val col : column -> t
val const : value -> t
val int_ : int -> t

(** {1 Analysis} *)

val columns : t -> Column_set.t
(** All column references in the expression. *)

val tables : t -> string list
(** Tables referenced (duplicate-free, unspecified order). *)

val equal : t -> t -> bool
(** Structural equality; constants compare by {!Types.Value.equal}. *)

val identical : t -> t -> bool
(** Structural equality with constants compared by
    {!Types.Value.identical} (exact float bits). *)

val equal_modulo : (column -> column -> bool) -> t -> t -> bool
(** Structural equality modulo a column-equivalence relation (the classes
    induced by a query's equi-join predicates, per the paper's view-matching
    rules). *)

val map_columns : (column -> column) -> t -> t
(** Substitute column references, e.g. to map a predicate from base tables
    onto the output columns of a materialized view. *)

val conjuncts : t -> t list
(** Split into top-level AND-conjuncts. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val fingerprint : t -> string
(** A stable structural key, for hashing expressions in caches. *)
