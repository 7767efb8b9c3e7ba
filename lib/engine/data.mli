(** Concrete table data, generated from the catalog's column distributions.

    The tuning pipeline never touches rows (like the paper's tools); this
    engine exists to {e validate} it: with real rows the validator measures
    true cardinalities and page accesses against the optimizer's
    estimates. *)

open Relax_sql.Types

(** One relation's rows: schema plus row-major float data (values use the
    same order-preserving float embedding as the statistics). *)
type relation = {
  rel_name : string;
  schema : column array;
  rows : float array array;
}

val column_index : relation -> column -> int
(** @raise Invalid_argument for an unknown column. *)

val row_count : relation -> int

(** An in-memory database: lazily generated base tables plus registered
    materialized-view contents. *)
type t = {
  catalog : Relax_catalog.Catalog.t;
  seed : int;
  relations : (string, relation) Hashtbl.t;
}

val create : ?seed:int -> Relax_catalog.Catalog.t -> t

val relation : t -> string -> relation
(** Fetch (generating on first access).  @raise Invalid_argument for
    unknown relations. *)

val register : t -> relation -> unit
(** Register a computed relation (a materialized view's contents). *)

val mem : t -> string -> bool
