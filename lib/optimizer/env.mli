(** Optimization environment: the catalog extended with the derived tables
    that simulate the configuration's materialized views (the what-if
    principle: a hypothetical view is pure metadata). *)

open Relax_sql.Types
module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config

type t = {
  cat : Catalog.t;  (** includes the derived view-tables *)
  config : Config.t;
}

val make : Catalog.t -> Config.t -> t
(** Registers a derived table per view, synthesizing column statistics from
    the base tables the view projects (memoized per view). *)

val rows : t -> string -> float
val col_stats : t -> column -> Catalog.col_stats
val col_stats_opt : t -> column -> Catalog.col_stats option
val row_width : t -> string -> float
val width_of : t -> column -> float
val indexes_on : t -> string -> Relax_physical.Index.t list
val clustered_on : t -> string -> Relax_physical.Index.t option

val table_pages : t -> string -> float
(** Heap (or clustered) pages: what a full scan of the relation reads. *)
