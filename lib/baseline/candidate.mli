(** Per-query candidate selection for the bottom-up baseline tuner: the
    classic AutoAdmin architecture the paper critiques, with its industrial
    shortcuts (capped key sequences, truncated per-query lists, views for
    whole query blocks only). *)

module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config

type t =
  | Cand_index of Index.t
  | Cand_view of View.t * float * Index.t list
      (** view, row estimate, its indexes (clustered first) *)

val pp : Format.formatter -> t -> unit
val id : t -> string
val size : Relax_catalog.Catalog.t -> t -> float
val add_to_config : Config.t -> t -> Config.t

val index_candidates : Relax_sql.Query.select_query -> Index.t list
(** Heuristic candidates guessed from query structure: equality, range,
    join, grouping and ordering columns, in the classic combinations, plus
    covering variants. *)

val view_candidates :
  Relax_optimizer.Env.t -> Relax_sql.Query.select_query -> t list
(** The full block and (when grouped) its SPJ core; sub-join views are not
    proposed — the shortcut the paper calls out. *)

val for_query :
  Relax_optimizer.Env.t ->
  with_views:bool ->
  Relax_sql.Query.select_query ->
  t list
