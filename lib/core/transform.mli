(** Relaxation transformations (§3.1): replace one or two physical
    structures of a configuration by smaller, generally less efficient
    ones. *)

module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config

type t =
  | Merge_indexes of Index.t * Index.t  (** asymmetric: first stays seekable *)
  | Split_indexes of Index.t * Index.t
  | Prefix_index of Index.t * Index.t  (** original, replacement prefix *)
  | Promote_clustered of Index.t
  | Remove_index of Index.t
  | Merge_views of View.t * View.t
  | Remove_view of View.t

val pp : Format.formatter -> t -> unit

val id : t -> string
(** Stable identity for bookkeeping. *)

val kind : t -> string
(** The constructor name in snake case ([merge_indexes], [remove_view],
    ...): the per-kind key used by metrics and trace events. *)

val adds_structures : t -> bool
(** Does the transformation introduce replacement structures (merged,
    split, prefixed or promoted indexes, a merged view)?  [false] exactly
    for pure removals ([Remove_index], [Remove_view]): those shrink the
    plan space, so the old plan's cost is a sound lower bound on the
    re-optimized cost (see {!Cost_bound.query_lower_bound}). *)

val removed_indexes : Config.t -> t -> Index.t list
(** Indexes leaving the configuration (for view transformations: every
    index over the removed views).  An input of a merge or split that the
    result reproduces stays, so it is not listed. *)

val removed_views : t -> View.t list

val apply : estimate_rows:(View.t -> float) -> Config.t -> t -> Config.t option
(** Apply to a configuration; [None] when no longer applicable (stale
    structures).  View merging promotes the inputs' indexes onto the merged
    view through the column remapping and keeps exactly one clustered index
    per view; [estimate_rows] supplies the merged view's cardinality
    (§3.3.1 reuses the optimizer's cardinality module). *)

val enumerate : ?protected:Config.t -> Config.t -> t list
(** Every applicable transformation; structures in [protected] (the base
    configuration) are never transformed. *)
