(** Maintenance costs of physical structures under update statements
    (§3.6): the "update shell" model.

    An index on the updated table is charged when the statement touches any
    of its columns (always, for inserts and deletes); an index over a view
    is charged whenever the view reads the updated table, with a multiplier
    for delta computation. *)

val affected_rows : Env.t -> Relax_sql.Query.dml -> float
(** Estimated rows the statement touches. *)

val index_affected : Relax_sql.Query.dml -> Relax_physical.Index.t -> bool
val view_affected : Relax_sql.Query.dml -> Relax_physical.View.t -> bool

val shell_cost :
  Env.t -> Relax_physical.Config.t -> Relax_sql.Query.dml -> float
(** Total maintenance cost of the configuration for one update statement
    (plus the config-independent base-relation write). *)
