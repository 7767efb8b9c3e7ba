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

(** A per-tune table of the §3.6 charges {!shell_cost} folds, priced once
    per structure rather than once per configuration.

    It holds each DML's affected-row count (configuration-independent),
    each (DML, index) charge and each (DML, view) affected flag.  The key
    is exact: an index by {!Relax_physical.Index.equal}, plus — for an
    index over a view — the bits of the view's row estimate, which lives
    in the configuration rather than the index. *)
module Charges : sig
  type t

  val create :
    Relax_catalog.Catalog.t -> (float * Relax_sql.Query.dml) list -> t
  (** An empty table for the weighted DMLs of one workload on one
      catalog: create one per tune. *)

  val fill :
    ?since:Relax_physical.Config.t -> t -> Relax_physical.Config.t -> unit
  (** Price every structure of the configuration the table lacks; with
      [~since], only those it adds to [since] (new indexes, and the
      indexes and flags of views that are new or re-estimated), whose
      other charges the table must already hold.  Counts one
      [rank.shell_memo.hits] or [rank.shell_memo.misses] per structure
      probed.  Writes the table and may register view statistics in the
      catalog: call it on one domain, never while another reads the
      table.  A no-op without DMLs. *)

  val total : t -> Relax_physical.Config.t -> float
  (** [Σ w · shell_cost (Env.make catalog c) c d] over the weighted DMLs,
      bit for bit: the table's charges summed in {!shell_cost}'s order
      (DMLs in order; per DML, indexes in set order, then views in name
      order).  Reads only, so domains may call it concurrently.  [0.]
      without DMLs.
      @raise Invalid_argument when a charge was never {!fill}ed. *)
end
