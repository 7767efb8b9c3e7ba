(** The cost-based query optimizer: System-R-style dynamic programming over
    connected table subsets with hash joins and index nested-loop joins
    (whose inner sides issue parameterized index requests), view matching
    for every enumerated sub-join and for the full grouped block, and
    grouping/ordering enforcement on top.

    Hooks fire on every index and view request — the entire instrumentation
    surface of §2. *)

val optimize :
  Relax_catalog.Catalog.t ->
  Relax_physical.Config.t ->
  ?hooks:Hooks.t ->
  Relax_sql.Query.select_query ->
  Plan.t
(** Optimize one select query under a configuration. *)
