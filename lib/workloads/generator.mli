(** Random workload generation over any schema with a foreign-key join
    graph.  All randomness flows through a seeded generator: workloads are
    reproducible. *)

module Query = Relax_sql.Query

type profile = {
  min_tables : int;
  max_tables : int;
  ranges_per_query : int;  (** expected range predicates per query *)
  eq_fraction : float;  (** fraction of ranges that are equalities *)
  group_by_prob : float;
  order_by_prob : float;
  other_pred_prob : float;  (** chance of a non-sargable conjunct *)
  update_fraction : float;  (** fraction of DML statements *)
  avg_selectivity : float;  (** target width of range predicates *)
}

val default_profile : profile

(** A schema description for the generator. *)
type schema = {
  catalog : Relax_catalog.Catalog.t;
  joins : (Relax_sql.Types.column * Relax_sql.Types.column) list;
      (** the FK join graph *)
}

val reparameterize :
  ?avg_sel:float ->
  schema ->
  Relax_catalog.Rng.t ->
  Query.workload ->
  Query.workload
(** Re-draw the constants of every range predicate: the same templates with
    new parameters (what repeated production workloads look like). *)

val workload : ?seed:int -> ?profile:profile -> schema -> n:int -> Query.workload
(** A reproducible random workload of [n] statements, ids [g1], [g2], ... *)
