(** Differential size oracle for the §3.3.1 B-tree model.

    {!Relax_physical.Size_model} computes sizes in closed form (float
    division, [floor] capacities, [ceil] page counts).  This module
    re-derives the same quantities by {e simulation}: entries are packed
    onto pages one at a time until a page overflows, page counts are
    integer arithmetic, and the index widths are re-derived from the index
    definition rather than shared with the model.  Agreement within a
    small tolerance is strong evidence the closed form is right; a
    disagreement pinpoints a rounding or truncation bug (the class of bug
    this checker was built to catch). *)

type result = {
  structure : string;
  predicted : float;  (** bytes, per the closed-form model *)
  simulated : float;  (** bytes, per the packing simulation *)
  measured_rows : float option;
      (** actual row count when the relation was materialized through the
          engine; [None] when it was too large to materialize *)
  rel_err : float;  (** |predicted − simulated| / max(1, predicted) *)
}

val simulate_btree_pages :
  ?params:Relax_physical.Size_model.params ->
  rows:float -> leaf_width:float -> key_width:float -> unit -> float
(** Page count of a B-tree by packing simulation: leaf capacity is found
    by adding entries to a page until it overflows, internal fan-out
    likewise (clamped to ≥ 2), level page counts are integer ceiling
    divisions. *)

val check_index :
  ?params:Relax_physical.Size_model.params ->
  ?rows:float ->
  Relax_catalog.Catalog.t ->
  Relax_physical.Config.t ->
  Relax_physical.Index.t ->
  result
(** Compare {!Relax_physical.Config.index_bytes} against the simulated
    size of the same index.  [rows] overrides the configuration's row
    count for the owner (used when the engine measured the real count). *)

val measured_rows :
  Relax_engine.Data.t ->
  Relax_physical.Config.t ->
  sample:int ->
  string ->
  float option
(** Materialize a relation through the engine and count its rows: base
    tables directly, views by evaluating their definition.  [None] when
    any involved base table exceeds [sample] rows (materialization would
    be too expensive for a checker). *)
