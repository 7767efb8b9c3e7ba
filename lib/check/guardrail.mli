(** The online guardrail: the differential checker's oracles run once
    against a proposed configuration before the continuous tuner deploys
    it, plus the post-deploy cost-drift predicate behind auto-rollback.

    Pre-deploy, {!validate} checks structural invariants
    ({!Invariants.check}), re-derives every index size by packing
    simulation ({!Size_check.check_index}), enforces the space budget and
    recomputes the predicted window cost through an independent what-if
    interface (agreement within [cost_slack], default 1% — looser than
    [bound_epsilon] because §3 plan patching legitimately drifts a
    fraction of a percent from exact re-optimization).  Oracle
    computations run under a private recorder and never pollute the
    caller's metrics or trace. *)

type verdict = {
  passed : bool;
  reasons : string list;
      (** one human-readable line per failed check; empty iff [passed] *)
  invariant_violations : Invariants.violation list;
  size_failures : Size_check.result list;
  size_bytes : float;  (** total footprint of the proposal *)
  recomputed_cost : float;
      (** independent what-if cost of the window under the proposal *)
  claimed_cost : float;
}

val validate :
  ?tolerances:Checker.tolerances ->
  ?cost_slack:float ->
  Relax_catalog.Catalog.t ->
  workload:Relax_sql.Query.workload ->
  space_budget:float ->
  claimed_cost:float ->
  Relax_physical.Config.t ->
  verdict

val drift_exceeded : margin:float -> predicted:float -> realized:float -> bool
(** Post-deploy rollback trigger: realized per-unit-weight cost above the
    predicted one by more than [margin] (one-sided; running cheaper than
    predicted never fires). *)

val drift_ratio : predicted:float -> realized:float -> float
(** realized / predicted, [1.0] when the prediction is degenerate. *)
