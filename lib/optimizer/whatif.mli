(** The what-if costing layer: memoized optimization of workload statements
    under hypothetical configurations.

    A query's plan only depends on the sub-configuration relevant to its
    tables ({!Relax_physical.Config.fingerprint_for_tables}), so
    configurations agreeing there share one optimization call — the
    mechanism behind the paper's "only re-optimize queries that used a
    replaced structure".

    Domain-safe: the plan cache is sharded by key hash and each shard's
    store is one persistent map in an [Atomic.t], so cache-hit reads
    ({!plan_select}'s fast path, {!find_cached}, {!cost_interval}) are
    lock-free — one atomic load plus a map lookup.  Writers replace the
    map under the shard mutex.  Concurrent requests for the same
    uncached key are deduplicated: the first pays the optimizer call,
    later ones wait on the shard's condition variable and count a cache
    hit.  The advisory bound store is sharded the same way (by qid), so
    worker domains scoring candidates never serialize on a global bounds
    mutex. *)

type t

val create : Relax_catalog.Catalog.t -> t

val stats : t -> int * int
(** (optimizer calls actually executed, cache hits). *)

val cached_plans : t -> int
(** Number of distinct plans currently memoized, across all shards. *)

val plan_select :
  t -> Relax_physical.Config.t -> qid:string -> Relax_sql.Query.select_query ->
  Plan.t

val find_cached :
  t -> Relax_physical.Config.t -> qid:string -> tables:string list ->
  Plan.t option
(** The memoized plan for [qid] under [config], when present.  Never
    optimizes and updates no counter: the peek used by the frugal
    evaluation tier, which substitutes a bound-costed plan on a miss
    instead of paying an optimizer call. *)

val cost_interval :
  t -> Relax_physical.Config.t -> qid:string -> tables:string list ->
  float * float
(** Advisory (lower, upper) bounds on [qid]'s optimized plan cost under
    [config], derived from costs already paid for structure-set-comparable
    configurations (identical clustered-index entries required: clustering
    changes the stored base data): a recorded superset's cost bounds from
    below, a subset's from above.  [(0., infinity)] when nothing comparable
    was optimized yet.  Makes no optimizer call. *)

val bounds_size : t -> int
(** Total advisory-bound records currently held, across all qids.  The
    store is bounded (a few dozen records per qid, dominated records
    evicted first), so this stays proportional to the number of distinct
    statements costed — not to the number of optimizer calls made — however
    long the instance lives. *)

val reset_bounds : t -> unit
(** Drop every advisory bound.  Cached plans are kept. *)

val evict : t -> keep:(string -> bool) -> unit
(** Evict every cached plan and advisory bound whose owning workload qid
    fails [keep] (DML select components are evicted with their owner).
    Called by the continuous-tuning daemon on window rotation so departed
    statements stop pinning cache entries. *)

val entry_cost : t -> Relax_physical.Config.t -> Relax_sql.Query.entry -> float
(** Plan cost for selects; select-component cost plus update-shell
    maintenance for DML (§3.6). *)

val workload_cost :
  t -> Relax_physical.Config.t -> Relax_sql.Query.workload -> float
(** Weighted total. *)

val per_entry_costs :
  t -> Relax_physical.Config.t -> Relax_sql.Query.workload ->
  (string * float) list

(** {1 On-disk persistence}

    The advisory bound store — (qid, configuration fingerprint, cost)
    triples, not plans — can be saved and reloaded across processes, so
    repeated [tune]/[bench] invocations against the same catalog
    amortize their costing: a reloaded record whose fingerprint matches
    the queried configuration exactly gives {!cost_interval} a point
    interval, and the frugal tier then skips the optimizer call.  Files
    are keyed by {!Relax_catalog.Catalog.fingerprint}; a mismatch
    refuses to load (costs are meaningless against other statistics). *)

val save_bounds : t -> file:string -> (int, string) result
(** Write the current advisory bounds to [file] (deterministic order:
    qids sorted, records oldest first) through
    {!Relax_obs.Durable.write_file}, so a failed write leaves the old file
    intact.  [Ok n] is the record count. *)

val load_bounds : t -> file:string -> (int, string) result
(** Merge the records of [file] into the store, newest-first order
    preserved.  [Ok n] is the number of records loaded; [Error _] on a
    catalog-fingerprint mismatch, unreadable file or malformed JSON (the
    store is left as it was on the mismatch path, possibly partially
    extended on a malformed-record path — harmless, bounds are
    advisory). *)
