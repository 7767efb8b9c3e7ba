(** Per-tune memo of the §3.3.2 access-path re-costing
    ({!Cost_bound.access_bound} on an index transformation).

    The key is exact: the whole request under {!Relax_optimizer.Request.equal}
    (float constants by their bits, order with its direction) and the
    structures on the request's relation under [C'] — its index set and,
    for a view, its name and row estimate.  Safe because access-path
    selection is referentially transparent (relax-lint L7).  Thread-safe:
    concurrent callers of one key wait for a single computation, so the
    [rank.bound_memo.hits] / [rank.bound_memo.misses] counters do not
    depend on the parallelism. *)

type t

val create : unit -> t
(** An empty memo.  Valid for one catalog: create one per tune. *)

val best_cost : t -> Relax_optimizer.Env.t -> Relax_optimizer.Request.t -> float
(** [(Access_path.best env r).cost], computed once per key; the
    [~best_cost] argument of {!Cost_bound.query_bound}. *)
