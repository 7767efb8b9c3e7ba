(** Structured tuning metrics.

    One mutable {!t} accumulates everything the search and the optimizer
    layers report through {!Probe}; an immutable {!snapshot} is what ends
    up in [Tuner.result], the [--metrics] table and the bench JSON
    output.  The named fields are the quantities the paper's evaluation
    (and every perf PR after this one) needs to see; [counters] carries
    open-ended named counts from deeper layers (access-path requests,
    view-match attempts, ...). *)

type t = {
  lock : Mutex.t;
      (** guards every field: probes fire from worker domains during
          parallel scoring and re-optimization.  Mutate only through the
          update functions below or inside {!locked}. *)
  mutable what_if_calls : int;
      (** what-if optimizations actually executed (cache misses) *)
  mutable cache_hits : int;  (** what-if calls answered from the plan cache *)
  mutable plans_reoptimized : int;
      (** per-query plans re-optimized because a relaxation touched them *)
  mutable plans_patched : int;
      (** per-query plans carried over unchanged (the §3 avoidance rule) *)
  mutable shortcut_aborts : int;
      (** configuration evaluations abandoned early (§3.5) *)
  mutable iterations : int;  (** search iterations executed *)
  mutable configurations_evaluated : int;
      (** configurations fully evaluated and added to the pool *)
  generated : (string, int) Hashtbl.t;
      (** transformations enumerated, per kind *)
  applied : (string, int) Hashtbl.t;
      (** transformations successfully applied, per kind *)
  counters : (string, int) Hashtbl.t;  (** open-ended named counters *)
  histograms : (string, Histogram.t) Hashtbl.t;
      (** named latency histograms (span durations, pool task wait/run);
          mutate through {!observe} *)
  mutable pool_trace : int list;
      (** pool size after each iteration, newest first *)
}

val create : unit -> t

val locked : t -> (unit -> 'a) -> 'a
(** Run [f] holding the accumulator's lock; every direct field mutation
    must happen inside (do not nest with the update functions below,
    which take the lock themselves). *)

val add_generated : t -> kind:string -> unit
val add_applied : t -> kind:string -> unit
val count : t -> string -> int -> unit
val record_pool : t -> int -> unit

val observe : t -> string -> float -> unit
(** Record one duration (seconds) in the named latency histogram. *)

(** Aggregated timing of one span name. *)
type span_stat = {
  span_name : string;
  calls : int;
  total_s : float;  (** summed wall-clock over all calls *)
  self_s : float;
      (** summed wall-clock excluding time spent in child spans *)
  max_depth : int;  (** deepest nesting level observed (outermost = 1) *)
}

type snapshot = {
  what_if_calls : int;
  cache_hits : int;
  plans_reoptimized : int;
  plans_patched : int;
  shortcut_aborts : int;
  iterations : int;
  configurations_evaluated : int;
  transforms_generated : (string * int) list;  (** sorted by kind *)
  transforms_applied : (string * int) list;  (** sorted by kind *)
  named_counters : (string * int) list;  (** sorted by name *)
  pool_trace : int list;  (** pool size after each iteration, oldest first *)
  spans : span_stat list;  (** sorted by name *)
  latency : (string * Histogram.snap) list;
      (** latency histograms, sorted by name; surfaced as p50/p90/p99 in
          {!pp}, {!to_json} and the bench JSON *)
}

val snapshot : t -> spans:span_stat list -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum (assoc lists merged by key, span times summed,
    [pool_trace] concatenated). *)

val merge_all : snapshot list -> snapshot

val to_json : snapshot -> Json.t
(** The object embedded in traces and in the bench JSON output. *)

val pp : Format.formatter -> snapshot -> unit
(** The [--metrics] table. *)
