(** Perf-regression comparison of two bench JSON outputs.

    The library behind [bin/perfdiff.exe]: compares a bench JSON emitted
    by [bench/main.exe micro] (the jobs-sweep [BENCH_parallel.json] or
    the frugality [BENCH_frugal.json]) against a committed baseline,
    matching runs by their string [label] field when present, else by
    [jobs], and checking every known metric against a relative threshold.
    Deterministic work counters (what-if calls up, cache hits down,
    configurations evaluated drifting either way, the frugality counters)
    use [counter_tol] (default 10 %); wall-clock metrics (elapsed up,
    throughput down) use [time_tol] (default 50 %, CI machines are
    noisy).

    [what_if_calls] is a {e hard} gate: a breach exits 3 and fails CI
    outright — it is the budget the frugal costing tier exists to keep
    down.  Every other metric is soft (exit 1, CI annotates).  The
    frugality counters ([bound_accepts], [bound_rejects], [budget_spent])
    are optional: they are compared only when both runs carry them.

    Exit-code mapping (see {!exit_code}): 0 = within thresholds, 1 = soft
    regression(s) only, 2 = malformed or missing input, 3 = hard
    regression(s). *)

type comparison = {
  lines : string list;  (** one line per compared metric, run order *)
  regressions : string list;  (** the lines that breached their threshold *)
  hard_regressions : string list;
      (** subset of [regressions] on hard-gated metrics ([what_if_calls]) *)
  skipped : string list;
      (** wall-clock gates waived because the [host] blocks of the two
          files differ (core count, compiler): timing on different host
          shapes is noise, not signal.  Non-empty iff a waiver happened;
          the first entry summarizes both hosts.  Counter gates are never
          waived. *)
}

val compare_json :
  ?counter_tol:float ->
  ?time_tol:float ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  (comparison, string) result
(** [Error msg] means malformed input (no runs, non-numeric required
    fields, a baseline run with no matching current run). *)

val compare_files :
  ?counter_tol:float ->
  ?time_tol:float ->
  baseline:string ->
  current:string ->
  unit ->
  (comparison, string) result

val exit_code : (comparison, string) result -> int
(** [0] clean, [1] soft regression(s), [2] malformed/missing input,
    [3] hard regression(s). *)

(** {1 Multi-core scaling gate}

    Asserts, on one [BENCH_parallel.json], that parallelism pays: the
    [jobs=2] run's wall clock must not exceed the [jobs=1] run's (within
    [time_tol]), and the sweep's [identical_results] determinism verdict
    must hold.  The wall-clock half is waived — with an explicit skip
    reason the CI job surfaces as a [::warning] — when the file's [host]
    block reports fewer than 2 cores (a 1-core runner cannot show
    speedup); the determinism half is never waived. *)

type scaling = {
  s_lines : string list;  (** one line per assertion *)
  s_failures : string list;  (** hard failures (exit-3 class) *)
  s_skipped : string option;  (** waiver reason, when waived *)
}

val check_scaling_file :
  ?time_tol:float -> string -> (scaling, string) result

val scaling_exit_code : (scaling, string) result -> int
(** [0] clean or waived, [2] malformed input, [3] scaling/determinism
    failure. *)
