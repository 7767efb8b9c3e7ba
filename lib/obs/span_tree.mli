(** Hierarchical spans with per-domain attribution.

    The recorder's span bookkeeping: each domain keeps its own stack of
    open frames, so nesting is well-parenthesized per domain even with
    worker domains timing their tasks concurrently.  Per-name aggregates
    carry both total and self (exclusive) wall-clock; completed span
    records — ids, parent ids, timestamps, durations — are retained only
    when profiling ([retain:true]), which is what the Chrome trace-event
    export consumes. *)

(** One completed span. *)
type span = {
  sid : int;  (** unique, ordered by open time across all domains *)
  parent : int option;  (** enclosing span on the same domain *)
  name : string;
  domain : int;  (** [Domain.self] of the opening domain *)
  depth : int;  (** nesting level on its domain, outermost = 1 *)
  t0 : float;  (** open timestamp ({!Clock.now}) *)
  dur_s : float;
}

type frame
(** An open span, returned by {!enter} and consumed by {!exit}. *)

type t

val create : retain:bool -> unit -> t
(** [retain] keeps completed span records for {!spans} (profiling mode);
    without it only the per-name aggregates accumulate. *)

val enter : t -> string -> frame
val exit : t -> frame -> float
(** Close the frame, returning its duration in seconds.  Must be called
    on the domain that entered it, in LIFO order per domain (the
    recorder's [Fun.protect] discipline guarantees both). *)

val aggregates : t -> Metrics.span_stat list
(** Per-name totals, sorted by name. *)

val spans : t -> span list
(** Completed spans in open (sid) order; [[]] unless [retain]. *)
