(** One structured lint finding: rule id, position, message, suggestion.

    Findings are emitted both as human-readable text and as JSONL lines
    (reusing {!Relax_obs.Json}), so CI can keep the machine-readable
    report as an artifact while the build log stays greppable. *)

type t = {
  rule : string;  (** "L1" .. "L8", or "W0" for stale waivers *)
  file : string;  (** source path as recorded in the cmt, e.g. [lib/core/search.ml] *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching the compiler's own convention *)
  message : string;
  suggestion : string;
}

val make :
  rule:string ->
  file:string ->
  line:int ->
  col:int ->
  message:string ->
  suggestion:string ->
  t
(** Build a finding from an already-extracted position. *)

val compare : t -> t -> int
(** Order by file, line, column, rule — the emission order of reports. *)

val to_json : t -> Relax_obs.Json.t
(** [{"event":"lint.finding","rule":...,"file":...,"line":...,...}] *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: [rule] message] plus an indented suggestion line. *)
