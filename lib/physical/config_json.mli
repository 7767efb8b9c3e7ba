(** Durable JSON serialization of physical configurations.

    Round-trip exact: [of_string (to_string c)] rebuilds a configuration
    with the same fingerprint (indexes and views re-enter through their
    canonicalizing constructors, so derived names are re-derived rather
    than trusted from the file), and [to_string] is deterministic —
    structures sorted, floats printed shortest-exact — so the daemon can
    compare and restore deployed configurations byte-identically. *)

val to_json : Config.t -> Relax_obs.Json.t
val to_string : Config.t -> string

val of_string : string -> (Config.t, string) result
