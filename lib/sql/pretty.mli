(** SQL rendering of queries, statements and workloads.  The output is
    valid input for {!Parser} (the round-trip property the test suite
    checks). *)

val pp_spjg : Format.formatter -> Query.spjg -> unit
val statement_to_string : Query.statement -> string
