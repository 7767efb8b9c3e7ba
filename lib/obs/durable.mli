(** Crash-safe replacement of a file's contents.

    Every durable write in the repository (the daemon's deployment state,
    the what-if bound cache) goes through {!write_file}: the new contents
    are written to a temporary file beside the target, flushed to disk,
    then renamed over it.  A crash or a raising writer at any point leaves
    either the old file or the new one, never a torn mix. *)

val write_file : string -> (out_channel -> unit) -> unit
(** [write_file path write] replaces [path] with what [write] outputs.
    If [write], the flush or the rename fails, the temporary file is
    removed, [path] is left untouched and the exception is re-raised
    ([Unix.Unix_error] as [Sys_error]). *)
