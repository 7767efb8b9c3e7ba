let write_file path write =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        write oc;
        Out_channel.flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Unix.rename tmp path
  with e -> (
    (try Sys.remove tmp with Sys_error _ -> ());
    match e with
    | Unix.Unix_error (err, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message err))
    | e -> raise e)
