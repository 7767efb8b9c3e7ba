(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the workload is measured for S seconds and every
   end-to-end metric is printed; with --trace 1 it runs once traced,
   every per-layer metric is printed, and the spans are written to
   _perfbench/NAME-seedN.spans.jsonl.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let report ~workload ~seed ~trace (r : Measure.run) =
  Printf.printf "perfbench %s seed %d (%s)\n" workload seed
    (if trace then "traced" else "untraced");
  List.iter
    (fun (m : Measure.metric) ->
      match List.assoc_opt m.name r.samples with
      | Some n ->
        Printf.printf "  %-30s %16.6f %-7s median of %d\n" m.name m.value
          m.unit_ n
      | None -> Printf.printf "  %-30s %16.6f %s\n" m.name m.value m.unit_)
    r.metrics;
  Printf.printf "  %-30s %16.6f share (%d of %d operations failed)\n"
    "failed_share"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  Printf.printf "  %-30s %16.6f %-7s median of %d (not bounded: see README)\n"
    "wall_s" (Ledger.median r.op_walls) "s" (List.length r.op_walls);
  Printf.printf "  operations' wall-clock (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") r.op_walls));
  (let p50, n = r.retune_p50_s in
   Printf.printf "  %-30s %16.6f %-7s median of %d\n" "retune_p50_s" p50 "s" n);
  if r.cycle_actions <> [] then
    Printf.printf "  re-tune cycles: %s\n" (String.concat " " r.cycle_actions);
  Printf.printf "  recommended fingerprint: %s\n"
    (if r.fingerprint = "" then "(base configuration)" else r.fingerprint);
  Option.iter
    (fun gap ->
      Printf.printf "  fresh re-costing gap: %.6f%% (limit %.0f%%)\n"
        (100.0 *. gap)
        (100.0 *. Measure.recost_slack))
    r.max_recost_gap;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures;
  print_endline (Measure.result_line r)

let () =
  let workload = ref "" and seed = ref Workload.default_seed in
  let seconds = ref 10.0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ( "--seed",
        Arg.Set_int seed,
        Printf.sprintf
          "N seed the inputs are generated from (default %d; %d is held out \
           for checking later claims)"
          Workload.default_seed Workload.held_out_seed );
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
    ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  Arg.parse spec (fun a -> fail ("unexpected argument " ^ a)) usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      fail
        (Printf.sprintf "unknown workload %S (one of %s)" !workload
           (String.concat ", "
              (List.map (fun (w : Workload.t) -> w.name) (Workload.all ()))))
  in
  if !seconds <= 0.0 then fail "--seconds must be positive";
  match !trace with
  | 0 ->
    report ~workload:w.name ~seed:!seed ~trace:false
      (Measure.untraced w ~seed:!seed ~seconds:!seconds)
  | 1 ->
    let run, ledger = Measure.traced w ~seed:!seed in
    Ledger.write ledger
      (Printf.sprintf "_perfbench/%s-seed%d.spans.jsonl" w.name !seed);
    report ~workload:w.name ~seed:!seed ~trace:true run
  | _ -> fail "--trace must be 0 or 1"
