(* The benchmark's own tests, on reduced copies of its workloads. *)

open Perfbench
module T = Relax_tuner
module Json = Relax_obs.Json
module Config = Relax_physical.Config

let reduced name =
  match Workload.find ~size:Workload.Reduced name with
  | Some w -> w
  | None -> Alcotest.failf "no workload %s" name

let names = List.map (fun (w : Workload.t) -> w.name) (Workload.all ())

(* a run of a single operation *)
let once w ~seed = Measure.untraced w ~seed ~seconds:1e-6

let counts (r : Measure.run) =
  List.filter_map
    (fun (m : Measure.metric) ->
      if m.unit_ = "s" then None else Some (m.name, m.value))
    r.metrics

let statements (inp : Workload.inputs) =
  List.map Relax_daemon.Stream.line_of_entry inp.statements

let test_other_seed name () =
  let w = reduced name in
  Alcotest.(check bool)
    "seed 2 draws other constants" false
    (statements (w.generate ~seed:1) = statements (w.generate ~seed:2))

let test_rank_on_c_best () =
  let inp = (reduced "tpchlike_exact").generate ~seed:1 in
  let c_best =
    (T.Instrument.optimal_configuration inp.catalog ~base:Config.empty
       ~views:false inp.statements)
      .optimal
  in
  let stats =
    Rank_replay.replay (Ledger.create ()) inp.catalog ~protected:Config.empty
      ~workload:inp.statements [ c_best ]
  in
  Alcotest.(check int) "one node" 1 stats.nodes;
  Alcotest.(check int)
    "every transformation of c_best"
    (List.length (T.Transform.enumerate c_best))
    stats.transforms

let declared section =
  let json =
    match
      Json.of_string
        (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  match Json.member section json with
  | Some (Json.List entries) ->
    List.map
      (fun e ->
        match
          ( Option.bind (Json.member "name" e) Json.to_string_opt,
            Option.bind (Json.member "unit" e) Json.to_string_opt )
        with
        | Some n, Some u -> (n, u)
        | _ -> Alcotest.failf "%s entry without name or unit" section)
      entries
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" section

let well_formed name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let printed (r : Measure.run) =
  match Json.of_string (Measure.result_line r) with
  | Ok j -> (
    match Json.member "metrics" j with
    | Some (Json.Obj metrics) ->
      List.map
        (fun (n, m) ->
          ( n,
            Option.value ~default:""
              (Option.bind (Json.member "unit" m) Json.to_string_opt) ))
        metrics
    | _ -> Alcotest.fail "result line without metrics")
  | Error e -> Alcotest.failf "result line is not JSON: %s" e

(* every metric the result line prints is declared, with its unit, and
   well-formed; none is missing *)
let check_printed section (r : Measure.run) =
  let decl = declared section in
  List.iter
    (fun (n, u) ->
      if not (well_formed n) then Alcotest.failf "bad metric name %S" n;
      match List.assoc_opt n decl with
      | Some u' -> Alcotest.(check string) ("unit of " ^ n) u' u
      | None -> Alcotest.failf "%s is not declared in %s" n section)
    (printed r);
  Alcotest.(check int)
    ("every " ^ section ^ " metric printed")
    (List.length decl)
    (List.length (printed r))

(* two runs at one seed agree exactly and print the declared metrics *)
let test_same_seed name () =
  let w = reduced name in
  let a = once w ~seed:3 and b = once w ~seed:3 in
  Alcotest.(check string) "fingerprint" a.fingerprint b.fingerprint;
  Alcotest.(check (list (pair string (float 0.0))))
    "counts"
    (List.remove_assoc "peak_heap_mb" (counts a))
    (List.remove_assoc "peak_heap_mb" (counts b));
  Alcotest.(check (list string)) "checks pass" [] a.failures;
  check_printed "end_to_end" a

let test_traced name () =
  let traced, _ = Measure.traced (reduced name) ~seed:1 in
  Alcotest.(check (list string)) "checks pass" [] traced.failures;
  check_printed "per_layer" traced

let test_declarations_match () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (declared "end_to_end") Measure.end_to_end;
  Alcotest.(check (list (pair string string)))
    "per_layer" (declared "per_layer") Measure.per_layer

let () =
  let per_workload label f =
    List.map (fun n -> Alcotest.test_case (label ^ " " ^ n) `Quick (f n)) names
  in
  Alcotest.run "perfbench"
    [
      ("untraced", per_workload "same seed" test_same_seed);
      ("traced", per_workload "ledger" test_traced);
      ("seeds", per_workload "other seed" test_other_seed);
      ( "rank replay",
        [ Alcotest.test_case "c_best" `Quick test_rank_on_c_best ] );
      ( "declarations",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_declarations_match;
        ] );
    ]
