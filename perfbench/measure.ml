(* One benchmark run: set up a workload from its seed, measure it for the
   given number of seconds with tracing off (the end-to-end metrics), or
   run it once traced (the per-layer ledger), and check every
   recommendation it produces. *)

module T = Relax_tuner
module D = Relax_daemon
module C = Relax_check
module O = Relax_optimizer
module Obs = Relax_obs
module Query = Relax_sql.Query
module Config = Relax_physical.Config

let now = Obs.Clock.now

type metric = { name : string; value : float; unit_ : string }

(* Every metric a run prints, in output order: [end_to_end] with tracing
   off, [per_layer] with tracing on.  BENCHMARK.json declares the same
   names (the tests check it). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("what_if_calls", "count");
    ("recommended_cost", "cost");
    ("alloc_gwords", "Gwords");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("instrument.s", "s");
    ("instrument.passes", "count");
    ("instrument.requests", "count");
    ("search.s", "s");
    ("search.iteration_ms.p50", "ms");
    ("search.iteration_ms.p99", "ms");
    ("search.iterations", "count");
    ("search.configs_evaluated", "count");
    ("search.shortcut_aborts", "count");
    ("search.plans_patched", "count");
    ("search.plans_reoptimized", "count");
    ("rank.nodes", "count");
    ("rank.transforms_per_node", "count");
    ("rank.enumerate_s", "s");
    ("rank.apply_s", "s");
    ("rank.size_s", "s");
    ("rank.bound_s", "s");
    ("rank.bound_calls", "count");
    ("rank.bound_us.p50", "us");
    ("rank.affected_share", "share");
    ("rank.bound_key_repeat_share", "share");
    ("access_path.requests", "count");
    ("optimizer.optimize_ms.p50", "ms");
    ("optimizer.optimize_ms.p90", "ms");
    ("optimizer.optimizations", "count");
    ("view_match.attempts", "count");
    ("view_match.match_share", "share");
    ("whatif.calls", "count");
    ("whatif.hits", "count");
    ("whatif.hit_share", "share");
    ("whatif.hit_us.p50", "us");
    ("whatif.cached_plans", "count");
    ("whatif.bounds", "count");
    ("frugal.bound_accepts", "count");
    ("frugal.bound_rejects", "count");
    ("frugal.budget_spent", "count");
    ("frugal.bound_costed", "count");
    ("daemon.retune_s.deploy.p50", "s");
    ("daemon.retune_s.steady.p50", "s");
    ("daemon.ingest_us.p50", "us");
    ("daemon.deploys", "count");
    ("daemon.rollbacks", "count");
    ("guardrail.validate_s", "s");
    ("stream.parse_us.p50", "us");
    ("pool.tasks", "count");
    ("pool.batches", "count");
    ("gc.minor_gwords", "Gwords");
    ("gc.major_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("trace.reference_s", "s");
    ("trace.overhead_s", "s");
    ("trace.unattributed_s", "s");
  ]

(* How many parents of the traced search the rank replay re-scores. *)
let replay_nodes = 4

(* The outcome of one run.  [attempted] counts operations (a tune, or one
   re-tune cycle of the stream) and [failed] those whose correctness check
   failed; [failures] says why. *)
type run = {
  metrics : metric list;
  samples : (string * int) list;  (** sample count behind a median *)
  attempted : int;
  failed : int;
  failures : string list;
  fingerprint : string;  (** the recommended configuration *)
  max_recost_gap : float option;  (** batch workloads only *)
  op_walls : float list;  (** every measured operation's wall-clock, in order *)
  cycle_actions : string list;  (** stream only: the first operation's cycles *)
  retune_p50_s : float * int;
      (** median time to one recommendation (a tune, or a re-tune cycle)
          and its sample count *)
}

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                   *)
(* ------------------------------------------------------------------ *)

(* How far a fresh re-costing may drift from the cost the tuner reported:
   the guardrail's default [cost_slack], also the epsilon BENCH_frugal's
   cost comparison uses.  Carried-over plans (§3: only queries that used a
   replaced structure are re-optimized) may cost slightly less than a fresh
   optimization finds, so the per-bound epsilon (1e-6) is too tight. *)
let recost_slack = 0.01

let recost_gap ~claimed actual =
  Float.abs (actual -. claimed) /. Float.max 1e-9 (Float.abs claimed)

(* The recommendation fits the budget (or is the base configuration, the
   tuner's answer when nothing fits) and is structurally well-formed. *)
let check_config cat ~budget ~base config =
  let size = Config.total_bytes cat config in
  (if
     T.Cost_bound.float_leq size budget
     || Config.fingerprint config = Config.fingerprint base
   then []
   else
     [ Printf.sprintf "recommendation (%.0f bytes) exceeds the budget" size ])
  @ List.map
      (fun v -> Fmt.str "invariant broken: %a" C.Invariants.pp_violation v)
      (C.Invariants.check cat config)

(* A batch recommendation also re-costs, on a fresh what-if interface, to
   the cost the tuner reported. *)
let check_batch (inp : Workload.inputs) (opts : T.Tuner.options)
    (r : T.Tuner.result) =
  let recost =
    O.Whatif.workload_cost (O.Whatif.create inp.catalog) r.recommended
      inp.statements
  in
  let gap = recost_gap ~claimed:r.recommended_cost recost in
  ( gap,
    check_config inp.catalog ~budget:inp.budget ~base:opts.base_config
      r.recommended
    @
    if gap <= recost_slack then []
    else
      [
        Printf.sprintf "recommended cost %.6f re-costs to %.6f"
          r.recommended_cost recost;
      ] )

(* ------------------------------------------------------------------ *)
(* One measured operation                                               *)
(* ------------------------------------------------------------------ *)

type op = {
  wall_s : float;
  latencies : float list;
      (** time to each recommendation: the tune, or every re-tune cycle *)
  what_if_calls : int;
  cost : float;
  config : Config.t;
  minor_words : float;
  actions : string list;  (** stream only: what each re-tune cycle did *)
  recost_gap : float option;
      (** batch only: relative gap between the reported cost and a fresh
          re-costing *)
  peak_mb : float;  (** the process's peak resident set after the operation *)
  ops : int;  (** operations checked: 1 tune, or the re-tune cycles *)
  failed_ops : int;
  op_failures : string list;
}

(* Peak resident set of the process (VmHWM): OCaml 5.1 reports no
   top-of-heap figure of its own. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB"
            (fun kb -> kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

let action_name = function
  | D.Daemon.Steady -> "steady"
  | D.Daemon.Deployed _ -> "deploy"
  | D.Daemon.Rejected _ -> "reject"
  | D.Daemon.Rolled_back _ -> "rollback"

let tune_op (inp : Workload.inputs) opts =
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = T.Tuner.tune inp.catalog inp.statements opts in
  let wall_s = now () -. t0 in
  let minor_words = Gc.minor_words () -. m0 in
  let recost_gap, failures = check_batch inp opts r in
  {
    wall_s;
    latencies = [ wall_s ];
    what_if_calls = r.metrics.what_if_calls;
    cost = r.recommended_cost;
    config = r.recommended;
    minor_words;
    actions = [];
    recost_gap = Some recost_gap;
    peak_mb = peak_rss_mb ();
    ops = 1;
    failed_ops = (if failures = [] then 0 else 1);
    op_failures = failures;
  }

(* The closed loop: one client sends the next statement when the daemon
   has taken the previous one.  [parse] and [ingest] wrap the two calls so
   the traced run can clock them. *)
let replay ?(parse = fun f -> f ()) ?(ingest = fun f -> f ())
    (inp : Workload.inputs) daemon =
  let cycles = ref [] and failures = ref [] in
  List.iteri
    (fun i line ->
      match parse (fun () -> D.Stream.parse_line line) with
      | Error msg ->
        failures :=
          Printf.sprintf "line %d does not parse: %s: %s" (i + 1) msg line
          :: !failures
      | Ok e ->
        let t0 = now () in
        let r = ingest (fun () -> D.Daemon.ingest daemon e) in
        Option.iter
          (fun (r : D.Daemon.retune) ->
            cycles := (r, now () -. t0) :: !cycles)
          r)
    inp.lines;
  (List.rev !cycles, List.rev !failures)

(* Every deploy passed the guardrail (a rejected delta is a failed
   cycle), no statement was malformed, and the final deployment fits the
   budget and is well-formed. *)
let check_stream (inp : Workload.inputs) daemon cycles parse_failures =
  let rejected =
    List.filter_map
      (fun ((r : D.Daemon.retune), _) ->
        match r.action with
        | D.Daemon.Rejected reasons ->
          Some
            (Printf.sprintf "re-tune %d rejected by the guardrail: %s"
               r.ordinal (String.concat "; " reasons))
        | _ -> None)
      cycles
  in
  let malformed =
    match D.Daemon.malformed daemon with
    | 0 -> []
    | n -> [ Printf.sprintf "%d statements counted as malformed" n ]
  in
  let final =
    check_config inp.catalog ~budget:inp.budget ~base:Config.empty
      (D.Daemon.deployed daemon)
  in
  let failed_cycles =
    List.length rejected
    + if malformed @ final @ parse_failures = [] then 0 else 1
  in
  (rejected @ malformed @ final @ parse_failures, failed_cycles)

let stream_op (inp : Workload.inputs) opts =
  let daemon = D.Daemon.create inp.catalog opts in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let cycles, parse_failures = replay inp daemon in
  let wall_s = now () -. t0 in
  let minor_words = Gc.minor_words () -. m0 in
  let op_failures, failed_ops =
    check_stream inp daemon cycles parse_failures
  in
  let deployed = D.Daemon.deployed daemon in
  {
    wall_s;
    latencies = List.map snd cycles;
    what_if_calls =
      List.fold_left
        (fun acc ((r : D.Daemon.retune), _) -> acc + r.what_if_calls)
        0 cycles;
    cost =
      T.Tuner.workload_cost inp.catalog deployed
        (D.Daemon.window_workload daemon);
    config = deployed;
    minor_words;
    actions =
      List.map (fun ((r : D.Daemon.retune), _) -> action_name r.action) cycles;
    recost_gap = None;
    peak_mb = peak_rss_mb ();
    ops = max 1 (List.length cycles);
    failed_ops;
    op_failures;
  }

let run_op (inp : Workload.inputs) =
  match inp.kind with
  | Workload.Batch opts -> tune_op inp opts
  | Workload.Stream opts -> stream_op inp opts

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                 *)
(* ------------------------------------------------------------------ *)

let setup_repeats = 3

(* generate the inputs [setup_repeats] times, keep the last *)
let setup (w : Workload.t) ~seed =
  let times = ref [] and inputs = ref None in
  for _ = 1 to setup_repeats do
    let t0 = now () in
    let inp = w.generate ~seed in
    times := (now () -. t0) :: !times;
    inputs := Some inp
  done;
  (Option.get !inputs, Ledger.median !times)

(* Repeat the operation until the next one would end past [seconds]
   (always at least once).  Every operation after the first gets freshly
   generated inputs, untimed: the optimizer memoizes statistics in the
   catalog, and a warm catalog would make later operations cheaper than a
   user's first tune. *)
let repeat ~seconds ~first ~fresh f =
  let start = now () in
  let rec go inp acc =
    let o = f inp in
    let acc = o :: acc in
    if now () -. start +. o.wall_s > seconds then List.rev acc
    else go (fresh ()) acc
  in
  go first []

(* Repeated operations on identical inputs must agree exactly. *)
let determinism_failures ops =
  match ops with
  | [] -> []
  | first :: rest ->
    List.filter_map
      (fun o ->
        if
          Config.fingerprint o.config = Config.fingerprint first.config
          && o.what_if_calls = first.what_if_calls
          && Float.equal o.cost first.cost
        then None
        else Some "a repeated operation gave a different recommendation")
      rest

let of_units decl values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some value when Float.is_finite value -> { name; value; unit_ }
      | Some _ -> invalid_arg ("metric not finite (JSON has none): " ^ name)
      | None -> invalid_arg ("metric not measured: " ^ name))
    decl

let untraced (w : Workload.t) ~seed ~seconds =
  let inp, setup_s = setup w ~seed in
  let ops =
    repeat ~seconds ~first:inp
      ~fresh:(fun () -> w.generate ~seed)
      run_op
  in
  let med f = Ledger.median (List.map f ops) in
  let latencies = List.concat_map (fun o -> o.latencies) ops in
  let failures =
    List.concat_map (fun o -> o.op_failures) ops @ determinism_failures ops
  in
  let attempted = List.fold_left (fun acc o -> acc + o.ops) 0 ops in
  let failed =
    List.fold_left (fun acc o -> acc + o.failed_ops) 0 ops
    + List.length (determinism_failures ops)
  in
  {
    metrics =
      of_units end_to_end
        [
          ("setup_s", setup_s);
          ("what_if_calls", med (fun o -> float_of_int o.what_if_calls));
          ("recommended_cost", med (fun o -> o.cost));
          ("alloc_gwords", med (fun o -> o.minor_words /. 1e9));
          ("peak_heap_mb", (List.hd ops).peak_mb);
        ];
    samples = [ ("setup_s", setup_repeats) ];
    retune_p50_s = (Ledger.median latencies, List.length latencies);
    attempted;
    failed = min attempted failed;
    failures;
    fingerprint = Config.fingerprint (List.hd ops).config;
    max_recost_gap =
      (match List.filter_map (fun o -> o.recost_gap) ops with
      | [] -> None
      | gaps -> Some (List.fold_left Float.max 0.0 gaps));
    op_walls = List.map (fun o -> o.wall_s) ops;
    cycle_actions = (List.hd ops).actions;
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer ledger                                      *)
(* ------------------------------------------------------------------ *)

let named (snap : Obs.Metrics.snapshot) key =
  float_of_int
    (Option.value ~default:0 (List.assoc_opt key snap.named_counters))

let share num den = if den > 0.0 then num /. den else 0.0

(* The program's spans that name a layer.  Time the traced tune spends
   outside all of them (in tuner.tune, tuner.search and search.iteration
   themselves, and in the benchmark's hook) is unattributed. *)
let layer_spans =
  [
    "tuner.instrument";
    "instrument.optimize";
    "search.rank_candidates";
    "search.evaluate";
    "optimizer.optimize";
    "whatif.optimize";
    "tuner.report";
  ]

(* One tune through [Tuner.tune] under a benchmark-owned recorder and
   what-if interface, with a hook time-stamping every search iteration.
   The program's own spans around Instrument.optimal_configuration
   (tuner.instrument) and Search.run (tuner.search) time those layers.
   Returns the configuration it recommends. *)
let traced_tune ledger (inp : Workload.inputs) (opts : T.Tuner.options) =
  let recorder = Obs.Recorder.create () in
  let whatif = O.Whatif.create inp.catalog in
  let parents = ref [] and seen = Hashtbl.create 64 and stamps = ref [] in
  let hook (r : T.Search.iteration_report) =
    stamps := now () :: !stamps;
    let fp = Config.fingerprint r.it_parent in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.replace seen fp ();
      parents := r.it_parent :: !parents
    end
  in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let result =
    Ledger.with_span ledger "tune" (fun () ->
        T.Tuner.tune ~obs:recorder inp.catalog inp.statements
          { opts with whatif = Some whatif; on_iteration = Some hook })
  in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let snap = result.metrics in
  let span field name =
    match
      List.find_opt
        (fun (s : Obs.Metrics.span_stat) -> s.span_name = name)
        snap.spans
    with
    | Some s -> field s
    | None -> 0.0
  in
  let span_total = span (fun s -> s.total_s) in
  let layer_self =
    List.fold_left
      (fun acc name -> acc +. span (fun s -> s.self_s) name)
      0.0 layer_spans
  in
  (* iterations end at the hook; the first starts when instrumentation
     ends *)
  ignore
    (List.fold_left
       (fun prev t ->
         Ledger.sample ledger "search.iteration" (t -. prev);
         t)
       (t0 +. span_total "tuner.instrument")
       (List.rev !stamps)
      : float);
  let recommended = result.recommended and c_best = result.optimal in
  let calls, hits = O.Whatif.stats whatif in
  let cached_plans = O.Whatif.cached_plans whatif in
  let bounds = O.Whatif.bounds_size whatif in
  (* the optimizer and what-if replays run under a private recorder so
     the program's counters above stay the search's own *)
  let quiet = Obs.Recorder.create () in
  Obs.Recorder.with_ambient quiet (fun () ->
      let selects = (T.Search.prepare inp.statements).selects in
      List.iter
        (fun (qid, _, sq) ->
          Ledger.time ledger "whatif.hit" (fun () ->
              ignore
                (O.Whatif.plan_select whatif c_best ~qid sq : O.Plan.t));
          List.iter
            (fun config ->
              Ledger.time ledger "optimizer.optimize" (fun () ->
                  ignore
                    (O.Optimizer.optimize inp.catalog config sq : O.Plan.t)))
            [ c_best; recommended ])
        selects);
  let rank =
    Obs.Recorder.with_ambient quiet (fun () ->
        Rank_replay.replay ledger inp.catalog ~protected:opts.base_config
          ~workload:inp.statements
          (List.filteri (fun i _ -> i < replay_nodes) (List.rev !parents)))
  in
  let instrument_requests =
    List.fold_left
      (fun acc (s : T.Instrument.request_stats) ->
        acc + s.index_requests + s.view_requests)
      0 result.request_stats
  in
  let passes =
    Obs.Recorder.with_ambient quiet (fun () ->
        (T.Instrument.optimal_configuration inp.catalog ~base:opts.base_config
           ~views:(opts.mode = T.Tuner.Indexes_and_views)
           inp.statements)
          .passes)
  in
  let ms = 1e3 and us = 1e6 in
  let p q key = Ledger.percentile q (Ledger.samples ledger key) in
  let p50 key = Ledger.median (Ledger.samples ledger key) in
  let rank_transforms = float_of_int rank.transforms in
  let layers =
    [
      ("instrument.s", span_total "tuner.instrument");
      ("instrument.passes", float_of_int passes);
      ("instrument.requests", float_of_int instrument_requests);
      ("search.s", span_total "tuner.search");
      ("search.iteration_ms.p50", ms *. p50 "search.iteration");
      ("search.iteration_ms.p99", ms *. p 0.99 "search.iteration");
      ("search.iterations", float_of_int snap.iterations);
      ("search.configs_evaluated", float_of_int snap.configurations_evaluated);
      ("search.shortcut_aborts", float_of_int snap.shortcut_aborts);
      ("search.plans_patched", float_of_int snap.plans_patched);
      ("search.plans_reoptimized", float_of_int snap.plans_reoptimized);
      ("rank.nodes", float_of_int rank.nodes);
      ( "rank.transforms_per_node",
        share rank_transforms (float_of_int rank.nodes) );
      ("rank.enumerate_s", Ledger.total ledger "rank.enumerate");
      ("rank.apply_s", Ledger.total ledger "rank.apply");
      ("rank.size_s", Ledger.total ledger "rank.size");
      ( "rank.bound_s",
        List.fold_left ( +. ) 0.0 (Ledger.samples ledger "rank.bound_call") );
      ("rank.bound_calls", float_of_int rank.bound_calls);
      ("rank.bound_us.p50", us *. p50 "rank.bound_call");
      ( "rank.affected_share",
        share (float_of_int rank.affected_pairs) (float_of_int rank.pairs) );
      ( "rank.bound_key_repeat_share",
        share
          (float_of_int rank.repeated_keys)
          (float_of_int rank.access_keys) );
      ("access_path.requests", named snap "access_path.requests");
      ("optimizer.optimize_ms.p50", ms *. p50 "optimizer.optimize");
      ("optimizer.optimize_ms.p90", ms *. p 0.9 "optimizer.optimize");
      ("optimizer.optimizations", named snap "optimizer.optimizations");
      ("view_match.attempts", named snap "view_match.attempts");
      ( "view_match.match_share",
        share
          (named snap "view_match.matches")
          (named snap "view_match.attempts") );
      ("whatif.calls", float_of_int calls);
      ("whatif.hits", float_of_int hits);
      ( "whatif.hit_share",
        share (float_of_int hits) (float_of_int (calls + hits)) );
      ("whatif.hit_us.p50", us *. p50 "whatif.hit");
      ("whatif.cached_plans", float_of_int cached_plans);
      ("whatif.bounds", float_of_int bounds);
      ("frugal.bound_accepts", named snap "whatif.bound_accepts");
      ("frugal.bound_rejects", named snap "whatif.bound_rejects");
      ("frugal.budget_spent", named snap "whatif.budget_spent");
      ("frugal.bound_costed", named snap "whatif.bound_costed");
      ("pool.tasks", named snap "pool.tasks");
      ("pool.batches", named snap "pool.batches");
      ("gc.minor_gwords", (g1.minor_words -. g0.minor_words) /. 1e9);
      ("gc.major_mwords", (g1.major_words -. g0.major_words) /. 1e6);
      ( "gc.major_collections",
        float_of_int (g1.major_collections - g0.major_collections) );
      ("trace.unattributed_s", wall -. layer_self);
    ]
  in
  (recommended, layers)

(* time the guardrail's oracles on a recommendation; its verdict is one
   more correctness check *)
let guardrail ledger (inp : Workload.inputs) ~workload ~claimed_cost config =
  let quiet = Obs.Recorder.create () in
  let verdict =
    Obs.Recorder.with_ambient quiet (fun () ->
        Ledger.with_span ledger "guardrail" (fun () ->
            C.Guardrail.validate inp.catalog ~workload ~space_budget:inp.budget
              ~claimed_cost config))
  in
  List.map (fun r -> "guardrail: " ^ r) verdict.reasons

(* The stream replayed under spans around every [Stream.parse_line] and
   [Daemon.ingest], re-tune latencies split by what the cycle did. *)
let traced_stream ledger (inp : Workload.inputs) dopts =
  let daemon = D.Daemon.create inp.catalog dopts in
  let by_action = Hashtbl.create 4 in
  let add k v =
    Hashtbl.replace by_action k
      (v :: Option.value ~default:[] (Hashtbl.find_opt by_action k))
  in
  let g0 = Gc.quick_stat () in
  let cycles, _ =
    Ledger.with_span ledger "replay" (fun () ->
        replay
          ~parse:(fun f -> Ledger.time ledger "stream.parse" f)
          ~ingest:(fun f ->
            let t0 = now () in
            let r = Ledger.with_span ledger "daemon.ingest" f in
            add
              (match r with
              | None -> "ingest"
              | Some (r : D.Daemon.retune) -> action_name r.action)
              (now () -. t0);
            r)
          inp daemon)
  in
  let g1 = Gc.quick_stat () in
  let get k = Option.value ~default:[] (Hashtbl.find_opt by_action k) in
  let sum f =
    List.fold_left (fun acc ((r : D.Daemon.retune), _) -> acc + f r) 0 cycles
  in
  let calls = sum (fun r -> r.what_if_calls)
  and hits = sum (fun r -> r.cache_hits) in
  let layers =
    [
      ("daemon.retune_s.deploy.p50", Ledger.median (get "deploy"));
      ("daemon.retune_s.steady.p50", Ledger.median (get "steady"));
      ("daemon.ingest_us.p50", 1e6 *. Ledger.median (get "ingest"));
      ("daemon.deploys", float_of_int (List.length (get "deploy")));
      ("daemon.rollbacks", float_of_int (D.Daemon.rollbacks daemon));
      ( "stream.parse_us.p50",
        1e6 *. Ledger.median (Ledger.samples ledger "stream.parse") );
      (* the daemon's shared what-if store, summed over its cycles *)
      ("whatif.calls", float_of_int calls);
      ("whatif.hits", float_of_int hits);
      ( "whatif.hit_share",
        share (float_of_int hits) (float_of_int (calls + hits)) );
      ("gc.minor_gwords", (g1.minor_words -. g0.minor_words) /. 1e9);
      ("gc.major_mwords", (g1.major_words -. g0.major_words) /. 1e6);
      ( "gc.major_collections",
        float_of_int (g1.major_collections - g0.major_collections) );
    ]
  in
  (daemon, layers)

let no_daemon =
  [
    ("daemon.retune_s.deploy.p50", 0.0);
    ("daemon.retune_s.steady.p50", 0.0);
    ("daemon.ingest_us.p50", 0.0);
    ("daemon.deploys", 0.0);
    ("daemon.rollbacks", 0.0);
    ("stream.parse_us.p50", 0.0);
  ]

let traced (w : Workload.t) ~seed =
  (* the untraced reference the tracing overhead is measured against; the
     traced operation gets inputs of its own, so both start cold *)
  let reference = run_op (w.generate ~seed) in
  let inp = w.generate ~seed in
  let ledger = Ledger.create () in
  let own_layers, traced_wall, recommended, workload =
    match inp.kind with
    | Workload.Batch opts ->
      let recommended, layers = traced_tune ledger inp opts in
      ( no_daemon @ layers,
        Ledger.total ledger "tune",
        recommended,
        inp.statements )
    | Workload.Stream dopts ->
      let daemon, daemon_layers = traced_stream ledger inp dopts in
      let window = D.Daemon.window_workload daemon in
      let deployed = D.Daemon.deployed daemon in
      let wall = Ledger.total ledger "replay" in
      (* the core layers (and trace.unattributed_s): the final window
         re-tuned from scratch, as the first deploy cycle tunes (views,
         the daemon's options), but outside the daemon, which runs its
         tunes under a private recorder *)
      let window_opts =
        {
          (T.Tuner.default_options ~mode:dopts.mode
             ~space_budget:dopts.space_budget ())
          with
          max_iterations = dopts.max_iterations;
          jobs = dopts.jobs;
          whatif_budget = dopts.whatif_budget;
        }
      in
      let _, tune_layers =
        traced_tune ledger { inp with statements = window } window_opts
      in
      (daemon_layers @ tune_layers, wall, deployed, window)
  in
  let consistency =
    if Config.fingerprint recommended = Config.fingerprint reference.config
    then []
    else [ "the traced run recommended a different configuration" ]
  in
  let guard =
    guardrail ledger inp ~workload ~claimed_cost:reference.cost recommended
  in
  let layers =
    own_layers
    @ [
        ("guardrail.validate_s", Ledger.total ledger "guardrail");
        ("trace.reference_s", reference.wall_s);
        ("trace.overhead_s", traced_wall -. reference.wall_s);
      ]
  in
  let checked = consistency @ guard in
  let run =
    {
      metrics = of_units per_layer layers;
      samples = [];
      attempted = reference.ops + 1;
      failed = (reference.failed_ops + if checked = [] then 0 else 1);
      failures = reference.op_failures @ checked;
      fingerprint = Config.fingerprint recommended;
      max_recost_gap = reference.recost_gap;
      op_walls = [ reference.wall_s ];
      cycle_actions = reference.actions;
      retune_p50_s =
        (Ledger.median reference.latencies, List.length reference.latencies);
    }
  in
  (run, ledger)

(* ------------------------------------------------------------------ *)
(* The result line                                                      *)
(* ------------------------------------------------------------------ *)

let result_line (r : run) =
  let open Obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool (r.failed = 0));
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obj [ ("value", Float m.value); ("unit", String m.unit_) ]
                  ))
                r.metrics) );
       ])
