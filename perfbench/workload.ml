(* The benchmark's four workloads and the inputs each one generates from a
   seed.

   Every workload keeps its statement templates fixed and draws the
   predicate constants of its re-parameterised copies from the seed, the
   way a production workload repeats: the seed changes the inputs, not
   the shape of the work.  Seed 1 reproduces the recipes behind the
   committed BENCH_*.json files (re-parameterisation seeds 901 and 7101). *)

module W = Relax_workloads
module T = Relax_tuner
module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog

let default_seed = 1

(* never used while the benchmark was written; later claims are checked
   on it too *)
let held_out_seed = 7

(* A batch tune through [Tuner.tune], or the continuous tuner fed one
   statement at a time through [Daemon.ingest]. *)
type kind =
  | Batch of T.Tuner.options
  | Stream of Relax_daemon.Daemon.options

type inputs = {
  catalog : Catalog.t;
  budget : float;  (** bytes: 1.3x the base tables *)
  statements : Query.workload;
  lines : string list;
      (** the statements as JSONL stream lines ([Stream] workloads only) *)
  kind : kind;
}

type t = {
  name : string;
  generate : seed:int -> inputs;
}

(* [templates] plus [reps - 1] re-parameterised copies of each (qids
   gK-rN), the Substrate.pool recipe *)
let replicate schema rng ~reps base =
  List.concat_map
    (fun rep ->
      List.map
        (fun (e : Query.entry) ->
          { e with qid = Printf.sprintf "%s-r%d" e.qid rep })
        (if rep = 0 then base else W.Generator.reparameterize schema rng base))
    (List.init reps Fun.id)

let budget_of catalog = 1.3 *. Config.total_bytes catalog Config.empty

(* Sizes of the full benchmark and of the reduced copies the tests run. *)
type size = Full | Reduced

let batch_options ~budget ~iterations ~whatif_budget =
  {
    (T.Tuner.default_options ~mode:T.Tuner.Indexes_only ~space_budget:budget
       ())
    with
    max_iterations = iterations;
    jobs = 1;
    whatif_budget;
  }

(* 13 generated TPC-H-like templates (generator seed 900) at scale 0.02,
   8 copies each: the BENCH_frugal recipe, searched for fewer than its 800
   iterations.  The best configuration is found by iteration ~64 at every
   seed tried.  Past iteration ~120 the exact search only adds what-if
   calls, and some seeds add ~15% more than others, so it stops at 120.
   The frugal search keeps 200: its endgame re-ranking spends the budget
   the search left, and at 120 it recommends a costlier configuration
   (31,347.85 instead of 30,117.47 at seed 1). *)
let tpchlike ~size ~whatif_budget =
  let scale, templates, reps, iterations, budget_calls =
    match size with
    | Full -> (0.02, 13, 8, (if whatif_budget then 200 else 120), 384)
    | Reduced -> (0.002, 4, 2, 10, 8)
  in
  fun ~seed ->
    let schema = W.Bench_db.tpch_schema ~scale () in
    let base = W.Generator.workload ~seed:900 schema ~n:templates in
    let rng = Relax_catalog.Rng.create (900 + seed) in
    let statements = replicate schema rng ~reps base in
    let budget = budget_of schema.catalog in
    let whatif_budget = if whatif_budget then Some budget_calls else None in
    {
      catalog = schema.catalog;
      budget;
      statements;
      lines = [];
      kind = Batch (batch_options ~budget ~iterations ~whatif_budget);
    }

(* The SF-1 substrate pool (26 templates x 4, Substrate seed 7100), ranked
   for a handful of iterations: too few to reach the budget, so the
   recommendation is the base configuration by design. *)
let substrate ~size ~seed =
  let sf, templates, iterations =
    match size with Full -> (1.0, 26, 2) | Reduced -> (0.01, 4, 1)
  in
  let schema = W.Substrate.schema ~sf ~seed:W.Substrate.default_seed () in
  let profile = { W.Generator.default_profile with update_fraction = 0.0 } in
  let base =
    W.Generator.workload ~seed:W.Substrate.default_seed ~profile schema
      ~n:templates
  in
  let rng = Relax_catalog.Rng.create (W.Substrate.default_seed + seed) in
  let statements = replicate schema rng ~reps:4 base in
  let budget = budget_of schema.catalog in
  {
    catalog = schema.catalog;
    budget;
    statements;
    lines = [];
    kind = Batch (batch_options ~budget ~iterations ~whatif_budget:None);
  }

(* relaxd's default shape (views, rotation every 4 re-tunes, warm shared
   what-if store, 200 iterations per re-tune) fed 13 templates x 12 copies
   with 25% updates, re-tuning every 26 statements: 6 cycles, the last two
   after the first window rotation *)
let stream ~size ~seed =
  let scale, templates, reps, retune_every, iterations =
    match size with
    | Full -> (0.02, 13, 12, 26, 200)
    | Reduced -> (0.002, 4, 4, 8, 10)
  in
  let schema = W.Bench_db.tpch_schema ~scale () in
  let profile = { W.Generator.default_profile with update_fraction = 0.25 } in
  let base = W.Generator.workload ~seed:900 ~profile schema ~n:templates in
  let rng = Relax_catalog.Rng.create (900 + seed) in
  let statements = replicate schema rng ~reps base in
  let budget = budget_of schema.catalog in
  let opts =
    {
      (Relax_daemon.Daemon.default_options ~space_budget:budget ()) with
      retune_every;
      max_iterations = iterations;
      jobs = 1;
    }
  in
  {
    catalog = schema.catalog;
    budget;
    statements;
    lines = List.map Relax_daemon.Stream.line_of_entry statements;
    kind = Stream opts;
  }

let all ?(size = Full) () =
  [
    { name = "tpchlike_exact"; generate = tpchlike ~size ~whatif_budget:false };
    { name = "tpchlike_frugal"; generate = tpchlike ~size ~whatif_budget:true };
    { name = "substrate_rank"; generate = substrate ~size };
    { name = "relaxd_stream"; generate = stream ~size };
  ]

let find ?size name = List.find_opt (fun w -> w.name = name) (all ?size ())
