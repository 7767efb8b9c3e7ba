(** The relaxation-based search (§3.2–§3.6, Figure 5).

    The search starts from the optimal configuration of §2 and repeatedly
    relaxes configurations from a pool.  The template's two open choices are
    instantiated with the paper's heuristics:

    - {e which transformation} (line 6): the one minimizing
      [penalty = ΔT / min(Space(C) − B, ΔS)], where ΔT is the §3.3.2 cost
      upper bound and ΔS the §3.3.1 size estimate; with updates in the
      workload, dominated transformations are first removed (skyline), and
      once a configuration already fits the budget the penalty degenerates
      to ΔT (§3.6).
    - {e which configuration} (line 5): keep relaxing the last one until it
      fits (with updates: or while relaxation keeps reducing its cost); then
      revisit the chain at the largest actual penalty; finally fall back to
      the cheapest configuration with untried transformations (§3.4).

    Only queries whose plans used a replaced structure are re-optimized when
    a configuration is evaluated; with shortcut evaluation, a partial sum
    already exceeding the best known cost aborts the evaluation (§3.5). *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module View = Relax_physical.View
module O = Relax_optimizer
module Obs = Relax_obs
module Pool = Relax_parallel.Pool

(** A fixed-size bitset over workload slots — the flat replacement for the
    [unit String_map.t] pseudo-marker sets.  One byte per eight selects
    instead of a balanced tree of boxed strings: copying a node's marker
    set is a [Bytes.copy], membership is two shifts and a load. *)
module Bitset = struct
  type t = Bytes.t

  let create n = Bytes.make ((n + 7) lsr 3) '\000'
  let mem t i = Char.code (Bytes.get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

  let add t i =
    Bytes.set t (i lsr 3)
      (Char.chr (Char.code (Bytes.get t (i lsr 3)) lor (1 lsl (i land 7))))

  let is_empty t =
    let n = Bytes.length t in
    let rec go i = i >= n || (Char.code (Bytes.get t i) = 0 && go (i + 1)) in
    go 0
end

let src = Logs.Src.create "relax.search" ~doc:"relaxation search"

module Log = (val Logs.src_log src : Logs.LOG)

(** How line 6 of Figure 5 picks among ranked candidates.  [Penalty] is the
    paper's heuristic (§3.4); the others exist for the ablation study. *)
type selection =
  | Penalty  (** minimize ΔT / min(Space − B, ΔS) *)
  | Cost_greedy  (** minimize ΔT only (ignores space pressure) *)
  | Space_greedy  (** maximize ΔS only (ignores cost) *)
  | Random of int  (** uniformly random applicable transformation (seeded) *)

(** Everything a differential checker needs to replay one iteration of the
    search against independent oracles (see [Relax_check]).  [it_applied]
    is the configuration right after applying [it_transform] to the parent
    — before the §3.5 multi-transformation extension and shrinking — so a
    checker can re-derive it and compare; [it_result] is the evaluated
    node's (configuration, cost, size) when the outcome is ["evaluated"]. *)
type iteration_report = {
  it_iteration : int;
  it_parent : Config.t;
  it_parent_cost : float;
  it_parent_size : float;
  it_transform : Transform.t;
  it_applied : Config.t option;
  it_predicted_delta_cost : float;  (** ΔT: the §3.3.2 upper bound *)
  it_predicted_delta_space : float;  (** ΔS: the §3.3.1 estimate *)
  it_penalty : float;
  it_outcome : string;
      (** [evaluated], [shortcut], [duplicate] or [inapplicable] *)
  it_result : (Config.t * float * float) option;
      (** (configuration, cost, size) of the evaluated node *)
}

(** Which structures the §2 instrumentation may propose. *)
type mode = Indexes_only | Indexes_and_views

type options = {
  mode : mode;
      (** read by {!Tuner.tune}'s instrumentation; the search relaxes
          whatever the initial configuration holds *)
  space_budget : float;  (** B, in bytes; [infinity] = unconstrained (§4.1) *)
  base_config : Config.t;
      (** constraint-enforcing structures present in every configuration:
          never transformed *)
  max_iterations : int;
  time_budget_s : float option;
  transforms_per_iteration : int;
      (** §3.5 variant: apply up to this many non-conflicting
          transformations before re-evaluating (1 = the paper's default) *)
  shrink_configurations : bool;
      (** §3.5 variant: drop structures unused by any query after each
          evaluation (may hurt quality: an unused structure can become
          useful after other structures are relaxed away) *)
  selection : selection;
  jobs : int;
      (** worker domains for parallel candidate scoring and plan
          re-optimization; 1 = fully sequential.  The result is identical
          whatever the value. *)
  whatif_budget : int option;
      (** [Some n]: frugal costing — candidate decisions come from ΔT bound
          intervals, at most [n] what-if optimizer calls are spent (across
          the whole run) refining straddling candidates, and node
          evaluation substitutes bound-costed plans for uncached
          re-optimizations.  [None] (the default): the frugal tier is
          entirely off and the search behaves exactly as before. *)
  initial_config : Config.t option;
      (** warm start: a previously deployed configuration to seed into the
          pool as a second parentless node: it is evaluated up front
          (cache-warm when [whatif] is reused across re-tunes), becomes the
          incumbent best if it fits the budget, and so arms shortcut
          pruning and the frugal contender gate from iteration zero.  The
          continuous tuner's incremental re-tune entry. *)
  whatif : O.Whatif.t option;
      (** an existing what-if interface to run against instead of a fresh
          one, sharing its plan cache and advisory bounds across runs *)
  on_iteration : (iteration_report -> unit) option;
      (** invoked once per iteration, after evaluation and trace emission,
          from the main domain (never from workers).  Used by the
          differential invariant checker. *)
}

let default_options ?(mode = Indexes_and_views) ~space_budget () =
  {
    mode;
    space_budget;
    base_config = Config.empty;
    max_iterations = 400;
    time_budget_s = None;
    transforms_per_iteration = 1;
    shrink_configurations = false;
    selection = Penalty;
    jobs = Pool.default_jobs ();
    whatif_budget = None;
    initial_config = None;
    whatif = None;
    on_iteration = None;
  }

(** A ranked candidate transformation of one configuration. *)
type candidate = {
  tr : Transform.t;
  penalty : float;
  delta_cost : float;  (** ΔT: upper-bound cost increase *)
  delta_cost_lo : float;
      (** ΔT lower bound; equals [delta_cost] outside frugal mode and for
          candidates the frugal sweep refined to an exact value *)
  delta_space : float;  (** ΔS: space saved *)
}

(** A configuration in the pool, with its evaluated plans and costs.
    Plans live in a slot-indexed array (one slot per workload select, see
    {!prepared}), not a string map: the evaluation and ranking loops walk
    every plan of every node each iteration, and the flat representation
    turns those walks into cache-friendly array scans with no per-step
    boxing — the point of the arena refactor. *)
type node = {
  id : int;
  config : Config.t;
  plans : O.Plan.t array;  (** per select-query plans, slot-indexed *)
  slots : (string, int) Hashtbl.t;
      (** shared qid → slot table (never mutated after [prepare]) *)
  select_cost : float;
  shell_cost : float;
  cost : float;
  size : float;
  parent : int option;
  actual_penalty : float;
      (** realized (cost increase)/(space saved) when created *)
  pseudo : Bitset.t;
      (** frugal runs only: the select slots whose plan carries a
          bound-substituted (not re-optimized) cost; empty on exact runs *)
  mutable untried : candidate list;  (** sorted by increasing penalty *)
  mutable candidates_ready : bool;
}

type prepared = {
  selects : (string * float * Query.select_query) list;
      (** includes select components of updates *)
  selects_arr : (string * float * Query.select_query) array;
      (** [selects] as an array; the slot index of every per-node plan *)
  slots : (string, int) Hashtbl.t;  (** qid → slot *)
  dmls : (float * Query.dml) list;
}

let prepare (w : Query.workload) : prepared =
  let selects =
    List.filter_map
      (fun (e : Query.entry) ->
        match e.stmt with
        | Select q -> Some (e.qid, e.weight, q)
        | Dml d -> (
          match Query.split_update d with
          | Some q, _ -> Some (Query.select_qid e.qid, e.weight, q)
          | None, _ -> None))
      w
  in
  let dmls =
    List.filter_map
      (fun (e : Query.entry) ->
        match e.stmt with Dml d -> Some (e.weight, d) | Select _ -> None)
      w
  in
  let selects_arr = Array.of_list selects in
  let slots = Hashtbl.create (Array.length selects_arr) in
  Array.iteri (fun i (qid, _, _) -> Hashtbl.replace slots qid i) selects_arr;
  { selects; selects_arr; slots; dmls }

let plan_of (n : node) ~qid =
  match Hashtbl.find_opt n.slots qid with
  | Some s -> Some n.plans.(s)
  | None -> None

let is_pseudo (n : node) ~qid =
  match Hashtbl.find_opt n.slots qid with
  | Some s -> Bitset.mem n.pseudo s
  | None -> false

type state = {
  catalog : Relax_catalog.Catalog.t;
  whatif : O.Whatif.t;
  prepared : prepared;
  opts : options;
  pool : Pool.t;  (** worker domains for scoring and re-optimization *)
  mutable nodes : node list;  (** the pool CP, newest first *)
  by_id : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable best : node option;  (** best configuration fitting the budget *)
  mutable iterations : int;
  mutable candidates_trace : int list;  (** per-iteration candidate counts *)
  seen : (string, unit) Hashtbl.t;  (** configuration fingerprints *)
  cbv_lock : Mutex.t;  (** guards [cbv_cache] (held across the optimize) *)
  cbv_cache : (string, float) Hashtbl.t;
  heaps : (string * float) list;
      (** heap bytes of every base table, in catalog order *)
  bound_memo : Bound_memo.t;  (** §3.3.2 access re-costing memo *)
  charges : O.Update_cost.Charges.t;  (** §3.6 update-shell charges *)
  frugal : Frugal.t option;
      (** the what-if call ledger; [Some] iff [opts.whatif_budget] is *)
  rand : Random.State.t;  (** only consulted by the [Random] selection *)
  started : float;
}

(* structures referenced by any plan: what "shrinking" keeps *)
let used_structure_names (plans : O.Plan.t array) =
  let used = Hashtbl.create 32 in
  Array.iter
    (fun plan ->
      O.Plan.iter_accesses
        (fun (a : O.Plan.access_info) ->
          Hashtbl.replace used a.rel ();
          (match a.via_view with
          | Some v -> Hashtbl.replace used (View.name v) ()
          | None -> ());
          List.iter
            (fun (u : O.Plan.index_usage) ->
              Hashtbl.replace used (Index.name u.index) ())
            a.usages)
        plan)
    plans;
  used

(* Heap bytes of every base table, computed once per run: the search's
   catalog value never gains tables ([Catalog.add_derived_table] returns a
   new catalog). *)
let base_heaps catalog =
  let module Cat = Relax_catalog.Catalog in
  let module SM = Relax_physical.Size_model in
  List.map
    (fun name ->
      ( name,
        SM.heap_pages ~rows:(Cat.rows catalog name)
          ~row_width:(Cat.row_width catalog name) ()
        *. SM.default_params.page_size ))
    (Cat.table_names catalog)

(* Heap bytes of the base tables [config] stores unclustered. *)
let heap_bytes st config =
  List.fold_left
    (fun acc (name, h) ->
      if Config.clustered_on config name <> None then acc else acc +. h)
    0.0 st.heaps

let config_size st config =
  List.fold_left
    (fun acc i -> acc +. Config.index_bytes st.catalog config i)
    (heap_bytes st config) (Config.indexes config)

(* Σ w · shell cost over the workload's DMLs, off the charge table.  Fills
   the table, so only the main domain calls it. *)
let shell_cost_of st config =
  O.Update_cost.Charges.fill st.charges config;
  O.Update_cost.Charges.total st.charges config

(* CBV: cost of computing a view from scratch under the base configuration.
   The lock is held across the optimize so concurrent callers never
   duplicate it (and never double-count its probes); misses are rare. *)
let cbv st (v : View.t) =
  let name = View.name v in
  Mutex.protect st.cbv_lock @@ fun () ->
  match Hashtbl.find_opt st.cbv_cache name with
  | Some c -> c
  | None ->
    let sq = { Query.body = View.definition v; order_by = [] } in
    let plan = O.Optimizer.optimize st.catalog st.opts.base_config sq in
    Hashtbl.replace st.cbv_cache name plan.cost;
    plan.cost

let estimate_view_rows st (v : View.t) =
  let env = O.Env.make st.catalog st.opts.base_config in
  O.Cardinality.spjg env (View.definition v)

(* ------------------------------------------------------------------ *)
(* node evaluation                                                     *)
(* ------------------------------------------------------------------ *)

(* What C → C′ removed: the indexes and views of [old_config] that
   [new_config] lacks.  Read off the configuration pair, so it covers every
   transformation a §3.5 step piled on, and the only such answer in the
   search. *)
let removed_structures ~old_config ~new_config =
  ( Index.Set.elements
      (Index.Set.diff (Config.index_set old_config)
         (Config.index_set new_config)),
    List.filter
      (fun v -> not (Config.mem_view new_config v))
      (Config.views old_config) )

(* The §3.3.2 context of a relaxation that removed [removed] by applying
   [trs]. *)
let bound_context st ~old_env ~new_config (removed_indexes, removed_views)
    (trs : Transform.t list) : Cost_bound.context =
  {
    env' = O.Env.make st.catalog new_config;
    old_env;
    removed_indexes;
    removed_views;
    view_merge =
      List.find_map
        (function
          | Transform.Merge_views (a, b) ->
            Option.map (fun m -> (m, a, b)) (View.merge a b)
          | _ -> None)
        trs;
    cbv = cbv st;
    expands = List.exists Transform.adds_structures trs;
  }

(* Fixed width of one parallel (re-)optimization batch.  Deliberately
   independent of [opts.jobs]: the §3.5 abort can only land on a batch
   boundary's sequential fold, so the set of what-if calls made — and with
   it every counter, cache state and trace event — is identical whatever
   the parallelism (the determinism guarantee).  It also bounds the work
   wasted past an abort to one batch. *)
let eval_batch = 16

(* cap on the ranked transformations kept per configuration *)
let max_candidates_per_node = 256

(** Evaluate a fresh configuration obtained by relaxing [parent] with the
    transformations [trs]: re-optimize only the plans the relaxation
    affected; abort as soon as the running total exceeds three times the
    best known cost (§3.5).  Plans are (re-)optimized in fixed-width
    batches on the worker domains, then folded sequentially in workload
    order, so the float accumulation and the abort point do not depend on
    [opts.jobs]. *)
let evaluate st ~(parent : node) ~(trs : Transform.t list) (config : Config.t)
    : node option =
  (* the context's [Env.make] runs before any parallel work: it may
     register derived-view statistics in the shared catalog *)
  let ctx =
    bound_context st
      ~old_env:(O.Env.make st.catalog parent.config)
      ~new_config:config
      (removed_structures ~old_config:parent.config ~new_config:config)
      trs
  in
  let best_cost =
    match st.best with Some b -> b.cost | None -> infinity
  in
  let shell = shell_cost_of st config in
  (* Upfront classification of every slot — sequential, on the main
     domain, so the spend schedule is identical at any [jobs].  Exact runs
     re-optimize the plans the relaxation affected and patch the rest
     along (the §3 re-optimization-avoidance rule).  Frugal runs price the
     uncertain queries in the same pass:

     - unaffected, non-pseudo: the plan survives (free, exact);
     - warm cache: the exact plan is already known (free, exact);
     - tier 0: a pure removal whose patched plan costs no more than the
       surviving plan — the old cost is a sound lower bound (removal
       shrinks the plan space) and the patched plan achieves it, so the
       patched plan is optimal (free, exact);
     - the rest carry a genuine ΔT interval [lo, hi] with [hi] the
       §3.3.2 patched-plan cost; their bound plan stands in unless the
       budget pays for a re-optimization.  The budget goes to the widest
       weighted intervals first — in practice the index-merge
       evaluations, whose upper bounds drift an order of magnitude while
       removal bounds track re-optimization within a percent — and only
       above a noise floor relative to the parent's cost: paying to
       collapse a narrow interval cannot move any later decision.

     The node gate: only a node that could become the incumbent best —
     it fits the space budget and the summed interval floor is below the
     best known cost — may spend at all.  Every other node is costed
     entirely from bounds: its cost only feeds the pool trajectory,
     where a sound upper bound is good enough.  (With
     [shrink_configurations] the gate sees the pre-shrink size, so a
     node only the shrink makes fit may be bound-costed — a conservative
     miss, never a wrong best.) *)
  let nsel = Array.length st.prepared.selects_arr in
  let decisions = Array.make nsel `Patch in
  (match st.frugal with
  | None ->
    Array.iteri
      (fun slot old_plan ->
        if Cost_bound.plan_affected ctx old_plan then
          decisions.(slot) <- `Reoptimize)
      parent.plans
  | Some ledger ->
    let lo_total = ref shell and hi_total = ref shell in
    let widths = ref [] in
    Array.iteri
      (fun slot (qid, w, q) ->
        let old_plan = parent.plans.(slot) in
        let parent_pseudo = Bitset.mem parent.pseudo slot in
        let affected = Cost_bound.plan_affected ctx old_plan in
        let advisory_lo () =
          fst
            (O.Whatif.cost_interval st.whatif config ~qid
               ~tables:q.Query.body.tables)
        in
        (* a pseudo plan is valid but suboptimal, so it is never silently
           patched along: every evaluation gives it a chance to improve —
           a warm cache entry, a budgeted re-optimization, or at least a
           re-patch against the current configuration *)
        if (not parent_pseudo) && not affected then begin
          lo_total := !lo_total +. (w *. old_plan.O.Plan.cost);
          hi_total := !hi_total +. (w *. old_plan.O.Plan.cost)
        end
        else begin
          let lo =
            if parent_pseudo then advisory_lo ()
            else
              Float.max (advisory_lo ())
                (Cost_bound.query_lower_bound ctx old_plan)
          in
          lo_total := !lo_total +. (w *. lo);
          match
            O.Whatif.find_cached st.whatif config ~qid
              ~tables:q.Query.body.tables
          with
          | Some p ->
            hi_total := !hi_total +. (w *. p.O.Plan.cost);
            decisions.(slot) <- `Cached p
          | None -> (
            let patched =
              Cost_bound.patched_plan ~order_by:q.Query.order_by ctx old_plan
            in
            match patched with
            | Some p
              when (not parent_pseudo)
                   && (not ctx.Cost_bound.expands)
                   && Cost_bound.float_leq p.O.Plan.cost old_plan.O.Plan.cost
              ->
              hi_total := !hi_total +. (w *. p.O.Plan.cost);
              decisions.(slot) <- `Point p
            | _ ->
              (* The bound plan: the cheaper of the §3.3.2 patched plan (a
                 valid plan under [config] whose cost is the model's upper
                 bound) and the query's base-configuration plan (valid
                 under any configuration, pre-costed by the anchoring pass;
                 the only fallback for an unpatchable removed or merged
                 view).  Either way the stored plan is real, so
                 affected-tests and bounds computed from it at later
                 relaxations stay sound; it is merely suboptimal, which the
                 [pseudo] marker records. *)
              let bound_plan =
                match
                  ( patched,
                    O.Whatif.find_cached st.whatif st.opts.base_config ~qid
                      ~tables:q.Query.body.tables )
                with
                | Some p, Some (b : O.Plan.t) ->
                  if b.cost < p.O.Plan.cost then b else p
                | Some p, None -> p
                | None, Some b -> b
                | None, None ->
                  (* unreachable in practice: the anchoring pass
                     pre-optimized every select.  Degrade to the surviving
                     plan — sound only as long as nothing relies on its
                     accesses, hence last resort. *)
                  old_plan
              in
              let hi =
                match patched with
                | Some p -> p.O.Plan.cost
                | None -> bound_plan.O.Plan.cost
              in
              hi_total := !hi_total +. (w *. hi);
              decisions.(slot) <- `Bound bound_plan;
              widths := (slot, w *. (hi -. lo)) :: !widths)
        end)
      st.prepared.selects_arr;
    (* contender test: worst-case total within [contender_slack] of the
       incumbent best.  A node whose upper bound is far above the best
       cannot be mis-ranked into the recommendation by its bound cost —
       exactness there buys nothing. *)
    let spend_ok =
      config_size st config <= st.opts.space_budget
      && Cost_bound.float_lt !lo_total best_cost
      && !hi_total < best_cost *. Frugal.contender_slack
    in
    if spend_ok then begin
      (* widest weighted interval first; ties resolve to workload order
         (the [widths] list is built in reverse workload order) *)
      let ranked =
        List.stable_sort
          (fun (_, a) (_, b) -> Float.compare b a)
          (List.rev !widths)
      in
      let floor = Frugal.width_floor *. parent.cost in
      let k = ref (Frugal.remaining ledger) in
      List.iter
        (fun (slot, width) ->
          if !k > 0 && Cost_bound.float_lt floor width then begin
            decr k;
            decisions.(slot) <- `Reoptimize
          end)
        ranked
    end);
  let exception Shortcut in
  try
    let total = ref shell in
    let plans = Array.copy parent.plans in
    let pseudo = Bitset.create nsel in
    let base = ref 0 in
    while !base < nsel do
      let len = Int.min eval_batch (nsel - !base) in
      (* The ledger is debited per batch, on the main domain, for exactly
         the optimizer calls the batch executes, so a shortcut abort
         returns the calls later batches never made to the pool (dynamic
         reallocation). *)
      Option.iter
        (fun ledger ->
          for slot = !base to !base + len - 1 do
            match decisions.(slot) with
            | `Reoptimize -> Frugal.debit ledger 1
            | _ -> ()
          done)
        st.frugal;
      let scored =
        Pool.map_array st.pool
          (fun slot ->
            match decisions.(slot) with
            | `Reoptimize ->
              let qid, _, q = st.prepared.selects_arr.(slot) in
              O.Whatif.plan_select st.whatif config ~qid q
            | `Patch -> parent.plans.(slot)
            | `Cached p | `Point p | `Bound p -> p)
          (Array.init len (fun k -> !base + k))
      in
      Array.iteri
        (fun k (plan : O.Plan.t) ->
          let slot = !base + k in
          (match decisions.(slot) with
          | `Reoptimize | `Cached _ -> Obs.Probe.plan_reoptimized ()
          | `Patch ->
            Obs.Probe.plan_patched ();
            (* a surviving plan inherits its pseudo status *)
            if Bitset.mem parent.pseudo slot then Bitset.add pseudo slot
          | `Point _ ->
            (* an exact cost obtained without a call: the patched plan
               provably achieves the removal's lower bound *)
            Obs.Probe.plan_patched ();
            Obs.Probe.count "whatif.point_exact"
          | `Bound _ ->
            Obs.Probe.plan_patched ();
            Obs.Probe.count "whatif.bound_costed";
            Bitset.add pseudo slot);
          let _, w, _ = st.prepared.selects_arr.(slot) in
          total := !total +. (w *. plan.cost);
          (* §3.5 shortcut evaluation *)
          if !total > best_cost *. 3.0 then raise Shortcut;
          plans.(slot) <- plan)
        scored;
      base := !base + len
    done;
    let select_cost = !total -. shell in
    (* §3.5 shrinking variant: drop structures no surviving plan uses *)
    let config =
      if not st.opts.shrink_configurations then config
      else begin
        let used = used_structure_names plans in
        let keep_index i =
          Config.mem_index st.opts.base_config i
          || Hashtbl.mem used (Index.name i)
          ||
          (* a clustered index is the storage of a used view *)
          (i.clustered && Hashtbl.mem used (Index.owner i))
        in
        let config =
          List.fold_left
            (fun cfg i -> if keep_index i then cfg else Config.remove_index cfg i)
            config (Config.indexes config)
        in
        List.fold_left
          (fun cfg v ->
            if
              Config.mem_view st.opts.base_config v
              || Hashtbl.mem used (View.name v)
            then cfg
            else Config.remove_view cfg v)
          config (Config.views config)
      end
    in
    let size = config_size st config in
    let actual_penalty =
      let d_s = parent.size -. size in
      let d_t = !total -. parent.cost in
      if d_s > 0.0 then d_t /. d_s else d_t
    in
    let node =
      {
        id = st.next_id;
        config;
        plans;
        slots = st.prepared.slots;
        select_cost;
        shell_cost = shell;
        cost = !total;
        size;
        parent = Some parent.id;
        actual_penalty;
        pseudo;
        untried = [];
        candidates_ready = false;
      }
    in
    st.next_id <- st.next_id + 1;
    Some node
  with Shortcut ->
    Obs.Probe.shortcut_abort ();
    None

(* ------------------------------------------------------------------ *)
(* candidate ranking (§3.4, §3.6)                                      *)
(* ------------------------------------------------------------------ *)

(* §3.6 skyline: drop transformations dominated by another with cost
   increase ≤ and space saving ≥ (strict in at least one).  One sweep over
   the candidates sorted by decreasing ΔS: [best] is the least ΔT among
   candidates with strictly larger ΔS (any of them dominates a candidate
   costing at least as much), [gmin] the least ΔT within the equal-ΔS
   group (it dominates only strictly costlier group members).  O(n log n)
   against the former pairwise scan, with the same survivors; the output
   keeps the input order. *)
let skyline_filter (raw : candidate list) : candidate list =
  match raw with
  | [] | [ _ ] -> raw
  | _ ->
    let arr = Array.of_list raw in
    let m = Array.length arr in
    let order = Array.init m Fun.id in
    Array.sort
      (fun i j -> Float.compare arr.(j).delta_space arr.(i).delta_space)
      order;
    let keep = Array.make m true in
    let best = ref infinity in
    let i = ref 0 in
    while !i < m do
      (* the group [!i, !j) of candidates with this ΔS *)
      let ds = arr.(order.(!i)).delta_space in
      let j = ref !i in
      let gmin = ref infinity in
      while !j < m && Cost_bound.float_eq arr.(order.(!j)).delta_space ds do
        gmin := Float.min !gmin arr.(order.(!j)).delta_cost;
        incr j
      done;
      for k = !i to !j - 1 do
        let dc = arr.(order.(k)).delta_cost in
        if dc >= !best || dc > !gmin then keep.(order.(k)) <- false
      done;
      best := Float.min !best !gmin;
      i := !j
    done;
    List.filteri (fun idx _ -> keep.(idx)) raw

let rank_candidates st (n : node) : candidate list =
  let transforms =
    Transform.enumerate ~protected:st.opts.base_config n.config
  in
  List.iter
    (fun tr -> Obs.Probe.transform_generated ~kind:(Transform.kind tr))
    transforms;
  let old_env = O.Env.make st.catalog n.config in
  (* index which queries (by slot) use which structures, so each
     transformation only touches the plans it actually affects *)
  let usage : (string, (int * float) list) Hashtbl.t = Hashtbl.create 64 in
  let add_usage name slot w =
    (* slots are visited in increasing order: a repeat can only be the
       head of the name's list *)
    match Hashtbl.find_opt usage name with
    | Some ((s, _) :: _) when s = slot -> ()
    | l -> Hashtbl.replace usage name ((slot, w) :: Option.value ~default:[] l)
  in
  Array.iteri
    (fun slot (_, w, _) ->
      O.Plan.iter_accesses
        (fun (a : O.Plan.access_info) ->
          List.iter
            (fun (u : O.Plan.index_usage) ->
              add_usage (Index.name u.index) slot w)
            a.usages;
          if Config.find_view n.config a.rel <> None then add_usage a.rel slot w)
        n.plans.(slot))
    st.prepared.selects_arr;
  let affected_queries (removed_indexes, removed_views) =
    let names =
      List.map Index.name removed_indexes @ List.map View.name removed_views
    in
    (* slots sort in workload order, a total order: dedup is exact *)
    List.sort_uniq compare
      (List.concat_map
         (fun name -> Option.value ~default:[] (Hashtbl.find_opt usage name))
         names)
  in
  (* Phase 1, sequential: apply each transformation, build its costing
     context and price its new structures' update-shell charges.
     [Env.make] may register derived-view statistics in the shared
     catalog, and the charge table is written here, so the workers below
     only read both. *)
  let applied =
    List.filter_map
      (fun tr ->
        match
          Transform.apply ~estimate_rows:(estimate_view_rows st) n.config tr
        with
        | None -> None
        | Some config' ->
          let removed =
            removed_structures ~old_config:n.config ~new_config:config'
          in
          let affected = affected_queries removed in
          let ctx =
            if affected = [] then None
            else
              Some
                (bound_context st ~old_env ~new_config:config' removed [ tr ])
          in
          O.Update_cost.Charges.fill ~since:n.config st.charges config';
          Some (tr, config', fst removed, affected, ctx))
      transforms
  in
  let order_by_of slot =
    let _, _, (sq : Query.select_query) = st.prepared.selects_arr.(slot) in
    sq.order_by
  in
  let frugal_on = st.frugal <> None in
  let upper ctx slot plan =
    Cost_bound.query_bound ~order_by:(order_by_of slot)
      ~best_cost:(Bound_memo.best_cost st.bound_memo) ctx plan
  in
  (* The ΔT fold: add [w * (cost' - cost)] over the affected queries, for
     the ([lo], [hi]) pair of costs under C' that [costs slot plan] gives.
     [affected] comes from the usage index, so every slot in it uses a
     removed structure. *)
  let delta_fold affected ~init costs =
    List.fold_left
      (fun (lo, hi) (slot, w) ->
        let plan = n.plans.(slot) in
        let lo', hi' = costs slot plan in
        ( lo +. (w *. (lo' -. plan.O.Plan.cost)),
          hi +. (w *. (hi' -. plan.O.Plan.cost)) ))
      init affected
  in
  (* Phase 2, parallel: score each applied transformation — incremental
     size (only the structures that changed are re-measured; heaps are
     cheap cached lookups), §3.3.2 cost upper bound (and, in frugal mode,
     the matching lower bound), update-shell delta.  Everything here reads
     shared state through locks ([cbv_cache]) or reads only what phase 1
     filled (the catalog memos, the charge table). *)
  let score (tr, config', removed, affected, ctx) =
    let added =
      Index.Set.diff (Config.index_set config') (Config.index_set n.config)
    in
    let size' =
      n.size -. heap_bytes st n.config +. heap_bytes st config'
      -. List.fold_left
           (fun a i -> a +. Config.index_bytes st.catalog n.config i)
           0.0 removed
      +. Index.Set.fold
           (fun i a -> a +. Config.index_bytes st.catalog config' i)
           added 0.0
    in
    let delta_space = n.size -. size' in
    let delta_selects_lo, delta_selects =
      match ctx with
      | None -> (0.0, 0.0)
      | Some ctx ->
        delta_fold affected ~init:(0.0, 0.0) (fun slot plan ->
            let hi = upper ctx slot plan in
            let lo =
              if frugal_on then Cost_bound.query_lower_bound ctx plan else hi
            in
            (lo, hi))
    in
    let delta_shell =
      O.Update_cost.Charges.total st.charges config' -. n.shell_cost
    in
    let delta_cost = delta_selects +. delta_shell in
    let delta_cost_lo =
      if frugal_on then delta_selects_lo +. delta_shell else delta_cost
    in
    if delta_space <= 0.0 && delta_cost >= 0.0 then None
    else
      Some
        ( { tr; penalty = 0.0; delta_cost; delta_cost_lo; delta_space },
          (config', affected, ctx, delta_shell) )
  in
  let raw = List.filter_map Fun.id (Pool.map st.pool score applied) in
  (* skyline filtering for update workloads: drop dominated transformations
     (§3.6: a transformation with lower cost increase AND larger space
     saving dominates) *)
  let raw =
    if st.prepared.dmls = [] then raw
    else begin
      let kept = skyline_filter (List.map fst raw) in
      List.filter (fun (c, _) -> List.memq c kept) raw
    end
  in
  let over_budget = n.size -. st.opts.space_budget in
  let penalty_of ~delta_space dt =
    if over_budget <= 0.0 then
      (* already fits: only meaningful with updates, ranked by ΔT *)
      dt
    else begin
      let denom = Float.min over_budget delta_space in
      if denom > 0.0 then dt /. denom
      else
        (* non-shrinking while over budget: rank below every shrinking
           candidate, whatever its ΔT *)
        1e12 +. dt
    end
  in
  let with_penalty =
    List.map
      (fun (c, aux) ->
        ({ c with penalty = penalty_of ~delta_space:c.delta_space c.delta_cost },
         aux))
      raw
  in
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a.penalty b.penalty)
      with_penalty
  in
  let capped =
    List.filteri (fun i _ -> i < max_candidates_per_node) sorted
  in
  match st.frugal with
  | None -> List.map fst capped
  | Some ledger ->
    (* The frugal tier.  Decide the ranking from ΔT intervals
       [delta_cost_lo, delta_cost]; spend budgeted what-if calls only on
       candidates straddling the decision threshold, widest penalty gap
       first (see {!Frugal.sweep}).  Runs sequentially on the main domain,
       so the call sequence — and with it every counter and cache state —
       is identical whatever [opts.jobs]. *)
    let tables_of slot =
      let _, _, (sq : Query.select_query) = st.prepared.selects_arr.(slot) in
      sq.body.tables
    in
    let fcands =
      List.map
        (fun ((c, _) as payload) ->
          Frugal.cand payload { Frugal.lo = c.delta_cost_lo; hi = c.delta_cost })
        capped
    in
    let penalty ~payload ~dt =
      let (c : candidate), _ = payload in
      penalty_of ~delta_space:c.delta_space dt
    in
    (* Free tightening: raise the interval's lower end with the advisory
       floor the what-if layer derives from structure-comparable
       configurations it already optimized (floors sharpen as budgeted
       calls land anywhere).  The upper end deliberately stays the model
       bound: evaluation stores exactly the model's patched plan for
       un-budgeted queries, so an advisory-lowered upper end could drop
       below the realized cost and break the realized-≤-predicted
       invariant the differential checker enforces. *)
    let tighten (fc : _ Frugal.cand) =
      let _, (config', affected, ctx, delta_shell) = fc.Frugal.payload in
      match ctx with
      | None -> ()
      | Some _ ->
        let lo, _ =
          delta_fold affected ~init:(delta_shell, delta_shell)
            (fun slot _ ->
              let qid, _, _ = st.prepared.selects_arr.(slot) in
              let alo, _ =
                O.Whatif.cost_interval st.whatif config' ~qid
                  ~tables:(tables_of slot)
              in
              (alo, alo))
        in
        fc.Frugal.ival <-
          Frugal.tighten_with fc.Frugal.ival
            ~advisory:{ Frugal.lo; hi = infinity }
    in
    (* refinement: re-optimize the affected queries for real, debiting the
       ledger per optimizer call actually executed (cache hits are free);
       queries the budget could not cover keep their model bounds, leaving
       a mixed — but still valid — interval *)
    let refine (fc : _ Frugal.cand) =
      let _, (config', affected, ctx, delta_shell) = fc.Frugal.payload in
      match ctx with
      | None -> ()
      | Some ctx ->
        let lo, hi =
          delta_fold affected ~init:(delta_shell, delta_shell)
            (fun slot plan ->
              if Frugal.rank_remaining ledger > 0 then begin
                let qid, _, sq = st.prepared.selects_arr.(slot) in
                let calls_before = fst (O.Whatif.stats st.whatif) in
                let plan' = O.Whatif.plan_select st.whatif config' ~qid sq in
                Frugal.debit ledger
                  (fst (O.Whatif.stats st.whatif) - calls_before);
                (plan'.O.Plan.cost, plan'.O.Plan.cost)
              end
              else (Cost_bound.query_lower_bound ctx plan, upper ctx slot plan))
        in
        fc.Frugal.ival <-
          Frugal.tighten_with { Frugal.lo; hi } ~advisory:fc.Frugal.ival
    in
    Frugal.sweep ledger ~penalty ~tighten ~refine fcands;
    let updated =
      List.map
        (fun (fc : _ Frugal.cand) ->
          let c, _ = fc.Frugal.payload in
          let dt = fc.Frugal.ival.Frugal.hi in
          {
            c with
            delta_cost = dt;
            delta_cost_lo = fc.Frugal.ival.Frugal.lo;
            penalty = penalty_of ~delta_space:c.delta_space dt;
          })
        fcands
    in
    List.stable_sort (fun a b -> Float.compare a.penalty b.penalty) updated

let ensure_candidates st n =
  if not n.candidates_ready then begin
    n.untried <- Obs.Probe.span "search.rank_candidates" (fun () -> rank_candidates st n);
    n.candidates_ready <- true
  end

(* ------------------------------------------------------------------ *)
(* configuration choice (§3.4 / §3.6)                                  *)
(* ------------------------------------------------------------------ *)

let has_untried st n =
  ensure_candidates st n;
  n.untried <> []

(* count without forcing lazy candidate computation *)
let untried_ready_count st =
  List.fold_left
    (fun acc n ->
      if n.candidates_ready then acc + List.length n.untried
      else acc)
    0 st.nodes

let find_node st id = Hashtbl.find st.by_id id

(* chain of ancestors from [n] (inclusive) to the root *)
let chain st n =
  let rec go acc n =
    match n.parent with
    | None -> List.rev (n :: acc)
    | Some p -> go (n :: acc) (find_node st p)
  in
  go [] n

let parent_cost st n =
  match n.parent with None -> infinity | Some p -> (find_node st p).cost

let pick_configuration st ~(last : node) : node option =
  let b = st.opts.space_budget in
  (* Heuristic 1: keep relaxing the last configuration while it is over
     budget (or, with updates, while the relaxation reduced its cost). *)
  let continue_last =
    last.size > b
    || (st.prepared.dmls <> [] && last.cost < parent_cost st last)
  in
  if continue_last && has_untried st last then Some last
  else begin
    (* Heuristic 2: along the chain of the best fitting configuration, pick
       the node whose relaxation realized the largest penalty. *)
    let from_chain =
      match st.best with
      | None -> None
      | Some best ->
        let ch = chain st best in
        let edges =
          List.filter_map
            (fun n ->
              match n.parent with
              | Some p ->
                let parent = find_node st p in
                if has_untried st parent then Some (n.actual_penalty, parent)
                else None
              | None -> None)
            ch
        in
        (match List.sort (fun (a, _) (b', _) -> Float.compare b' a) edges with
        | (_, parent) :: _ -> Some parent
        | [] -> None)
    in
    match from_chain with
    | Some n -> Some n
    | None ->
      (* Heuristic 3: the cheapest configuration with work left (checked in
         cost order so candidate ranking is only forced until a hit). *)
      let sorted =
        List.sort (fun a b -> Float.compare a.cost b.cost) st.nodes
      in
      List.find_opt (has_untried st) sorted
  end

(* Pop one candidate from the node's untried list, per the selection
   strategy (§3.4 default: minimum penalty = head of the sorted list). *)
let pick_candidate st (c : node) : candidate option =
  match c.untried with
  | [] -> None
  | l ->
    let minimize f =
      List.fold_left (fun acc x -> if f x < f acc then x else acc) (List.hd l) l
    in
    let chosen =
      match st.opts.selection with
      | Penalty -> List.hd l
      | Cost_greedy -> minimize (fun x -> x.delta_cost)
      | Space_greedy -> minimize (fun x -> -.x.delta_space)
      | Random _ -> List.nth l (Random.State.int st.rand (List.length l))
    in
    c.untried <- List.filter (fun x -> x != chosen) l;
    Some chosen

(* §3.5 variant: greedily pile further candidates of the same node onto a
   partially-relaxed configuration; returns it with the transformations
   piled on.  Conflicting transformations (ones whose structures are
   already gone) simply fail to apply and are skipped. *)
let extend_with_transforms st (c : node) config k =
  let applied = ref [] in
  let config = ref config in
  let rec go remaining k =
    match (remaining, k) with
    | [], _ | _, 0 -> ()
    | cand :: rest, k -> (
      match
        Transform.apply ~estimate_rows:(estimate_view_rows st) !config cand.tr
      with
      | Some cfg' ->
        config := cfg';
        applied := cand :: !applied;
        go rest (k - 1)
      | None -> go rest k)
  in
  go c.untried k;
  c.untried <- List.filter (fun x -> not (List.memq x !applied)) c.untried;
  (!config, List.rev_map (fun cand -> cand.tr) !applied)

(* ------------------------------------------------------------------ *)
(* the main loop (Figure 5)                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  initial : node;  (** the optimal configuration's node *)
  best : node option;  (** best configuration within the budget *)
  explored : (float * float * float) list;
      (** (size, select+shell cost, actual penalty) of every evaluated node *)
  best_trace : (int * float) list;
      (** (iteration, cost) each time a new best valid configuration was
          found: the tuner's anytime behaviour *)
  iterations : int;
  candidates_per_iteration : int list;
  whatif : O.Whatif.t;
      (** the search's what-if interface, cache warm with every plan the
          run optimized — reusing it to re-cost the recommended
          configuration avoids a second round of optimizer calls *)
}

(* One JSONL event per search iteration: the chosen transformation, its
   predicted ΔT/ΔS and penalty, the realized cost/size after evaluation and
   the bound-drift ratio (§3.3.2 upper bound vs. actual re-optimized cost;
   a drift ≥ 1 means the bound held). *)
let emit_iteration (st : state) ~(parent : node) ~(cand : candidate) ~status
    ~(node : node option) =
  Obs.Probe.emit (fun () ->
      let open Obs.Json in
      let predicted_cost = parent.cost +. cand.delta_cost in
      let predicted_size = parent.size -. cand.delta_space in
      let realized =
        match node with
        | None -> [ ("node", Null); ("actual_cost", Null); ("actual_size", Null); ("bound_drift", Null) ]
        | Some n ->
          [ ("node", Int n.id);
            ("actual_cost", Float n.cost);
            ("actual_size", Float n.size);
            ("bound_drift", Float (if n.cost > 0.0 then predicted_cost /. n.cost else 1.0));
          ]
      in
      Obj
        ([ ("event", String "iteration");
           ("iteration", Int st.iterations);
           ("parent", Int parent.id);
           ("transform", String (Fmt.str "%a" Transform.pp cand.tr));
           ("kind", String (Transform.kind cand.tr));
           ("penalty", Float cand.penalty);
           ("delta_cost", Float cand.delta_cost);
           ("delta_space", Float cand.delta_space);
           ("predicted_cost", Float predicted_cost);
           ("predicted_size", Float predicted_size);
           ("outcome", String status);
         ]
        @ realized
        @ [ ("pool", Int (List.length st.nodes));
            ("best_cost",
             match st.best with Some b -> Float b.cost | None -> Null);
          ]))

(** Run the relaxation search from an initial (optimal) configuration.
    When [obs] is given it is installed as the ambient recorder for the
    duration of the search, so every probe in the optimizer stack below
    reports into it. *)
let run ?obs catalog ~(workload : Query.workload) ~(initial : Config.t)
    (opts : options) : outcome =
  (match obs with
  | Some r -> Obs.Recorder.with_ambient r
  | None -> fun f -> f ())
  @@ fun () ->
  let whatif =
    match opts.whatif with Some w -> w | None -> O.Whatif.create catalog
  in
  let prepared = prepare workload in
  let pool = Pool.create ~jobs:opts.jobs in
  Fun.protect
    ~finally:(fun () ->
      let pst = Pool.stats pool in
      Obs.Probe.count_n "pool.jobs" pst.Pool.pool_jobs;
      Obs.Probe.count_n "pool.tasks" pst.Pool.tasks;
      Obs.Probe.count_n "pool.batches" pst.Pool.batches;
      Array.iteri
        (fun i busy ->
          Obs.Probe.count_n
            (Printf.sprintf "pool.domain%d.busy_ms" i)
            (int_of_float (busy *. 1000.0)))
        pst.Pool.busy_s;
      Pool.shutdown pool)
  @@ fun () ->
  let st =
    {
      catalog;
      whatif;
      prepared;
      opts;
      pool;
      nodes = [];
      by_id = Hashtbl.create 64;
      next_id = 0;
      best = None;
      iterations = 0;
      candidates_trace = [];
      seen = Hashtbl.create 64;
      cbv_lock = Mutex.create ();
      cbv_cache = Hashtbl.create 16;
      heaps = base_heaps catalog;
      bound_memo = Bound_memo.create ();
      charges = O.Update_cost.Charges.create catalog prepared.dmls;
      frugal = Option.map (fun budget -> Frugal.create ~budget) opts.whatif_budget;
      rand =
        Random.State.make
          [| (match opts.selection with Random seed -> seed | _ -> 0) |];
      started = Obs.Clock.now ();
    }
  in
  (* register the derived-view statistics of the two configurations the
     workers will cost before any parallel region ([Env.make] mutates the
     shared catalog memo on first sight of a view) *)
  ignore (O.Env.make catalog opts.base_config);
  ignore (O.Env.make catalog initial);
  (* Frugal runs pre-optimize every select under the protected base
     configuration.  The base configuration is a subset of every
     configuration the search visits, so its plans are valid — and their
     costs sound upper bounds — everywhere: they are the universal
     fallback when the budget cannot pay for a re-optimization and the
     patched plan drifts loose.  The same cache entries serve the tuner's
     base-configuration report, so the pass costs the run nothing net. *)
  let nsel = Array.length prepared.selects_arr in
  (match opts.whatif_budget with
  | None -> ()
  | Some _ ->
    ignore
      (Pool.map_array pool
         (fun (qid, _, q) ->
           O.Whatif.plan_select whatif opts.base_config ~qid q)
         prepared.selects_arr));
  (* a parentless pool node evaluated from scratch (the root and the
     warm-start seed): one parallel map over every select, costs folded
     sequentially in workload order.  It never aborts, so it needs no
     batches. *)
  let scratch_node config =
    let shell = shell_cost_of st config in
    let plans =
      Pool.map_array pool
        (fun (qid, _, q) -> O.Whatif.plan_select whatif config ~qid q)
        prepared.selects_arr
    in
    let total = ref 0.0 in
    Array.iteri
      (fun slot (plan : O.Plan.t) ->
        let _, w, _ = prepared.selects_arr.(slot) in
        total := !total +. (w *. plan.cost))
      plans;
    let node =
      {
        id = st.next_id;
        config;
        plans;
        slots = prepared.slots;
        select_cost = !total;
        shell_cost = shell;
        cost = !total +. shell;
        size = config_size st config;
        parent = None;
        actual_penalty = 0.0;
        pseudo = Bitset.create nsel;
        untried = [];
        candidates_ready = false;
      }
    in
    st.next_id <- st.next_id + 1;
    st.nodes <- node :: st.nodes;
    Hashtbl.replace st.by_id node.id node;
    Hashtbl.replace st.seen (Config.fingerprint config) ();
    node
  in
  let root = scratch_node initial in
  let best_trace = ref [] in
  if root.size <= opts.space_budget then begin
    st.best <- Some root;
    best_trace := [ (0, root.cost) ]
  end;
  (* Warm start: seed the previously deployed configuration as a second
     parentless pool node.  On an incremental re-tune its plans are
     already in the (shared) cache, so the evaluation is nearly free, and
     installing it as the incumbent best means shortcut evaluation and the
     frugal contender gate prune against a realistic cost from iteration
     zero — the mechanism behind warm re-tunes spending fewer optimizer
     calls than cold ones. *)
  (match opts.initial_config with
  | None -> ()
  | Some cfg when Hashtbl.mem st.seen (Config.fingerprint cfg) -> ()
  | Some cfg ->
    ignore (O.Env.make catalog cfg);
    let warm = scratch_node cfg in
    if warm.size <= opts.space_budget then begin
      let better =
        match st.best with None -> true | Some b -> warm.cost < b.cost
      in
      if better then begin
        st.best <- Some warm;
        best_trace := (0, warm.cost) :: !best_trace
      end
    end);
  let time_ok () =
    match opts.time_budget_s with
    | None -> true
    | Some s -> Obs.Clock.elapsed_s ~since:st.started < s
  in
  let last = ref root in
  (try
     while st.iterations < opts.max_iterations && time_ok () do
       match pick_configuration st ~last:!last with
       | None -> raise Exit
       | Some c ->
         Obs.Probe.span "search.iteration" @@ fun () ->
         (
         ensure_candidates st c;
         st.candidates_trace <- untried_ready_count st :: st.candidates_trace;
         match pick_candidate st c with
         | None -> () (* will be skipped next pick *)
         | Some cand ->
           st.iterations <- st.iterations + 1;
           Obs.Probe.iteration ();
           let applied =
             Transform.apply ~estimate_rows:(estimate_view_rows st) c.config
               cand.tr
           in
           let status, produced =
             match applied with
             | None -> ("inapplicable", None)
             | Some config' -> (
               (* §3.5 variant: pile up to k−1 further non-conflicting
                  transformations before evaluating *)
               let config', more =
                 if opts.transforms_per_iteration <= 1 then (config', [])
                 else
                   extend_with_transforms st c config'
                     (opts.transforms_per_iteration - 1)
               in
               Obs.Probe.transform_applied ~kind:(Transform.kind cand.tr);
               let fp = Config.fingerprint config' in
               if Hashtbl.mem st.seen fp then ("duplicate", None)
               else begin
                 Hashtbl.replace st.seen fp ();
                 match
                   Obs.Probe.span "search.evaluate" (fun () ->
                       evaluate st ~parent:c ~trs:(cand.tr :: more) config')
                 with
                 | None -> ("shortcut", None) (* shortcut-pruned *)
                 | Some node ->
                   Obs.Probe.config_evaluated ();
                   st.nodes <- node :: st.nodes;
                   Hashtbl.replace st.by_id node.id node;
                   last := node;
                   let fits = node.size <= opts.space_budget in
                   let better =
                     match st.best with
                     | None -> fits
                     | Some b -> fits && node.cost < b.cost
                   in
                   if better then begin
                     st.best <- Some node;
                     best_trace := (st.iterations, node.cost) :: !best_trace
                   end;
                   ("evaluated", Some node)
               end)
           in
           Obs.Probe.pool_size (List.length st.nodes);
           emit_iteration st ~parent:c ~cand ~status ~node:produced;
           match st.opts.on_iteration with
           | None -> ()
           | Some check ->
             check
               {
                 it_iteration = st.iterations;
                 it_parent = c.config;
                 it_parent_cost = c.cost;
                 it_parent_size = c.size;
                 it_transform = cand.tr;
                 it_applied = applied;
                 it_predicted_delta_cost = cand.delta_cost;
                 it_predicted_delta_space = cand.delta_space;
                 it_penalty = cand.penalty;
                 it_outcome = status;
                 it_result =
                   Option.map (fun n -> (n.config, n.cost, n.size)) produced;
               })
     done
   with Exit -> ());
  (* Endgame re-ranking (frugal only).  The loop compared configurations
     by bound-substituted costs, so among close contenders the best node
     may be mis-identified.  Re-cost the cheapest valid configurations
     honestly — pseudo plans only, through the warm cache, cheapest
     first, whole nodes only — spending what is left of the budget, then
     re-pick the best.  Sequential on the main domain, so the spend
     sequence (and hence the recommendation) is identical at any
     [jobs]. *)
  (match st.frugal with
  | None -> ()
  | Some ledger ->
    let by_cost a b =
      match Float.compare a.cost b.cost with
      | 0 -> Int.compare a.id b.id
      | c -> c
    in
    let contenders =
      List.sort by_cost
        (List.filter (fun n -> n.size <= opts.space_budget) st.nodes)
    in
    let recost (n : node) : node =
      if Bitset.is_empty n.pseudo then n
      else begin
        let cached = ref [] in
        Array.iteri
          (fun slot (qid, w, q) ->
            if Bitset.mem n.pseudo slot then
              cached :=
                ( slot,
                  qid,
                  w,
                  q,
                  O.Whatif.find_cached st.whatif n.config ~qid
                    ~tables:q.Query.body.tables )
                :: !cached)
          st.prepared.selects_arr;
        let cached = List.rev !cached in
        (* cached plans are free; commit only when the ledger covers
           every miss — partial honesty would spend calls without making
           the node's cost comparable to fully honest ones *)
        let misses =
          List.length
            (List.filter (fun (_, _, _, _, p) -> Option.is_none p) cached)
        in
        if misses > Frugal.remaining ledger then n
        else begin
          Frugal.debit ledger misses;
          Obs.Probe.count_n "whatif.endgame_spent" misses;
          let plans = Array.copy n.plans and delta = ref 0.0 in
          List.iter
            (fun (slot, qid, w, q, cp) ->
              let p =
                match cp with
                | Some p -> p
                | None -> O.Whatif.plan_select st.whatif n.config ~qid q
              in
              let old = n.plans.(slot) in
              delta := !delta +. (w *. (p.O.Plan.cost -. old.O.Plan.cost));
              plans.(slot) <- p)
            cached;
          {
            n with
            plans;
            select_cost = n.select_cost +. !delta;
            cost = n.cost +. !delta;
            pseudo = Bitset.create (Array.length st.prepared.selects_arr);
          }
        end
      end
    in
    let replaced = Hashtbl.create 16 in
    List.iter
      (fun n ->
        let n' = recost n in
        if n' != n then Hashtbl.replace replaced n.id n')
      contenders;
    if Hashtbl.length replaced > 0 then begin
      st.nodes <-
        List.map
          (fun n ->
            match Hashtbl.find_opt replaced n.id with
            | Some n' ->
              Hashtbl.replace st.by_id n.id n';
              n'
            | None -> n)
          st.nodes;
      let best =
        match
          List.sort by_cost
            (List.filter (fun n -> n.size <= opts.space_budget) st.nodes)
        with
        | [] -> None
        | n :: _ -> Some n
      in
      match best with
      | None -> ()
      | Some n ->
        let changed =
          match st.best with
          | None -> true
          | Some b -> b.id <> n.id || not (Cost_bound.float_eq b.cost n.cost)
        in
        st.best <- Some n;
        if changed then best_trace := (st.iterations, n.cost) :: !best_trace
    end);
  {
    initial = root;
    best = st.best;
    explored =
      List.rev_map (fun n -> (n.size, n.cost, n.actual_penalty)) st.nodes;
    best_trace = List.rev !best_trace;
    iterations = st.iterations;
    candidates_per_iteration = List.rev st.candidates_trace;
    whatif;
  }
