(** The what-if costing layer.

    Hypothetical configurations are plain values here, so "simulating" a
    structure is free; what this layer adds is memoization: a query's plan
    only depends on the sub-configuration relevant to its tables, so two
    configurations that agree there share one optimization call.  This is
    the mechanism behind the paper's observation that a relaxed
    configuration only requires re-optimizing the queries that used the
    replaced structures.

    The plan cache is sharded by key hash, and each shard's store is one
    persistent map held in an [Atomic.t].  Reads are lock-free: a cache
    hit costs one atomic load and a map lookup, whatever the number of
    reading domains.  Writers replace the map under the shard's mutex, so
    concurrent inserts never lose one another.  An optimization runs
    outside any shard lock (it can take milliseconds); concurrent
    requests for the same key are deduplicated through a per-shard
    in-flight set: the first requester optimizes, later ones wait on the
    shard's condition variable and count a cache hit, so the same key
    never pays two optimizer calls whatever the parallelism.

    Beyond exact-key memoization the layer keeps a per-query record of
    every (structure set, cost) it has optimized, ordered by structure-set
    inclusion: a recorded superset configuration's cost is a lower bound on
    the current one's (more structures can only help), a recorded subset's
    an upper bound.  {!cost_interval} serves these bounds to the frugal
    costing tier without any optimizer call.  The bound store is sharded
    by qid hash the same way, one atomic map per shard, so the
    advisory lookups every worker domain makes during candidate scoring
    no longer serialize on one global mutex.  The store can be persisted
    to disk ({!save_bounds} / {!load_bounds}) keyed by the catalog
    fingerprint: a reloaded record whose configuration fingerprint
    matches exactly yields a point interval — repeated [tune]/[bench]
    invocations amortize their costing. *)

module Query = Relax_sql.Query
module Config = Relax_physical.Config
module Catalog = Relax_catalog.Catalog
module J = Relax_obs.Json
module Smap = Map.Make (String)

type shard = {
  shard_lock : Mutex.t;  (** serializes writers of [snapshot] and [inflight] *)
  resolved : Condition.t;
      (** signalled under [shard_lock] when an in-flight optimize lands *)
  snapshot : Plan.t Smap.t Atomic.t;
      (** the shard's plans: read lock-free, replaced under [shard_lock] *)
  inflight : (string, unit) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* one shard of the advisory bound store; see [record_bounds] *)
type bound_shard = {
  b_lock : Mutex.t;  (** serializes writers of [b_snapshot] *)
  b_snapshot : (string list * float) list Smap.t Atomic.t;
      (** per qid: (sorted fingerprint entries, optimized plan cost) of
          every sub-configuration ever optimized for that query *)
}

type t = {
  catalog : Catalog.t;
  shards : shard array;
  optimizer_calls : int Atomic.t;  (** optimization calls actually executed *)
  cache_hits : int Atomic.t;
  bound_shards : bound_shard array;
}

let shard_bits = 4
let shard_count = 1 lsl shard_bits

let create catalog =
  {
    catalog;
    shards =
      Array.init shard_count (fun _ ->
          {
            shard_lock = Mutex.create ();
            resolved = Condition.create ();
            snapshot = Atomic.make Smap.empty;
            inflight = Hashtbl.create 4;
            hits = Atomic.make 0;
            misses = Atomic.make 0;
          });
    optimizer_calls = Atomic.make 0;
    cache_hits = Atomic.make 0;
    bound_shards =
      Array.init shard_count (fun _ ->
          { b_lock = Mutex.create (); b_snapshot = Atomic.make Smap.empty });
  }

let stats t = (Atomic.get t.optimizer_calls, Atomic.get t.cache_hits)

let cached_plans t =
  Array.fold_left
    (fun acc sh -> acc + Smap.cardinal (Atomic.get sh.snapshot))
    0 t.shards

let key config ~qid ~tables =
  qid ^ "#" ^ Config.fingerprint_for_tables config tables

let shard_index k = Hashtbl.hash k land (shard_count - 1)
let series_of_shard i = Printf.sprintf "shard%02d" i

(* --- the bound-aware (structure set, cost) record ----------------------- *)

(* a fingerprint as its sorted entry list; the empty fingerprint has no
   entries *)
let fingerprint_entries fp = if fp = "" then [] else String.split_on_char '|' fp

let is_clustered_entry e = String.length e >= 3 && String.sub e 0 3 = "cx["

(* [a] ⊆ [b] as sorted string lists (merge walk) *)
let rec subset_sorted a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys ->
    let c = String.compare x y in
    if c = 0 then subset_sorted xs ys
    else if c > 0 then subset_sorted a ys
    else false

(* Structure-set inclusion only orders costs when the two configurations
   store the relations identically: a clustered index replaces its owner's
   heap, so any difference in cx entries changes the physical base data and
   breaks cost monotonicity.  *)
let comparable_le a b =
  subset_sorted a b
  && List.filter is_clustered_entry a = List.filter is_clustered_entry b

(* The store is bounded: a long-running service re-tunes thousands of
   times against the same Whatif, and an append-only history is both a
   leak and a per-lookup slowdown (every {!cost_interval} folds the whole
   list).  Each qid keeps at most [max_bounds_per_qid] records, newest
   first.  Identical structure sets are deduplicated (they can only recur
   after an eviction re-optimizes a key, and then the new cost supersedes
   the old).  On overflow we drop a *dominated* record when one exists — A
   is dominated when some superset B with cost >= A's covers every lower
   bound A could serve AND some subset B' with cost <= A's covers every
   upper bound — and the oldest record otherwise.  Bounds are advisory
   (the frugal tier only uses them to skip optimizer calls), so any
   eviction policy is safe; this one just keeps the tightest survivors. *)
let max_bounds_per_qid = 32

let dominated l (a_entries, a_cost) =
  let covers_lower (b_entries, b_cost) =
    b_cost >= a_cost
    && a_entries != b_entries
    && comparable_le a_entries b_entries
  and covers_upper (b_entries, b_cost) =
    b_cost <= a_cost
    && a_entries != b_entries
    && comparable_le b_entries a_entries
  in
  List.exists covers_lower l && List.exists covers_upper l

let bound_shard_of t qid = t.bound_shards.(Hashtbl.hash qid land (shard_count - 1))

let record_bounds t ~qid ~fp (cost : float) =
  let entries = fingerprint_entries fp in
  let bsh = bound_shard_of t qid in
  Mutex.protect bsh.b_lock (fun () ->
      let store = Atomic.get bsh.b_snapshot in
      let l = Option.value ~default:[] (Smap.find_opt qid store) in
      let deduped = List.filter (fun (e, _) -> e <> entries) l in
      let trimmed =
        if List.length deduped < max_bounds_per_qid then deduped
        else begin
          (* at capacity: drop a dominated record, else the oldest *)
          match List.filter (fun r -> not (dominated deduped r)) deduped with
          | survivors when List.length survivors < List.length deduped ->
            (* removing every dominated record at once is fine — each
               had a surviving dominator on both sides *)
            survivors
          | _ -> (
            match List.rev deduped with
            | [] -> []
            | _ :: rev_rest -> List.rev rev_rest)
        end
      in
      Atomic.set bsh.b_snapshot
        (Smap.add qid ((entries, cost) :: trimmed) store))

(** Total advisory-bound records currently held, across all qids: the
    observable the bounded-growth regression test (and the daemon's
    window-size gauge) watches. *)
let bounds_size t =
  Array.fold_left
    (fun acc bsh ->
      Smap.fold
        (fun _ l n -> n + List.length l)
        (Atomic.get bsh.b_snapshot) acc)
    0 t.bound_shards

(** Drop every advisory bound.  Plans stay cached. *)
let reset_bounds t =
  Array.iter
    (fun bsh ->
      Mutex.protect bsh.b_lock (fun () -> Atomic.set bsh.b_snapshot Smap.empty))
    t.bound_shards

(* the workload qid behind a cache key or bounds qid: strip the
   select-component suffix, then anything from the '#' fingerprint
   separator on *)
let owner_qid k =
  let k = match String.index_opt k '#' with
    | Some i -> String.sub k 0 i
    | None -> k
  in
  Query.base_qid k

(** Evict every cached plan and advisory bound whose owning workload qid
    fails [keep].  The daemon calls this on window rotation: statements
    that left the sliding window stop pinning plans and bounds, which is
    what keeps a long-running service's footprint proportional to the
    window, not the history.  DML select components ([qid ^ ":select"])
    are evicted with their owner. *)
let evict t ~keep =
  let kept k _ = keep (owner_qid k) in
  Array.iter
    (fun sh ->
      Mutex.protect sh.shard_lock (fun () ->
          Atomic.set sh.snapshot (Smap.filter kept (Atomic.get sh.snapshot))))
    t.shards;
  Array.iter
    (fun bsh ->
      Mutex.protect bsh.b_lock (fun () ->
          Atomic.set bsh.b_snapshot
            (Smap.filter kept (Atomic.get bsh.b_snapshot))))
    t.bound_shards

(** Advisory (lower, upper) bounds on the optimized plan cost of [qid]
    under [config], from costs already paid for comparable configurations:
    a recorded superset's cost bounds from below, a recorded subset's from
    above.  [(0., infinity)] when nothing comparable was ever optimized.
    No optimizer call, no lock: the per-qid record list is read off the
    owning shard's atomic store, so concurrent scoring domains
    never serialize here. *)
let cost_interval t config ~qid ~tables : float * float =
  let mine = fingerprint_entries (Config.fingerprint_for_tables config tables) in
  let bsh = bound_shard_of t qid in
  match Smap.find_opt qid (Atomic.get bsh.b_snapshot) with
  | None -> (0.0, infinity)
  | Some l ->
    List.fold_left
      (fun (lo, hi) (entries, cost) ->
        let lo =
          if comparable_le mine entries then Float.max lo cost else lo
        in
        let hi =
          if comparable_le entries mine then Float.min hi cost else hi
        in
        (lo, hi))
      (0.0, infinity) l

(* --- plan lookup and optimization --------------------------------------- *)

(* Counter increments read back through [fetch_and_add], never a
   separate [Atomic.get]: under contention incr-then-get pairs emit
   duplicated (non-monotonic) values into the counter tracks — the
   double-counting the first real multi-core run surfaced. *)
let count_hit t sh i ~qid =
  Atomic.incr t.cache_hits;
  let shard_hits = 1 + Atomic.fetch_and_add sh.hits 1 in
  Relax_obs.Probe.cache_hit ~qid;
  Relax_obs.Probe.counter_series "whatif.cache_hits"
    ~series:(series_of_shard i)
    (float_of_int shard_hits)

(** Memoized plan for [qid] under [config], when one is already cached.
    Never optimizes and counts nothing: a peek for the frugal evaluation
    tier, which substitutes a bound-costed plan on a miss instead of
    paying the optimizer call.  Lock-free: one atomic snapshot load. *)
let find_cached t config ~qid ~tables : Plan.t option =
  let k = key config ~qid ~tables in
  let sh = t.shards.(shard_index k) in
  Smap.find_opt k (Atomic.get sh.snapshot)

(** Optimized plan for a select query under [config] (memoized). *)
let plan_select t config ~qid (sq : Query.select_query) : Plan.t =
  let fp = Config.fingerprint_for_tables config sq.body.tables in
  let k = qid ^ "#" ^ fp in
  let i = shard_index k in
  let sh = t.shards.(i) in
  (* fast path: one atomic load, no lock *)
  match Smap.find_opt k (Atomic.get sh.snapshot) with
  | Some p ->
    count_hit t sh i ~qid;
    p
  | None -> (
    Mutex.lock sh.shard_lock;
    (* wait out any in-flight optimization of the same key rather than
       duplicating its optimizer call (request-level dedup) *)
    let rec await () =
      match Smap.find_opt k (Atomic.get sh.snapshot) with
      | Some p -> Some p
      | None ->
        if Hashtbl.mem sh.inflight k then begin
          Condition.wait sh.resolved sh.shard_lock;
          await ()
        end
        else None
    in
    match await () with
    | Some p ->
      Mutex.unlock sh.shard_lock;
      count_hit t sh i ~qid;
      p
    | None ->
      Hashtbl.add sh.inflight k ();
      Mutex.unlock sh.shard_lock;
      (* land the plan (if any) and release the waiters in one critical
         section *)
      let finalize plan =
        Mutex.protect sh.shard_lock (fun () ->
            (match plan with
            | Some p ->
              Atomic.set sh.snapshot (Smap.add k p (Atomic.get sh.snapshot))
            | None -> ());
            Hashtbl.remove sh.inflight k;
            Condition.broadcast sh.resolved)
      in
      let p =
        match
          let calls = 1 + Atomic.fetch_and_add t.optimizer_calls 1 in
          let shard_misses = 1 + Atomic.fetch_and_add sh.misses 1 in
          Relax_obs.Probe.what_if_call ~qid;
          Relax_obs.Probe.counter "whatif.calls" (float_of_int calls);
          Relax_obs.Probe.counter_series "whatif.cache_misses"
            ~series:(series_of_shard i)
            (float_of_int shard_misses);
          Relax_obs.Probe.span "whatif.optimize" (fun () ->
              Optimizer.optimize t.catalog config sq)
        with
        | p ->
          finalize (Some p);
          p
        | exception e ->
          finalize None;
          raise e
      in
      record_bounds t ~qid ~fp p.cost;
      p)

(** Cost of one workload entry under [config]: plan cost for selects;
    select-component cost plus shell cost for updates (§3.6). *)
let entry_cost t config (e : Query.entry) : float =
  match e.stmt with
  | Select sq -> (plan_select t config ~qid:e.qid sq).cost
  | Dml d ->
    let select_part, _shell = Query.split_update d in
    let select_cost =
      match select_part with
      | None -> 0.0
      | Some sq -> (plan_select t config ~qid:(Query.select_qid e.qid) sq).cost
    in
    let env = Env.make t.catalog config in
    select_cost +. Update_cost.shell_cost env config d

(** Weighted total workload cost under [config]. *)
let workload_cost t config (w : Query.workload) : float =
  List.fold_left (fun acc e -> acc +. (e.Query.weight *. entry_cost t config e)) 0.0 w

(** Per-entry costs, weighted. *)
let per_entry_costs t config (w : Query.workload) : (string * float) list =
  List.map (fun (e : Query.entry) -> (e.qid, e.weight *. entry_cost t config e)) w

(* --- on-disk persistence of the advisory bound store -------------------- *)

(* The durable format deliberately stores only (qid, configuration
   fingerprint, cost) triples — not plans: a cost record is a few dozen
   bytes and, reloaded, serves {!cost_interval} a *point* interval
   whenever the exact fingerprint recurs, which is what lets a repeated
   [tune]/[bench] invocation skip the optimizer call entirely through
   the frugal tier.  The file is keyed by {!Catalog.fingerprint}: costs
   are only meaningful against the statistics that produced them, so a
   mismatched catalog refuses to load. *)

let bounds_to_json t : J.t =
  let records =
    Array.fold_left
      (fun acc bsh -> Smap.bindings (Atomic.get bsh.b_snapshot) @ acc)
      [] t.bound_shards
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  J.Obj
    [
      ("version", J.Int 1);
      ("catalog", J.String (Catalog.fingerprint t.catalog));
      ( "bounds",
        J.List
          (List.concat_map
             (fun (qid, l) ->
               (* oldest first, so reloading through [record_bounds]
                  (which prepends) restores newest-first order *)
               List.rev_map
                 (fun (entries, cost) ->
                   J.Obj
                     [
                       ("qid", J.String qid);
                       ("fp", J.String (String.concat "|" entries));
                       ("cost", J.Float cost);
                     ])
                 l)
             records) );
    ]

let save_bounds t ~file : (int, string) result =
  match bounds_to_json t with
  | json -> (
    let n =
      match json with
      | J.Obj fields -> (
        match List.assoc_opt "bounds" fields with
        | Some (J.List l) -> List.length l
        | _ -> 0)
      | _ -> 0
    in
    try
      Relax_obs.Durable.write_file file (fun oc ->
          Out_channel.output_string oc (J.to_string json);
          Out_channel.output_char oc '\n');
      Ok n
    with Sys_error msg -> Error msg)

let load_bounds t ~file : (int, string) result =
  let ( let* ) = Result.bind in
  let* contents =
    match In_channel.with_open_bin file In_channel.input_all with
    | c -> Ok c
    | exception Sys_error msg -> Error msg
  in
  let* json = J.of_string (String.trim contents) in
  let member name =
    match J.member name json with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "what-if cache: missing field %S" name)
  in
  let* version = member "version" in
  let* () =
    match version with
    | J.Int 1 -> Ok ()
    | _ -> Error "what-if cache: unsupported version"
  in
  let* cat_fp = member "catalog" in
  let* () =
    match cat_fp with
    | J.String fp when fp = Catalog.fingerprint t.catalog -> Ok ()
    | J.String _ ->
      Error
        "what-if cache: catalog fingerprint mismatch (stale schema or \
         statistics); refusing to load"
    | _ -> Error "what-if cache: catalog field is not a string"
  in
  let* bounds = member "bounds" in
  let* records =
    match bounds with
    | J.List l -> Ok l
    | _ -> Error "what-if cache: bounds field is not a list"
  in
  let* loaded =
    List.fold_left
      (fun acc r ->
        let* n = acc in
        let field name =
          match J.member name r with
          | Some v -> Ok v
          | None ->
            Error (Printf.sprintf "what-if cache: record missing %S" name)
        in
        let* qid = field "qid" in
        let* fp = field "fp" in
        let* cost = field "cost" in
        match (qid, fp, J.to_float cost) with
        | J.String qid, J.String fp, Some cost ->
          record_bounds t ~qid ~fp cost;
          Ok (n + 1)
        | _ -> Error "what-if cache: malformed record")
      (Ok 0) records
  in
  Ok loaded
