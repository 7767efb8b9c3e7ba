(* The rank replay: the search's candidate ranking rebuilt from public
   functions, the way lib/check rebuilds it, so its phases can be clocked
   one by one from outside the program.  For each replayed parent
   configuration: enumerate every transformation (Transform.enumerate),
   apply each (Transform.apply), size the result (Config.total_bytes), and
   bound every affected query (Cost_bound.query_bound, §3.3.2).

   Run it under a private recorder: its optimizer and access-path work
   must not land in the program's own counters. *)

module T = Relax_tuner
module O = Relax_optimizer
module Query = Relax_sql.Query
module Config = Relax_physical.Config
module View = Relax_physical.View

type stats = {
  nodes : int;
  transforms : int;  (** enumerated, over all replayed nodes *)
  bound_calls : int;  (** Cost_bound.query_bound calls *)
  pairs : int;  (** (applied transformation, select) pairs examined *)
  affected_pairs : int;
  access_keys : int;  (** affected accesses bounded *)
  repeated_keys : int;
      (** of which (request, relation-local configuration) was seen before *)
}

let empty =
  {
    nodes = 0;
    transforms = 0;
    bound_calls = 0;
    pairs = 0;
    affected_pairs = 0;
    access_keys = 0;
    repeated_keys = 0;
  }

(* the §3.3.2 costing context of one relaxation, as Relax_check builds it *)
let context cat ~cbv ~old_config ~new_config tr :
    T.Cost_bound.context =
  {
    env' = O.Env.make cat new_config;
    old_env = O.Env.make cat old_config;
    removed_indexes = T.Transform.removed_indexes old_config tr;
    removed_views = T.Transform.removed_views tr;
    view_merge =
      (match tr with
      | T.Transform.Merge_views (a, b) ->
        Option.map (fun m -> (m, a, b)) (View.merge a b)
      | _ -> None);
    cbv;
    expands = T.Transform.adds_structures tr;
  }

let replay ledger cat ~protected ~(workload : Query.workload) parents =
  let selects = (T.Search.prepare workload).selects in
  let whatif = O.Whatif.create cat in
  let base_env = O.Env.make cat protected in
  let estimate_rows v = O.Cardinality.spjg base_env (View.definition v) in
  let cbv_memo = Hashtbl.create 16 in
  let cbv v =
    match Hashtbl.find_opt cbv_memo (View.name v) with
    | Some c -> c
    | None ->
      let sq = { Query.body = View.definition v; order_by = [] } in
      let c = (O.Optimizer.optimize cat protected sq).cost in
      Hashtbl.replace cbv_memo (View.name v) c;
      c
  in
  let seen_keys = Hashtbl.create 4096 in
  List.fold_left
    (fun st parent ->
      let plans =
        Ledger.with_span ledger "rank.plans" (fun () ->
            List.map
              (fun (qid, _, sq) ->
                (sq, O.Whatif.plan_select whatif parent ~qid sq))
              selects)
      in
      let transforms =
        Ledger.with_span ledger "rank.enumerate" (fun () ->
            T.Transform.enumerate ~protected parent)
      in
      let applied =
        Ledger.with_span ledger "rank.apply" (fun () ->
            List.filter_map
              (fun tr ->
                Option.map
                  (fun c -> (tr, c))
                  (T.Transform.apply ~estimate_rows parent tr))
              transforms)
      in
      Ledger.with_span ledger "rank.size" (fun () ->
          List.iter
            (fun (_, c) -> ignore (Config.total_bytes cat c : float))
            applied);
      Ledger.with_span ledger "rank.score" (fun () ->
          List.fold_left
            (fun st (tr, config') ->
              let ctx =
                context cat ~cbv ~old_config:parent
                  ~new_config:config' tr
              in
              List.fold_left
                (fun st ((sq : Query.select_query), plan) ->
                  let st = { st with pairs = st.pairs + 1 } in
                  if not (T.Cost_bound.plan_affected ctx plan) then st
                  else begin
                    let keys, repeats =
                      List.fold_left
                        (fun (k, r) (ai : O.Plan.access_info) ->
                          if not (T.Cost_bound.affected ctx ai) then (k, r)
                          else begin
                            let key =
                              O.Request.fingerprint ai.request
                              ^ "@"
                              ^ Config.fingerprint_for_tables config' [ ai.rel ]
                            in
                            let repeat = Hashtbl.mem seen_keys key in
                            if not repeat then Hashtbl.replace seen_keys key ();
                            (k + 1, if repeat then r + 1 else r)
                          end)
                        (0, 0) (O.Plan.accesses plan)
                    in
                    Ledger.time ledger "rank.bound_call" (fun () ->
                        ignore
                          (T.Cost_bound.query_bound ~order_by:sq.order_by ctx
                             plan
                            : float));
                    {
                      st with
                      bound_calls = st.bound_calls + 1;
                      affected_pairs = st.affected_pairs + 1;
                      access_keys = st.access_keys + keys;
                      repeated_keys = st.repeated_keys + repeats;
                    }
                  end)
                st plans)
            {
              st with
              nodes = st.nodes + 1;
              transforms = st.transforms + List.length transforms;
            }
            applied))
    empty parents
