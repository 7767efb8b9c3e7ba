(** Per-tune memo of the §3.3.2 access-path re-costing (see the
    interface for the key).  The key covers everything access-path
    selection reads that can change during a tune: the request, the
    relation's index set and, for a view, its row estimate.  The rest is
    fixed: base-table statistics, and a view's derived statistics, which
    the catalog registers once per view name. *)

module O = Relax_optimizer
module Index = Relax_physical.Index
module Config = Relax_physical.Config

(* A key with its hash, computed before the lock is taken: the critical
   section then only probes tables, comparing hashes before values. *)
module Hashed (H : Hashtbl.HashedType) = struct
  type t = { v : H.t; h : int }

  let make v = { v; h = H.hash v }
  let equal a b = Int.equal a.h b.h && H.equal a.v b.v
  let hash t = t.h
end

module Index_key = Hashed (struct
  type t = Index.t

  let equal = Index.equal
  let hash = Index.hash
end)

module Request_key = Hashed (O.Request)

(* the structures access-path selection sees on one relation *)
module Rel = struct
  type t = {
    rel : string;
    indexes : int array;  (** interned ids, in [Index.Set] order *)
    view_rows : int64 option;  (** bits of the view's row estimate *)
  }

  let equal a b =
    String.equal a.rel b.rel
    && Array.length a.indexes = Array.length b.indexes
    && Array.for_all2 Int.equal a.indexes b.indexes
    && Option.equal Int64.equal a.view_rows b.view_rows

  let hash t =
    Array.fold_left
      (fun h id -> (h * 31) + id)
      (Hashtbl.hash (t.rel, t.view_rows))
      t.indexes
end

module Index_tbl = Hashtbl.Make (Index_key)
module Request_tbl = Hashtbl.Make (Request_key)
module Rel_tbl = Hashtbl.Make (Rel)

type t = {
  lock : Mutex.t;  (** guards the five tables *)
  filled : Condition.t;  (** broadcast whenever a pending key resolves *)
  indexes : int Index_tbl.t;
  requests : int Request_tbl.t;
  rels : int Rel_tbl.t;
  costs : (int, float) Hashtbl.t;  (** keyed by {!key} *)
  pending : (int, unit) Hashtbl.t;
      (** keys another domain is computing: callers wait on [filled]
          rather than compute them twice, so every key is computed exactly
          once and the counters do not depend on the parallelism *)
}

let create () =
  {
    lock = Mutex.create ();
    filled = Condition.create ();
    indexes = Index_tbl.create 256;
    requests = Request_tbl.create 256;
    rels = Rel_tbl.create 256;
    costs = Hashtbl.create 1024;
    pending = Hashtbl.create 16;
  }

(* one int per (request, relation) pair, so an entry is a bucket and a
   boxed float; ints have 63 bits, so both ids fit below 2^31 *)
let key ~req_id ~rel_id =
  if rel_id >= 1 lsl 31 then invalid_arg "Bound_memo: relation ids exhausted";
  (req_id lsl 31) lor rel_id

let intern find add length tbl x =
  match find tbl x with
  | Some id -> id
  | None ->
    let id = length tbl in
    add tbl x id;
    id

(* Under [t.lock]: the cached cost, or [None] after claiming the key.  The
   arguments are already hashed, so this only probes tables. *)
let claim t req indexes ~rel ~view_rows =
  let rel =
    {
      Rel.rel;
      indexes =
        Array.map
          (intern Index_tbl.find_opt Index_tbl.add Index_tbl.length t.indexes)
          indexes;
      view_rows;
    }
  in
  let key =
    key
      ~req_id:
        (intern Request_tbl.find_opt Request_tbl.add Request_tbl.length
           t.requests req)
      ~rel_id:(intern Rel_tbl.find_opt Rel_tbl.add Rel_tbl.length t.rels rel)
  in
  let rec await () =
    match Hashtbl.find_opt t.costs key with
    | Some c -> Some c
    | None when Hashtbl.mem t.pending key ->
      Condition.wait t.filled t.lock;
      await ()
    | None ->
      Hashtbl.replace t.pending key ();
      None
  in
  (key, await ())

let resolve t key cost =
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.pending key;
      Option.iter (Hashtbl.replace t.costs key) cost;
      Condition.broadcast t.filled)

let best_cost t (env : O.Env.t) (r : O.Request.t) =
  let req = Request_key.make r in
  let indexes =
    Array.of_list (List.map Index_key.make (O.Env.indexes_on env r.rel))
  in
  let view_rows =
    Option.map
      (fun (_, rows) -> Int64.bits_of_float rows)
      (Config.find_view env.config r.rel)
  in
  match
    Mutex.protect t.lock (fun () ->
        claim t req indexes ~rel:r.rel ~view_rows)
  with
  | _, Some c ->
    Relax_obs.Probe.count "rank.bound_memo.hits";
    c
  | key, None -> (
    Relax_obs.Probe.count "rank.bound_memo.misses";
    match (O.Access_path.best env r).O.Plan.cost with
    | c ->
      resolve t key (Some c);
      c
    | exception e ->
      (* release the claim so no waiter blocks on it forever *)
      resolve t key None;
      raise e)
