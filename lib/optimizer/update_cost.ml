(** Maintenance costs of physical structures under update statements
    (§3.6).

    Each update statement is split into a pure select component (costed by
    the regular optimizer) and an "update shell" whose cost is the sum of
    per-structure maintenance charges: an index on the updated table is
    charged when the statement touches any of its columns (always, for
    inserts and deletes); an index over a view is charged whenever the view
    reads the updated table, with a multiplier reflecting delta
    computation. *)

open Relax_sql.Types
module Query = Relax_sql.Query
module Index = Relax_physical.Index
module View = Relax_physical.View
module Config = Relax_physical.Config
module Size_model = Relax_physical.Size_model
module P = Cost_params

let view_delta_factor = 2.0
(* maintaining a view index costs about this multiple of a base index: the
   delta rows must be computed by (partially) re-evaluating the view *)

(** Estimated number of rows an update statement touches. *)
let affected_rows env (d : Query.dml) =
  match d with
  | Insert i -> float_of_int i.rows
  | Update { table; ranges; others; _ } | Delete { table; ranges; others } ->
    Float.max 1.0 (Env.rows env table *. Selectivity.local env ~ranges ~others)

(* Touching [k] entries of an index: descend once per modified row (cheap,
   cached upper levels -> charge a fraction of a random page) plus a leaf
   write, capped by the number of leaf pages. *)
let per_index env ~k (i : Index.t) =
  let rel = Index.owner i in
  let rows = Env.rows env rel in
  let leaf =
    Size_model.leaf_pages ~rows ~width_of:(Env.width_of env)
      ~row_width:(Env.row_width env rel) i
  in
  let touched_pages = Float.min k (2.0 *. leaf) in
  (touched_pages *. P.rand_page *. 0.5) +. (k *. P.cpu_tuple)

(** Does the statement force maintenance of this base-table index? *)
let index_affected (d : Query.dml) (i : Index.t) =
  Index.owner i = Query.dml_table d
  &&
  match d with
  | Insert _ | Delete _ -> true
  | Update _ as u ->
    let updated = Query.updated_columns u in
    not (Column_set.is_empty (Column_set.inter updated (Index.columns i)))
    || i.clustered (* clustered leaves are the rows: any update rewrites them *)

(** Does the statement force maintenance of this view? *)
let view_affected (d : Query.dml) (v : View.t) =
  let table = Query.dml_table d in
  List.mem table (View.base_tables v)
  &&
  match d with
  | Insert _ | Delete _ -> true
  | Update _ as u ->
    let updated = Query.updated_columns u in
    let vcols = Query.spjg_columns (View.definition v) in
    not (Column_set.is_empty (Column_set.inter updated vcols))

(* the base-relation write itself: always paid, config-independent but for
   the relation's [pages] (its heap, or its clustered leaves) *)
let base_write ~k ~pages =
  (Float.min k (2.0 *. pages) *. P.rand_page *. 0.5) +. (k *. P.cpu_tuple)

(* a view's delta charge, given the summed charges [per] of its indexes *)
let view_charge ~k per = view_delta_factor *. Float.max (k *. P.cpu_tuple) per

(** Total maintenance cost of the configuration for one update statement:
    the "update shell" cost of §3.6. *)
let shell_cost env (config : Config.t) (d : Query.dml) =
  let k = affected_rows env d in
  let base =
    base_write ~k ~pages:(Env.table_pages env (Query.dml_table d))
  in
  let index_cost =
    List.fold_left
      (fun acc i ->
        if index_affected d i then acc +. per_index env ~k i else acc)
      0.0
      (Config.indexes config)
  in
  let view_cost =
    List.fold_left
      (fun acc v ->
        if view_affected d v then begin
          let vindexes = Config.indexes_on config (View.name v) in
          let per =
            List.fold_left (fun acc i -> acc +. per_index env ~k i) 0.0 vindexes
          in
          acc +. view_charge ~k per
        end
        else acc)
      0.0 (Config.views config)
  in
  base +. index_cost +. view_cost

(* ------------------------------------------------------------------ *)
(* the per-tune charge table                                           *)
(* ------------------------------------------------------------------ *)

module Charges = struct
  module Index_tbl = Hashtbl.Make (struct
    type t = Index.t

    let equal = Index.equal
    let hash = Index.hash
  end)

  (* One index's charges under every DML, for one row estimate of its
     owner.  Everything [per_index] reads is fixed by the index and that
     estimate: a base table's rows and widths come from the catalog, a
     view's widths from its definition (its name) and its rows from the
     configuration — hence [view_rows] in the key. *)
  type entry = {
    owner : string;
    view_rows : float option;
        (** the owner view's row estimate; [None] on a base table *)
    term : float array;
        (** per DML: the index term, 0 when the DML does not touch it *)
    per : float array;
        (** per DML: the index's share of its view's term; empty on a
            base table *)
    base : float array;
        (** per DML on [owner]: the base-relation write when the index
            clusters [owner]; empty unless it is clustered on a DML's
            table *)
  }

  type t = {
    catalog : Relax_catalog.Catalog.t;
    dmls : (float * Query.dml) array;
    tables : string array;  (** per DML: the updated table *)
    k : float array;  (** per DML: {!affected_rows}, config-independent *)
    heap : float array;  (** per DML: the base write on a heap table *)
    indexes : entry list Index_tbl.t;  (** one entry per row estimate *)
    views : (string, bool array) Hashtbl.t;
        (** view name → per DML: {!view_affected} *)
  }

  let create catalog dmls =
    let dmls = Array.of_list dmls in
    let env = Env.make catalog Config.empty in
    let tables = Array.map (fun (_, d) -> Query.dml_table d) dmls in
    let k = Array.map (fun (_, d) -> affected_rows env d) dmls in
    {
      catalog;
      dmls;
      tables;
      k;
      heap =
        Array.mapi
          (fun j table ->
            base_write ~k:k.(j) ~pages:(Env.table_pages env table))
          tables;
      indexes = Index_tbl.create 256;
      views = Hashtbl.create 16;
    }

  let same_bits a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  (* does an entry's [view_rows] match the owner view [Config.find_view]
     returned? *)
  let same_rows rows view =
    match (rows, view) with
    | None, None -> true
    | Some a, Some (_, b) -> same_bits a b
    | _ -> false

  let rec pick view = function
    | [] -> raise Not_found
    | e :: l -> if same_rows e.view_rows view then e else pick view l

  (* the entry of [i] under the owner row estimate [view];
     @raise Not_found if it was never computed *)
  let find t i view = pick view (Index_tbl.find t.indexes i)

  let compute t env (i : Index.t) view =
    let owner = Index.owner i in
    let base =
      if i.clustered && Array.exists (String.equal owner) t.tables then begin
        (* [owner]'s pages with exactly [i] clustering it *)
        let pages =
          Env.table_pages (Env.make t.catalog (Config.of_indexes [ i ])) owner
        in
        Array.mapi
          (fun j k ->
            if String.equal owner t.tables.(j) then base_write ~k ~pages
            else 0.0)
          t.k
      end
      else [||]
    in
    {
      owner;
      view_rows = Option.map snd view;
      term =
        Array.mapi
          (fun j (_, d) ->
            if index_affected d i then per_index env ~k:t.k.(j) i else 0.0)
          t.dmls;
      per =
        (match view with
        | None -> [||]
        | Some _ -> Array.map (fun k -> per_index env ~k i) t.k);
      base;
    }

  let fill ?since t config =
    if Array.length t.dmls > 0 then begin
      let views =
        match since with
        | None -> Config.views_with_rows config
        | Some old ->
          List.filter
            (fun (v, rows) ->
              match Config.find_view old (View.name v) with
              | Some (_, r) -> not (same_bits r rows)
              | None -> true)
            (Config.views_with_rows config)
      in
      let fresh i =
        match since with
        | None -> true
        | Some old ->
          (not (Config.mem_index old i))
          || (views <> []
             && List.exists
                  (fun (v, _) -> String.equal (View.name v) (Index.owner i))
                  views)
      in
      let env = lazy (Env.make t.catalog config) in
      let hits = ref 0 and misses = ref 0 in
      Index.Set.iter
        (fun i ->
          if fresh i then begin
            let view = Config.find_view config (Index.owner i) in
            match find t i view with
            | _ -> incr hits
            | exception Not_found ->
              incr misses;
              let l =
                Option.value ~default:[] (Index_tbl.find_opt t.indexes i)
              in
              Index_tbl.replace t.indexes i
                (compute t (Lazy.force env) i view :: l)
          end)
        (Config.index_set config);
      List.iter
        (fun (v, _) ->
          let name = View.name v in
          if Hashtbl.mem t.views name then incr hits
          else begin
            incr misses;
            Hashtbl.replace t.views name
              (Array.map (fun (_, d) -> view_affected d v) t.dmls)
          end)
        views;
      Relax_obs.Probe.count_n "rank.shell_memo.hits" !hits;
      Relax_obs.Probe.count_n "rank.shell_memo.misses" !misses
    end

  let missing what =
    invalid_arg ("Update_cost.Charges.total: unfilled charge of " ^ what)

  let no_entry =
    { owner = ""; view_rows = None; term = [||]; per = [||]; base = [||] }

  let total t config =
    let ndml = Array.length t.dmls in
    if ndml = 0 then 0.0
    else begin
      let indexes = Config.index_set config in
      (* the charges of [config]'s indexes, in set order *)
      let entries = Array.make (Index.Set.cardinal indexes) no_entry in
      let x = ref 0 in
      Index.Set.iter
        (fun i ->
          (match find t i (Config.find_view config (Index.owner i)) with
          | e -> entries.(!x) <- e
          | exception Not_found -> missing (Index.name i));
          incr x)
        indexes;
      (* per view, in name order: its flags and its indexes' [per] charges
         in set order, the order [Config.indexes_on] lists them *)
      let views =
        Array.of_list
          (List.map
             (fun v ->
               let name = View.name v in
               let flags =
                 match Hashtbl.find t.views name with
                 | flags -> flags
                 | exception Not_found -> missing name
               in
               let on_view e = String.equal e.owner name in
               let pers =
                 Array.make
                   (Array.fold_left
                      (fun n e -> if on_view e then n + 1 else n)
                      0 entries)
                   [||]
               in
               let y = ref 0 in
               Array.iter
                 (fun e ->
                   if on_view e then begin
                     pers.(!y) <- e.per;
                     incr y
                   end)
                 entries;
               (flags, pers))
             (Config.views config))
      in
      (* the fold of [shell_cost], term by term, in its order *)
      let acc = ref 0.0 in
      for j = 0 to ndml - 1 do
        let w, _ = t.dmls.(j) in
        let table = t.tables.(j) in
        let base = ref t.heap.(j) and index_cost = ref 0.0 in
        for x = 0 to Array.length entries - 1 do
          let e = entries.(x) in
          index_cost := !index_cost +. e.term.(j);
          (* [Config.clustered_on]: the last clustered index on [table] *)
          if Array.length e.base > 0 && String.equal e.owner table then
            base := e.base.(j)
        done;
        let view_cost = ref 0.0 in
        for y = 0 to Array.length views - 1 do
          let flags, pers = views.(y) in
          if flags.(j) then begin
            let per = ref 0.0 in
            for z = 0 to Array.length pers - 1 do
              per := !per +. pers.(z).(j)
            done;
            view_cost := !view_cost +. view_charge ~k:t.k.(j) !per
          end
        done;
        acc := !acc +. (w *. (!base +. !index_cost +. !view_cost))
      done;
      !acc
    end
end
