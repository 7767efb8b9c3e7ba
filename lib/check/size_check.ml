(** Differential size oracle (see the interface). *)

module Catalog = Relax_catalog.Catalog
module Config = Relax_physical.Config
module Index = Relax_physical.Index
module Size_model = Relax_physical.Size_model
module Data = Relax_engine.Data
module Eval = Relax_engine.Eval

type result = {
  structure : string;
  predicted : float;
  simulated : float;
  measured_rows : float option;
  rel_err : float;
}

(* Entries fitting one page, found by adding entries until the page
   overflows — no division, so a floor-vs-round bug in the closed form
   cannot be replicated here. *)
let page_capacity p ~entry_width =
  let usable =
    (p.Size_model.page_size -. p.Size_model.page_overhead)
    *. p.Size_model.fill_factor
  in
  let entry_width = Float.max 1.0 entry_width in
  let rec fill n used =
    if used +. entry_width > usable then n
    else fill (n + 1) (used +. entry_width)
  in
  max 1 (fill 0 0.0)

(* ceil(n / cap) in integer arithmetic *)
let pages_for n cap = (n + cap - 1) / cap

let simulate_btree_pages ?(params = Size_model.default_params) ~rows
    ~leaf_width ~key_width () =
  let entries = int_of_float (Float.ceil (Float.max 1.0 rows)) in
  let lcap = page_capacity params ~entry_width:leaf_width in
  let icap =
    (* fan-out below 2 cannot form a tree; the model clamps identically *)
    max 2
      (page_capacity params
         ~entry_width:(key_width +. params.pointer_width))
  in
  let leaves = pages_for entries lcap in
  let rec levels total s =
    if s <= 1 then total
    else
      let s' = pages_for s icap in
      levels (total + s') s'
  in
  float_of_int (levels leaves leaves)

(* Index widths re-derived from the definition: keys sum to the internal
   entry width; leaves carry keys + suffix + rid, or the whole row when
   clustered.  Deliberately not shared with [Size_model.index_widths]. *)
let simulate_index_bytes ?(params = Size_model.default_params) catalog config
    ~rows (i : Index.t) =
  let width_of c = Config.column_width catalog config c in
  let key_width =
    List.fold_left (fun acc c -> acc +. width_of c) 0.0 i.keys
  in
  let leaf_width =
    if i.clustered then
      Float.max key_width
        (Config.relation_row_width catalog config (Index.owner i))
    else
      Relax_sql.Types.Column_set.fold
        (fun c acc -> acc +. width_of c)
        i.suffix key_width
      +. params.rid_width
  in
  simulate_btree_pages ~params ~rows ~leaf_width ~key_width ()
  *. params.page_size

let check_index ?(params = Size_model.default_params) ?rows catalog config
    (i : Index.t) =
  let owner = Index.owner i in
  let config_rows = Config.relation_rows catalog config owner in
  let sim_rows = Option.value rows ~default:config_rows in
  let predicted = Config.index_bytes catalog config i in
  let simulated = simulate_index_bytes ~params catalog config ~rows:sim_rows i in
  {
    structure = Index.name i;
    predicted;
    simulated;
    measured_rows = rows;
    rel_err = Float.abs (predicted -. simulated) /. Float.max 1.0 predicted;
  }

let measured_rows (db : Data.t) config ~sample name =
  let cat = db.Data.catalog in
  let small t = Catalog.rows cat t <= float_of_int sample in
  if Catalog.mem_table cat name then begin
    if small name then
      Some (float_of_int (Data.row_count (Data.relation db name)))
    else None
  end
  else
    match Config.find_view config name with
    | Some (view, _)
      when List.for_all small (Relax_physical.View.base_tables view) ->
      Some (float_of_int (Data.row_count (Eval.materialize_view db view)))
    | _ -> None
