(** Physical indexes.

    Following the paper's assumptions, an index [I = (K; S)] consists of a
    sequence of key columns [K] optionally followed by a set of suffix
    columns [S].  Suffix columns are not present at internal B-tree nodes and
    cannot be sought, but make the index covering for queries that reference
    them.  An index may be clustered, in which case its leaves are the table
    rows themselves (every column of the owning table is implicitly
    covered).

    This module also implements the structural index algebra of §3.1.1 —
    merging, splitting, prefixing — as pure operations; how they are used to
    relax configurations lives in the tuner. *)

open Relax_sql.Types

type t = {
  keys : column list;  (** K: ordered key columns, non-empty *)
  suffix : Column_set.t;  (** S: unordered suffix columns, disjoint from K *)
  clustered : bool;
}

let owner t = (List.hd t.keys).tbl

let make ?(clustered = false) ~keys ~suffix () =
  if keys = [] then invalid_arg "Index.make: empty key sequence";
  let tbl = (List.hd keys).tbl in
  List.iter
    (fun (c : column) ->
      if c.tbl <> tbl then
        invalid_arg "Index.make: key columns span multiple tables")
    keys;
  Column_set.iter
    (fun c ->
      if c.tbl <> tbl then
        invalid_arg "Index.make: suffix columns span multiple tables")
    suffix;
  let key_set = Column_set.of_list keys in
  if List.length keys <> Column_set.cardinal key_set then
    invalid_arg "Index.make: duplicate key column";
  { keys; suffix = Column_set.diff suffix key_set; clustered }

(** Convenience: build from column names on one table. *)
let on table ?(clustered = false) ?(suffix = []) keys =
  make ~clustered
    ~keys:(List.map (Column.make table) keys)
    ~suffix:(Column_set.of_list (List.map (Column.make table) suffix))
    ()

(** All columns materialized in the index (keys plus suffix). *)
let columns t =
  List.fold_left (fun acc c -> Column_set.add c acc) t.suffix t.keys

(* configurations share their index values, so set operations across
   them mostly compare an index with itself *)
let compare a b =
  if a == b then 0
  else
    match List.compare Column.compare a.keys b.keys with
    | 0 -> (
      match Column_set.compare a.suffix b.suffix with
      | 0 -> Bool.compare a.clustered b.clustered
      | c -> c)
    | c -> c

let equal a b = compare a b = 0

(* the suffix is a set, a tree whose shape depends on insertion order:
   hash its elements in order, not its tree *)
let hash t =
  Column_set.fold
    (fun c h -> (h * 31) + Hashtbl.hash c)
    t.suffix
    ((Hashtbl.hash t.keys * 2) + Bool.to_int t.clustered)

let name t =
  Fmt.str "%s[%s](%s%s%s)"
    (if t.clustered then "cx" else "ix")
    (owner t)
    (String.concat "," (List.map (fun (c : column) -> c.col) t.keys))
    (if Column_set.is_empty t.suffix then "" else ";")
    (String.concat ","
       (List.map (fun (c : column) -> c.col) (Column_set.elements t.suffix)))

let pp ppf t = Fmt.string ppf (name t)

(* --- ordered sequence helpers (the paper's S1 ∩ S2 / S1 − S2 on
   sequences keep the order of the first operand) ------------------------- *)

let seq_inter s1 s2 =
  let set2 = Column_set.of_list s2 in
  List.filter (fun c -> Column_set.mem c set2) s1

let seq_diff s1 s2 =
  let set2 = Column_set.of_list s2 in
  List.filter (fun c -> not (Column_set.mem c set2)) s1

let is_prefix ~prefix l =
  let rec go p l =
    match (p, l) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: l' -> Column.equal x y && go p' l'
  in
  go prefix l

(* --- §3.1.1 transformations ---------------------------------------------- *)

(** Ordered merging of two indexes on the same table: the best index that
    answers all requests either input does, seekable wherever [i1] was.
    [merge i1 i2 = (K1; (S1 ∪ K2 ∪ S2) − K1)], or [(K2; (S1 ∪ S2) − K2)]
    when [K1] is a prefix of [K2]. *)
let merge i1 i2 =
  if owner i1 <> owner i2 then invalid_arg "Index.merge: different tables";
  let clustered = i1.clustered || i2.clustered in
  if is_prefix ~prefix:i1.keys i2.keys then
    make ~clustered ~keys:i2.keys
      ~suffix:(Column_set.union i1.suffix i2.suffix)
      ()
  else
    make ~clustered ~keys:i1.keys
      ~suffix:
        (Column_set.union i1.suffix
           (Column_set.union (Column_set.of_list i2.keys) i2.suffix))
      ()

(** Splitting two indexes into a common index and up to two residuals,
    enabling suboptimal index-intersection plans (§3.1.1).  Returns [None]
    when the key sequences share no columns (split undefined). *)
let split i1 i2 :
    (t * t option * t option) option =
  if owner i1 <> owner i2 then invalid_arg "Index.split: different tables";
  let kc = seq_inter i1.keys i2.keys in
  if kc = [] then None
  else begin
    let sc = Column_set.inter i1.suffix i2.suffix in
    let ic = make ~keys:kc ~suffix:sc () in
    let ic_cols = columns ic in
    let residual (i : t) =
      if i.keys = kc then None
      else begin
        let leftover = Column_set.diff (columns i) ic_cols in
        let keys = seq_diff i.keys kc in
        match (keys, Column_set.is_empty leftover) with
        | [], true -> None
        | [], false ->
          (* same key set in a different order: the common index already
             covers these columns, no residual is needed *)
          None
        | keys, _ ->
          let suffix = Column_set.diff leftover (Column_set.of_list keys) in
          Some (make ~keys ~suffix ())
      end
    in
    Some (ic, residual i1, residual i2)
  end

(** All prefixes usable by the prefixing transformation: every proper key
    prefix, plus the full key sequence when a suffix would be dropped.  The
    results carry no suffix columns. *)
let prefixes t =
  let rec go acc rev_prefix = function
    | [] -> acc
    | k :: rest ->
      let p = List.rev (k :: rev_prefix) in
      let acc =
        if rest = [] then
          (* full K: only a new index if it drops something *)
          if Column_set.is_empty t.suffix && not t.clustered then acc
          else make ~keys:p ~suffix:Column_set.empty () :: acc
        else make ~keys:p ~suffix:Column_set.empty () :: acc
      in
      go acc (k :: rev_prefix) rest
  in
  List.rev (go [] [] t.keys)

(** Promotion to clustered (§3.1.1). *)
let promote t = { t with clustered = true }

(** Drop the clustered flag (used to keep the one-clustered-per-relation
    invariant when promoting or merging). *)
let demote t = { t with clustered = false }

(** Can [t] answer every request that [sub] answers with at most extra rid
    lookups?  True when [sub]'s keys are a prefix-permutation...  we use the
    conservative check the merge definition guarantees: [t]'s columns
    include [sub]'s columns. *)
let covers_columns t ~of_:sub = Column_set.subset (columns sub) (columns t)

module Ordered = struct
  type nonrec t = t

  let compare = compare
end

module Set = struct
  include Stdlib.Set.Make (Ordered)
end
