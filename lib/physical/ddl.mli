(** DDL rendering of physical designs: the CREATE INDEX /
    CREATE MATERIALIZED VIEW script a DBA would deploy.  Suffix columns
    render as [INCLUDE (...)]; clustered indexes carry [CLUSTERED]. *)

val pp_index : Format.formatter -> Index.t -> unit

val pp_config : Format.formatter -> Config.t -> unit
(** The full deployment script: views first, then indexes. *)

val to_string : Config.t -> string

val pp_drop : Format.formatter -> Config.t -> unit
(** The tear-down script. *)

(** The DDL difference between a deployed configuration and a target one:
    what a continuous tuner actually ships on each re-tune. *)
type delta = {
  create_views : View.t list;
  create_indexes : Index.t list;
  drop_indexes : Index.t list;
  drop_views : View.t list;
}

val delta : deployed:Config.t -> target:Config.t -> delta
val delta_is_empty : delta -> bool

val delta_cardinal : delta -> int
(** Number of DDL statements the delta would execute. *)

val delta_to_string : delta -> string
(** Executable top to bottom: created views before their indexes, dropped
    indexes before their views.  Drops identify indexes by their
    content-derived names. *)
