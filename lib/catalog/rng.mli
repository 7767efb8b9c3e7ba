(** Deterministic splitmix64 random number generator.  Every stochastic
    component (histogram sampling, workload generation) threads an explicit
    generator seeded by the caller, so runs are reproducible. *)

type t

val create : int -> t

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t n]: uniform in [0, n).  @raise Invalid_argument if [n <= 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi]: uniform in [lo, hi] inclusive. *)

val float_range : t -> float -> float -> float
(** Uniform in [lo, hi). *)

val bernoulli : t -> float -> bool
(** True with the given probability. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list.  @raise Invalid_argument on []. *)

val sample : t -> int -> 'a list -> 'a list
(** A uniform random subset of size [min k (length l)]. *)

val shuffle : t -> 'a list -> 'a list

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller. *)

val zipf : t -> n:int -> skew:float -> int
(** Zipf-distributed rank in [1, n]. *)

val split : t -> t
(** Derive an independent generator without disturbing the parent. *)
