(** Elementary distributions of the holistic fault-injection model
    (paper §3.2).

    The attack parameters — timing distance [T] and technique parameters
    [P = \[g, r\]] — are random variables. Temporal accuracy and
    cycle-to-cycle technique variation are expressed by the spread of these
    distributions; Fig. 11 of the paper sweeps them from wide uniform to a
    delta. *)

type int_dist =
  | Uniform_int of int * int  (** inclusive bounds *)
  | Delta_int of int
  | Discrete of int array * float array  (** values, weights *)

type float_dist = Uniform_float of float * float  (** \[lo, hi); lo when degenerate *)

val sample_int : int_dist -> Fmc_prelude.Rng.t -> int
val pmf_int : int_dist -> int -> float
(** Probability of a value (0 outside the support). *)

val support_int : int_dist -> int list

val sample_float : float_dist -> Fmc_prelude.Rng.t -> float

val validate_int : int_dist -> unit
(** Raises [Invalid_argument] on an empty/ill-formed distribution. *)

val validate_float : float_dist -> unit
(** Raises [Invalid_argument] unless both bounds are finite and [lo <= hi]. *)
