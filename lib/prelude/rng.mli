(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every stochastic component of the framework (attack-parameter sampling,
    synthetic workload generation, placement jitter) draws from an explicit
    [Rng.t], so whole experiments replay bit-identically from a seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val split : t -> t
(** [split t] returns a statistically independent generator and advances [t].
    Use one split per subsystem so adding draws in one place does not perturb
    another. *)

val copy : t -> t

val substream : seed:int64 -> shard:int -> t
(** [substream ~seed ~shard] is the deterministic generator of shard
    [shard] of campaign [seed]: shard start states are spaced along a
    second Weyl sequence and mix64-scrambled, so the per-shard streams are
    pairwise disjoint with overwhelming probability over any realistic
    draw count. A distributed campaign gives each contiguous sample-index
    shard its own substream; which process evaluates the shard (or how
    often a lease is re-issued) cannot change the draws. Raises
    [Invalid_argument] on a negative [shard]. *)

val state : t -> int64
(** The full generator state (SplitMix64 carries a single 64-bit word).
    Together with {!of_state} this makes the stream durably snapshottable:
    persisting the state and restoring it later continues the exact same
    draw sequence. *)

val of_state : int64 -> t
(** Rebuild a generator from a {!state} snapshot. Unlike {!create}, the
    value is used verbatim (no seed mixing). *)

val set_state : t -> int64 -> unit
(** Rewind (or advance) this generator in place to a {!state} snapshot:
    afterwards it draws exactly what [of_state] of the snapshot would. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)
