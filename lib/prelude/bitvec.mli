(** Fixed-length bit vectors packed into [int64] words.

    Used for switching signatures (one bit per simulated cycle) and for the
    bit-flip correlation kernel of the pre-characterization step, where the
    paper's [|ss(g) & (ss(rs) << i)| / |ss(g)|] formula is evaluated with
    word-parallel AND + popcount. Bit [0] is the first cycle. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits. Raises [Invalid_argument]
    if [n < 0]. *)

val length : t -> int

val get : t -> int -> bool
(** Raises [Invalid_argument] on out-of-range index. *)

val set : t -> int -> bool -> unit

val copy : t -> t

val equal : t -> t -> bool

val popcount : t -> int
(** Number of set bits (the Hamming weight [|v|] of the paper). *)

val popcount_and : t -> t -> int
(** [popcount_and a b] is [popcount (logand a b)], without building the
    intersection. Raises [Invalid_argument] on length mismatch. *)

val logand : t -> t -> t
(** Bitwise AND. Raises [Invalid_argument] on length mismatch. *)

val shift_towards_zero : t -> int -> t
(** [shift_towards_zero v i] moves bit [j+i] of [v] to bit [j]; the top [i]
    bits become zero. This realizes the paper's [ss(rs) << i]: aligning the
    responding-signal switch at cycle [c + i] with the internal node's switch
    at cycle [c]. [i] must be [>= 0]. *)

val shift_away_from_zero : t -> int -> t
(** Inverse direction: bit [j] moves to bit [j+i]; bits shifted past the end
    are dropped. Used for fan-out-cone correlation where [i < 0] in the
    paper's convention. *)

val correlation : t -> t -> shift:int -> float
(** [correlation ss_g ss_rs ~shift] is the paper's
    [Corr_i(g, rs) = |ss(g) & (ss(rs) << i)| / |ss(g)|] with [i = shift]
    (negative [shift] uses {!shift_away_from_zero}). Returns [0.] when
    [ss(g)] has no set bits. *)

val of_string : string -> t
(** [of_string "01001101"] reads left-to-right: the leftmost character is
    bit 0 (the first cycle), matching the paper's figures. Raises
    [Invalid_argument] on characters other than ['0'] and ['1']. *)

val to_string : t -> string

val iter_set : t -> (int -> unit) -> unit
(** Iterate over the indices of set bits, in increasing order. *)

val count_range : t -> lo:int -> hi:int -> int
(** Number of set bits with index in [\[lo, hi)]. *)
