(** Deterministic trace/span identifiers for cross-process stitching.

    The campaign service stamps every shard lease with a trace id (one per
    campaign) and a span id (one per shard). Both are pure functions of
    the campaign fingerprint — {e never} drawn from the RNG substreams,
    so stamping cannot perturb the Monte Carlo estimate — and therefore
    stable across service restarts: the same campaign resumed from a
    checkpoint re-issues the same ids and the stitched trace stays
    coherent. *)

val trace_id : fingerprint:string -> string
(** 32 lowercase hex chars identifying the whole campaign. *)

val span_id : fingerprint:string -> shard:int -> string
(** 16 lowercase hex chars identifying one shard of the campaign.
    Raises [Invalid_argument] on a negative shard index. *)

val valid_trace_id : string -> bool
val valid_span_id : string -> bool
