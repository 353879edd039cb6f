(** Fleet-level telemetry store — the receiving half of the v4 telemetry
    piggyback ({!Telemetry}).

    The campaign service absorbs each worker's batches as they
    arrive on heartbeat and shard-result messages: the latest metrics
    snapshot replaces the previous one (snapshots are cumulative), span
    summaries accumulate (bounded per worker, oldest dropped), and every
    span timestamp is rebased onto this process's monotonic timeline
    using the batch's wall-clock anchor. Thread-safe: handler threads
    absorb while the HTTP scrape thread reads. *)

type t

type worker_info = {
  wi_last_wall : float;  (** wall clock of the last absorbed batch *)
  wi_span_count : int;  (** spans ever absorbed (incl. dropped) *)
  wi_trace_id : string;
  wi_snapshot : Metrics.snapshot;  (** latest; [[]] before the first *)
}

val create : ?max_spans:int -> unit -> t
(** [max_spans] (default 8192) bounds the retained span summaries per
    worker. Raises [Invalid_argument] when non-positive. *)

val absorb : t -> worker:string -> Telemetry.t -> unit

val merged_snapshot : t -> base:Metrics.snapshot -> Metrics.snapshot
(** [base] (the local registry) merged with every worker's latest
    snapshot — what [/metrics] serves. A worker snapshot that cannot
    merge (kind/bucket clash) is skipped, never fatal. *)

val workers : t -> (string * worker_info) list
(** Sorted by worker name. *)

val span_count : t -> int
(** Retained span summaries across all workers. *)

val trace_id : t -> string
(** First nonempty campaign trace id seen, or [""]. *)

val to_chrome_json : ?own_label:string -> ?own_events:Span.event list -> t -> string
(** The stitched fleet trace: Chrome trace_event JSON with [own_events]
    (this process's tracer, default label ["service"]) on pid 1 and
    each worker on its own pid with a [process_name] metadata record —
    distinct tracks in Perfetto. Worker span args carry the trace/span
    ids when stamped. *)
