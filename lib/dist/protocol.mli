(** Typed messages of the campaign service protocol and their
    (tag byte, payload) codec over {!Wire} frames.

    The protocol is versioned: a {!Hello} carrying any other {!version},
    or a campaign fingerprint the service does not hold, is answered
    with {!Reject} and the connection is closed. Every peer is built
    from this tree, so there is no negotiating down. Tally snapshots
    travel as verbatim [Ssf.Tally.to_string] blobs and quarantine
    entries as [Campaign.quarantine_entry_to_string] lines — the same
    serializers the durable checkpoint uses, so shard state is
    bit-exact across process boundaries. *)

open Fmc

val version : int
(** 5 since the result-audit digests (v2 introduced the CRC-framed wire
    format, v3 the multi-campaign scheduler messages, v4 the
    fleet-observability extensions). *)

val fingerprint_version : int
(** The version embedded in campaign fingerprints — still 3: v4/v5
    changed no per-sample semantics. *)

val accepts_version : int -> bool
(** Only {!version}: older Hellos get a terminal {!Reject}. *)

type spec = {
  sp_benchmark : string;
  sp_strategy : string;
  sp_samples : int;
  sp_seed : int;
  sp_shard_size : int;
  sp_sample_budget : int option;
  sp_fault_model : string;
      (** canonical fault-model string ({!Fmc_fault.Model.canonical}
          upstream) *)
}
(** The full identity of a campaign — what a {!Submit} enqueues and a
    {!Job} hands to a pool worker. Benchmark, strategy and model strings
    must not contain spaces (they never do; the codec would garble
    them). *)

type campaign_state = Queued | Running | Finished | Parked | Cancelled

type status_entry = {
  st_fingerprint : string;
  st_state : campaign_state;
  st_position : int;
      (** 0-based position in the scheduler's queue (0 = next to run, or
          currently leasing shards); -1 when not applicable *)
  st_queue_len : int;  (** total campaigns queued or running *)
  st_samples_done : int;
  st_samples_total : int;
  st_rate : float;  (** pool-wide throughput, samples/second *)
  st_eta_s : float;
      (** estimated seconds until this campaign's report is ready,
          counting the backlog ahead of it; negative when unknown (no
          throughput observed yet) *)
  st_detail : string;  (** human-readable note (park reason, ...) *)
}

type client_msg =
  | Hello of { version : int; worker : string; fingerprint : string }
      (** must be the first message on every connection; the scheduler
          accepts {!pool_fingerprint} for pool-worker and control
          connections *)
  | Request_shard
  | Heartbeat of { shard : int; epoch : int; samples_done : int }
      (** renews the lease; answered with {!Ack} — [accepted = false]
          means the lease was lost and the worker must abandon the
          shard *)
  | Shard_done of {
      shard : int;
      epoch : int;
      tally : string;  (** [Ssf.Tally.to_string] of the shard snapshot *)
      quarantined : Campaign.quarantine_entry list;
    }
  | Fetch_report
  | Goodbye
  | Submit of { spec : spec }
      (** enqueue a campaign; answered with {!Submitted} or
          {!Sched_rejected} *)
  | Status_req of { fingerprint : string }
      (** [""] asks for every campaign the scheduler knows; a concrete
          fingerprint for just that one (unknown → {!Reject}) *)
  | Cancel of { fingerprint : string }  (** answered with {!Ack} *)
  | Job_heartbeat of { fingerprint : string; shard : int; epoch : int; samples_done : int }
      (** pool-scope {!Heartbeat}: names the campaign the lease belongs
          to *)
  | Job_done of {
      fingerprint : string;
      shard : int;
      epoch : int;
      tally : string;
      quarantined : Campaign.quarantine_entry list;
    }  (** pool-scope {!Shard_done} *)

type server_msg =
  | Welcome of { version : int }
  | Assign of { shard : int; epoch : int; start : int; len : int }
  | No_work of { finished : bool }
      (** [finished]: the campaign is complete; otherwise every remaining
          shard is leased out — retry after a delay *)
  | Ack of { accepted : bool; reason : string }
  | Report of {
      shards : (int * string) list;
          (** [(shard id, tally blob)] in ascending shard order *)
      quarantined : Campaign.quarantine_entry list;
      elapsed_s : float;
    }
  | Reject of { reason : string }
      (** terminal at Hello (version or fingerprint mismatch,
          quarantined worker) — do not retry *)
  | Retry_later of { cooldown_s : float }
      (** transient refusal (the worker's circuit breaker is open):
          reconnect after at least [cooldown_s] seconds *)
  | Job of { spec : spec; shard : int; epoch : int; start : int; len : int }
      (** pool-scope {!Assign}: carries the campaign spec so the worker
          can build (or reuse) the right engine and sampler *)
  | Submitted of { fingerprint : string; position : int; cached : bool }
      (** the campaign is queued at [position] (0 = front), or [cached]:
          its report is already durable — fetch it for free *)
  | Sched_rejected of { retry_after_s : float; reason : string }
      (** typed admission-control refusal (queue full): resubmit after
          at least [retry_after_s] seconds *)
  | Status of { entries : status_entry list }
      (** answer to {!Status_req}, and to {!Fetch_report} for a campaign
          that is not finished (the entry carries queue position and
          ETA) *)

val fingerprint :
  ?fault_model:string ->
  strategy:string ->
  benchmark:string ->
  samples:int ->
  seed:int ->
  shard_size:int ->
  sample_budget:int option ->
  unit ->
  string
(** The campaign identity compared on {!Hello}: every parameter that
    must agree between service and worker for the shard results to
    be meaningful (the sample plan, the seed, and the evaluation knobs
    that change per-sample outcomes). Includes the protocol version.
    [fault_model] (canonical string, default ["disc-transient"]) is
    appended only when non-default, so default-model fingerprints stay
    byte-identical to pre-field peers while cross-model mismatches
    still fail the handshake's string equality. *)

val pool_fingerprint : string
(** ["*"] — the Hello scope of a connection that is not bound to one
    campaign: pool workers (leased shards from any queued campaign) and
    control clients (submit/status/cancel). *)

val spec_fingerprint : spec -> string
(** {!fingerprint} of a spec — the key campaigns are deduplicated and
    their reports cached under. *)

val spec_line : spec -> string
(** Single-line spec codec ([key=value] words), embedded in Submit and
    Job payloads and in the scheduler's WAL records. Emits 7 words
    ([model=] last). *)

val spec_of_line : string -> (spec, string) result
(** Inverse of {!spec_line}: exactly the 7-word form. *)

val state_token : campaign_state -> string
(** Wire word for a campaign state ([queued], [running], ...), also
    used verbatim in CLI status output. *)

val state_of_token : string -> campaign_state option

val encode_client : client_msg -> char * string

val decode_client : char -> string -> (client_msg, string) result
(** Payloads are {!Fmc_prelude.Record} text. Any malformed payload (an
    unknown tag, a missing or garbled line, a negative or short section
    count) is an [Error], never an exception; the service answers it
    with {!Reject} and charges the sender's circuit breaker. *)

val encode_server : server_msg -> char * string
val decode_server : char -> string -> (server_msg, string) result

(** {2 Extensions}

    Fleet-observability data (v4) and result digests (v5) ride as
    trailing payload sections carried out-of-band of the message
    variants: the plain codec above neither sees nor breaks on them,
    because every decoder in this module ignores the trailing lines it
    does not consume. *)

type extension = {
  ext_trace : (string * string) option;
      (** [(trace_id, span_id)] ({!Fmc_obs.Traceid}) stamped by the
          service on {!Assign}/{!Job} *)
  ext_telemetry : string option;
      (** encoded [Fmc_obs.Telemetry] blob attached by workers to
          {!Heartbeat}/{!Shard_done}/{!Job_heartbeat}/{!Job_done};
          opaque at this layer *)
  ext_digest : string option;
      (** v5: canonical result digest ([Fmc_audit.Check.result_digest])
          attached by workers to {!Shard_done}/{!Job_done}; the server
          recomputes and compares, treating a mismatch as a corrupt
          frame. Opaque at this layer. *)
}

val no_extension : extension

val encode_client_ext : ?ext:extension -> client_msg -> char * string
(** {!encode_client} plus any applicable extension sections. Fields
    that do not apply to the message type are silently dropped. *)

val decode_client_ext : char -> string -> (client_msg * extension, string) result
val encode_server_ext : ?ext:extension -> server_msg -> char * string
val decode_server_ext : char -> string -> (server_msg * extension, string) result
