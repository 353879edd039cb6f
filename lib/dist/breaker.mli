(** Per-worker circuit breaker (DESIGN.md §11).

    Classic three-state breaker over an injected clock, like {!Lease}:
    [Closed] (healthy) counts consecutive failures; reaching the
    threshold trips to [Open] for a cooldown window during which every
    {!allow} is refused; after the cooldown the breaker is [Half_open]
    and admits a single probe — a success closes it, a failure re-opens
    it for a fresh cooldown. Pure state over [now] parameters so the
    transition logic is unit-testable without timers; thread safety is
    the caller's job (the service holds its mutex around calls). *)

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  cooldown_s : float;  (** how long an open breaker refuses connections *)
}

val default_config : config
(** 5 consecutive failures, 10 s cooldown. *)

type state = Closed | Open | Half_open

type t

val create : config -> t
(** Raises [Invalid_argument] on a non-positive threshold or cooldown. *)

val state : t -> now:float -> state
(** Current state; an [Open] breaker whose cooldown has elapsed reports
    (and becomes) [Half_open]. *)

val allow : t -> now:float -> bool
(** May this worker be served? [Closed]: always. [Open]: no, until the
    cooldown elapses. [Half_open]: yes for the first caller (the probe),
    no for the rest until the probe resolves. *)

val record_failure : t -> now:float -> unit
(** A protocol error, corrupt frame, or heartbeat-gap lease expiry
    attributed to this worker. May trip [Closed -> Open] or
    [Half_open -> Open]. *)

val record_success : t -> now:float -> unit
(** A well-formed, accepted interaction (valid heartbeat, accepted shard
    completion). Resets the consecutive-failure count; a [Half_open]
    probe success closes the breaker. *)

val trip : t -> now:float -> unit
(** Force the breaker open immediately, regardless of the consecutive
    failure count — the audit quarantine path, where one proven lie
    outweighs any success history. The cooldown still applies; callers
    that quarantine permanently must also track the worker themselves
    (the service's quarantined-workers set). *)

val cooldown_remaining : t -> now:float -> float
(** Seconds until an [Open] breaker admits a probe; 0 otherwise. The
    number the service puts in [Retry_later]. *)

val trips : t -> int
(** Times this breaker has transitioned to [Open] over its lifetime. *)
