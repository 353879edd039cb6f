(** Shard lease table with epoch fencing (DESIGN.md §10).

    State machine per shard: [Unleased -> Leased -> Done], with
    [Leased -> Unleased] on expiry. Each (re-)assignment bumps the
    shard's epoch, and {!complete} only accepts the currently-leased
    epoch — a completion from an expired lease returns [`Stale] and is
    discarded, so exactly one result per shard ever enters the merge.

    Time is injected ([now] parameters, same clock everywhere), making
    the fencing logic deterministic under test. Not thread-safe: the
    service serializes access under its state mutex. *)

type assignment = { shard : int; epoch : int; start : int; len : int }

type t

val create : plan:(int * int) array -> ttl:float -> t
(** [plan] is [Ssf.shard_plan]'s [(start, len)] array; [ttl] the
    heartbeat deadline in the [now] clock's units. Raises
    [Invalid_argument] on an empty plan or non-positive ttl. *)

val acquire : t -> now:float -> worker:string -> [ `Assign of assignment | `Finished | `Wait ]
(** Lease the first available shard. Overdue leases are not expired
    here: call {!sweep_expired} first. [`Wait]: nothing available but
    the campaign is unfinished — every remaining shard is in flight. *)

val heartbeat : t -> now:float -> shard:int -> epoch:int -> [ `Ok | `Stale ]
(** Extend a live lease's deadline to [now + ttl]. [`Stale] means the
    lease was lost (expired and possibly re-issued) — the worker must
    abandon the shard. *)

val complete : t -> shard:int -> epoch:int -> [ `Accepted | `Duplicate | `Stale | `Unknown ]
(** Record a shard result. [`Accepted] exactly once per shard;
    [`Duplicate] for a re-delivery of the accepted epoch (safe to ack —
    the result is bit-identical by construction); [`Stale] for a fenced
    epoch; [`Unknown] for a shard outside the plan. *)

val sweep_expired : t -> now:float -> (int * string) list
(** Expire overdue leases; returns the expired [(shard, holding worker)]
    pairs so the service can count them and charge the heartbeat gap to
    the right worker's circuit breaker. *)

val force_complete : t -> shard:int -> unit
(** Mark a shard done without a lease — checkpoint restore only. *)

val finished : t -> bool
val completed : t -> int
val in_flight : t -> int
val total : t -> int

val bump_epoch : t -> shard:int -> int
(** Issue and return a fresh (strictly higher) epoch for [shard]
    without touching its slot. Audit re-executions ride on this: the
    shard stays [Done] while the audit runs under the fresh epoch, so
    the audited completion can never be mistaken for a primary result.
    Raises [Invalid_argument] on a shard outside the plan. *)

val range : t -> shard:int -> int * int
(** The plan's [(start, len)] for [shard]. *)

val reopen : t -> shard:int -> unit
(** [Done -> Unleased]: the accepted result was invalidated (its
    producer got quarantined) and the shard must be honestly re-run.
    No-op unless the shard is [Done]. *)

val release : t -> shard:int -> epoch:int -> unit
(** Drop the live lease matching [epoch] without expiring it (its
    holder sent a corrupt or digest-mismatched result). A primary
    release promotes any live speculative duplicate; a spare release
    just drops the spare. No-op on a non-matching epoch. *)

val release_worker : t -> worker:string -> int list
(** Release every lease (primary or spare) held by [worker] —
    quarantine path. Returns the shards whose primary lease dropped. *)

val speculate : t -> now:float -> shard:int -> worker:string -> assignment option
(** Open a speculative duplicate lease on a shard whose primary holder
    is straggling: a second worker runs the same shard under a fresh
    epoch, first valid completion wins, the loser fences as stale
    (DESIGN.md §16). [None] if the shard is not leased, already has a
    spare, or [worker] is the primary holder. *)
