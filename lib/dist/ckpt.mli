(** Durable campaign-service checkpoint: fingerprint, accepted shard
    results and their audit bookkeeping.

    A {!Fmc_prelude.Record} appended file: a sealed snapshot, which
    {!save} writes atomically (tmp + rename), followed by the sealed
    deltas {!append} adds, one per accepted shard or audit pass. Both
    embed the shared [Ssf.Tally.to_string] and quarantine-entry
    serializers. Nothing is synced, so the file survives a [kill -9] of
    its writer, not a power loss. The snapshot's CRC-32 trailer makes
    its truncation or corruption a load error instead of a misparse; a
    delta cut short or damaged is dropped, with everything after it, and
    its shards simply re-run. A restarted service whose checkpoint
    fingerprint matches its campaign resumes with those shards
    pre-completed; since shard results depend only on [(seed, shard)],
    the final merged report is unchanged. *)

open Fmc

val format_version : int
(** 3, the only version written or read: the header, the shards, the
    quarantine log, then the [audits]/[banned] sections (empty when
    auditing is off). Any other header is refused, so an older binary
    refuses a file with deltas rather than misreading it. *)

(** The audit bookkeeping of the accepted shards. In-flight audit
    leases are deliberately not persisted: on restart a selected,
    unvindicated shard is due again (the selection is a pure function of
    the fingerprint-derived seed). *)
type audit = {
  au_entries : Fmc_audit.Audit.entry list;  (** ascending shard id *)
  au_banned : string list;  (** quarantined worker names *)
}

type state = {
  st_fingerprint : string;
  st_shards : (int * string) list;
      (** [(shard id, tally blob)], ascending shard id *)
  st_quarantined : Campaign.quarantine_entry list;
  st_audit : audit;
}

val save : path:string -> state -> unit
(** Replace the file with a bare snapshot of [state]. *)

val append :
  path:string ->
  ?shard:int * string ->
  ?quarantined:Campaign.quarantine_entry list ->
  ?banned:string list ->
  Fmc_audit.Audit.entry ->
  unit
(** Append one delta to the file {!save} wrote: an accepted
    [(shard id, tally blob)] with its [quarantined] entries, an audit
    entry that replaces its shard's earlier one, and [banned] workers to
    add to the file's list (each default empty or absent). The bytes
    written are the blob's plus a bounded overhead, whatever the number
    of shards already in the file. Append only to a file that {!save}
    wrote, or that {!read} found a bare snapshot, and only after the
    previous append succeeded: a delta after a damaged tail is never
    read. *)

val read : path:string -> (state * [ `Snapshot | `Appended ], string) result
(** The snapshot with every whole delta applied in order: a later
    shard, quarantine entry (by sample index) or audit entry replaces an
    earlier one. [`Snapshot]: the file is a bare snapshot. [`Appended]:
    it holds deltas, a dropped damaged tail, or both — rewrite it with
    {!save} before appending to it. Linear in the file size, up to the
    sort of the shard ids. [Error] names the problem: unreadable file, a
    header other than [faultmc-dist 3], a damaged snapshot (a CRC
    mismatch or the parse error it causes), or a malformed section. *)

val load : path:string -> (state, string) result
(** {!read} without the shape. *)
