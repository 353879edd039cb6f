(** Durable campaign-service checkpoint: fingerprint, accepted shard
    results and their audit bookkeeping.

    A {!Fmc_prelude.Record} sealed file, written atomically after every
    accepted shard, embedding the shared [Ssf.Tally.to_string] and
    quarantine-entry serializers; its CRC-32 trailer makes truncation
    or corruption surface as a load error instead of a misparse. A
    restarted service whose checkpoint fingerprint matches its campaign
    resumes with those shards pre-completed; since shard results depend
    only on [(seed, shard)], the final merged report is unchanged. *)

open Fmc

val format_version : int
(** 3, the only version written or read: the header, the shards, the
    quarantine log, then the [audits]/[banned] sections (empty when
    auditing is off). Any other header is refused. *)

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

val load : path:string -> (state, string) result
(** [Error] names the problem: unreadable file, a header other than
    [faultmc-dist 3], a CRC mismatch, or a malformed section. *)
