(* Untrusted-worker defense: canonical result digests, seeded shard
   audits with quorum arbitration, and the bookkeeping the campaign
   service keeps to quarantine lying workers.

   Like Lease, this module is a pure state machine: no clock, no
   threads, no I/O. The caller (the campaign service) holds its own
   lock around every call. Audit selection is drawn
   from [Rng.substream ~seed ~shard] where the seed derives from the
   campaign fingerprint, so which shards get audited is a pure function
   of (campaign, audit rate) — restart-stable, and consuming zero
   randomness from the engine's sample streams.

   Lifecycle of one audited shard, each step after the first an audit
   lease completing in the lease table (Fmc_dist.Lease):

     Clear --accept--> Due [primary]
     Due --complete--> Passed          (digests agree)
                   \-> Due (2 execs)   (dispute: needs arbiter)
     Due (2 execs) --complete--> Settled + verdict

   A verdict names the minority executions (the liars). The caller
   quarantines those workers and, via [victims], invalidates every
   still-unaudited shard whose accepted result came from a liar. *)

type exec = { ax_worker : string; ax_digest : string }

type slot = Clear | Due of exec list | Passed | Settled
type config = { rate : float; seed : int64 }

type t = {
  config : config;
  slots : slot array;
  primaries : (int, exec) Hashtbl.t;
}

let selected_pure ~rate ~seed ~shard =
  rate > 0.0
  && (rate >= 1.0
     || Fmc_prelude.Rng.float (Fmc_prelude.Rng.substream ~seed ~shard) 1.0 < rate)

let create config ~nshards =
  if config.rate < 0.0 || config.rate > 1.0 then
    invalid_arg "Audit.create: rate must be in [0,1]";
  { config; slots = Array.make (max nshards 0) Clear; primaries = Hashtbl.create 64 }

let rate t = t.config.rate
let selected t ~shard = selected_pure ~rate:t.config.rate ~seed:t.config.seed ~shard

let note_accept t ~shard ~worker ~digest =
  let exec = { ax_worker = worker; ax_digest = digest } in
  Hashtbl.replace t.primaries shard exec;
  if selected t ~shard then (
    t.slots.(shard) <- Due [ exec ];
    true)
  else (
    t.slots.(shard) <- Clear;
    false)

let ran_in execs worker = List.exists (fun e -> e.ax_worker = worker) execs

let due t ~shard ~worker ~allow_self =
  match t.slots.(shard) with
  | Due execs -> allow_self || not (ran_in execs worker)
  | Clear | Passed | Settled -> false

type verdict = { vd_liars : string list; vd_replace : bool }

let complete t ~shard ~worker ~digest =
  match t.slots.(shard) with
  | Due execs -> (
      let execs = execs @ [ { ax_worker = worker; ax_digest = digest } ] in
      match execs with
      | [ e1; e2 ] ->
          if e1.ax_digest = e2.ax_digest then (
            t.slots.(shard) <- Passed;
            `Pass)
          else (
            (* Two-way disagreement: a third, independent execution
               arbitrates by majority. *)
            t.slots.(shard) <- Due execs;
            `Dispute)
      | [ e1; _; e3 ] ->
          (* The first two executions disagree (else we'd have passed),
             so if the arbiter matches either it holds a 2-of-3
             majority. On a three-way split nobody does; the freshest
             independent execution wins and both earlier executors are
             treated as minority — conservative, since an honest fleet
             can only split three ways if two workers are broken. *)
          let majority = e3.ax_digest in
          let liars =
            List.filter_map
              (fun e ->
                if e.ax_digest <> majority && e.ax_worker <> "" then
                  Some e.ax_worker
                else None)
              execs
          in
          let replace = e1.ax_digest <> majority in
          t.slots.(shard) <- Settled;
          `Verdict { vd_liars = liars; vd_replace = replace }
      | _ -> invalid_arg "Audit.complete: impossible execution count")
  | Clear | Passed | Settled -> invalid_arg "Audit.complete: shard is not due for audit"

let invalidate t ~shard =
  t.slots.(shard) <- Clear;
  Hashtbl.remove t.primaries shard

let victims t ~worker =
  Hashtbl.fold
    (fun shard exec acc ->
      if
        exec.ax_worker = worker
        && (match t.slots.(shard) with Passed | Settled -> false | _ -> true)
      then shard :: acc
      else acc)
    t.primaries []
  |> List.sort compare

let pending t =
  Array.fold_left
    (fun acc slot -> match slot with Due _ -> acc + 1 | _ -> acc)
    0 t.slots

let finished t = pending t = 0

type entry = { au_shard : int; au_worker : string; au_digest : string; au_passed : bool }

let entry t ~shard =
  Option.map
    (fun exec ->
      let passed = match t.slots.(shard) with Passed | Settled -> true | _ -> false in
      { au_shard = shard; au_worker = exec.ax_worker; au_digest = exec.ax_digest; au_passed = passed })
    (Hashtbl.find_opt t.primaries shard)

let export t =
  Hashtbl.fold (fun shard _ acc -> shard :: acc) t.primaries []
  |> List.sort compare
  |> List.filter_map (fun shard -> entry t ~shard)

let restore config ~nshards entries =
  let t = create config ~nshards in
  List.iter
    (fun e ->
      if e.au_shard >= 0 && e.au_shard < nshards then (
        let exec = { ax_worker = e.au_worker; ax_digest = e.au_digest } in
        Hashtbl.replace t.primaries e.au_shard exec;
        t.slots.(e.au_shard) <-
          (if e.au_passed then Passed
           else if selected t ~shard:e.au_shard then Due [ exec ]
           else Clear)))
    entries;
  t

module Check = struct
  let result_digest ~tally ~quarantined =
    let buf = Buffer.create (String.length tally + 64) in
    Buffer.add_string buf tally;
    List.iter
      (fun e ->
        Buffer.add_string buf (Fmc.Campaign.quarantine_entry_to_string e);
        Buffer.add_char buf '\n')
      quarantined;
    Fmc.Ssf.Tally.digest_hex (Buffer.contents buf)
end
