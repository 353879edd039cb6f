(* Tests for Fmc_audit, the untrusted-worker defense: the seeded audit
   sampler (pure, restart-stable, zero engine-stream randomness), the
   canonical result digest, and the pass / dispute / verdict state
   machine with its quarantine-victim accounting. Audit re-runs are
   audit leases in a Fmc_dist.Lease table, as in the service, which is
   where their epoch fencing, TTL sweep and release are checked. Pure
   state-machine tests — no engine, sockets or clock. *)

module Audit = Fmc_audit.Audit
module Lease = Fmc_dist.Lease

let cfg ?(rate = 1.0) ?(seed = 42L) () = { Audit.rate; seed }

(* A lease table of [n] accepted shards. *)
let table n =
  let lease = Lease.create ~plan:(Array.init n (fun i -> (10 * i, 10))) ~ttl:60. in
  for shard = 0 to n - 1 do
    Lease.force_complete lease ~shard
  done;
  lease

(* The service's audit offer: [worker]'s audit lease on the lowest
   shard due to it. *)
let take ?(now = 0.) lease t ~worker =
  match
    Lease.audit lease ~now ~worker ~due:(fun shard ->
        Audit.due t ~shard ~worker ~allow_self:false)
  with
  | Some a -> a
  | None -> Alcotest.failf "no audit offered to %s" worker

(* The service's audit completion: the lease ends as an audit, and the
   digest goes to the verdict bookkeeping. *)
let finish lease t (a : Lease.assignment) ~worker ~digest =
  match Lease.complete lease ~shard:a.Lease.shard ~epoch:a.Lease.epoch with
  | `Accepted { Lease.kind = Lease.Audit; _ } -> Audit.complete t ~shard:a.Lease.shard ~worker ~digest
  | _ -> Alcotest.fail "an audit lease must complete as an audit"

(* ------------------------------------------------------------------ *)
(* sampler *)

let test_sampler_pure_and_restart_stable () =
  let seed = 7L in
  let draws rate = List.init 200 (fun shard -> Audit.selected_pure ~rate ~seed ~shard) in
  Alcotest.(check (list bool)) "same (rate, seed, shard) -> same draw" (draws 0.3) (draws 0.3);
  Alcotest.(check bool) "rate 0 selects nothing" false
    (List.exists Fun.id (draws 0.));
  Alcotest.(check bool) "rate 1 selects everything" true
    (List.for_all Fun.id (draws 1.));
  let hits = List.length (List.filter Fun.id (draws 0.3)) in
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.3 selects a plausible fraction (%d/200)" hits)
    true
    (hits > 20 && hits < 100);
  (* Different seeds disagree somewhere (else the seed is dead). *)
  let other = List.init 200 (fun shard -> Audit.selected_pure ~rate:0.3 ~seed:99L ~shard) in
  Alcotest.(check bool) "seed actually feeds the draw" true (other <> draws 0.3)

let test_sampler_matches_state_machine () =
  let c = cfg ~rate:0.3 ~seed:11L () in
  let t = Audit.create c ~nshards:100 in
  for shard = 0 to 99 do
    let selected = Audit.note_accept t ~shard ~worker:"w" ~digest:"d" in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d selection agrees with selected_pure" shard)
      (Audit.selected_pure ~rate:0.3 ~seed:11L ~shard)
      selected;
    Alcotest.(check bool) "selected agrees too" selected (Audit.selected t ~shard)
  done

(* ------------------------------------------------------------------ *)
(* digest *)

let test_result_digest () =
  let tally = "samples 40\nline two\n" in
  let d = Audit.Check.result_digest ~tally ~quarantined:[] in
  Alcotest.(check string) "no quarantine: digest of the tally blob alone"
    (Fmc.Ssf.Tally.digest_hex tally) d;
  Alcotest.(check string) "deterministic" d (Audit.Check.result_digest ~tally ~quarantined:[]);
  let d' = Audit.Check.result_digest ~tally:"samples 41\nline two\n" ~quarantined:[] in
  Alcotest.(check bool) "one tally digit flips the digest" true (d <> d')

(* ------------------------------------------------------------------ *)
(* state machine *)

let test_audit_pass () =
  let t = Audit.create (cfg ()) ~nshards:2 in
  Alcotest.(check bool) "rate 1: accepted shard is due" true
    (Audit.note_accept t ~shard:0 ~worker:"alice" ~digest:"d0");
  Alcotest.(check int) "one pending" 1 (Audit.pending t);
  Alcotest.(check bool) "not finished" false (Audit.finished t);
  (* The primary executor never audits its own shard... *)
  Alcotest.(check bool) "alice may not self-audit" false
    (Audit.due t ~shard:0 ~worker:"alice" ~allow_self:false);
  (* ...unless the fleet is down to one worker. *)
  Alcotest.(check bool) "allow_self lifts the bar" true
    (Audit.due t ~shard:0 ~worker:"alice" ~allow_self:true);
  Alcotest.(check bool) "bob is offered shard 0" true
    (Audit.due t ~shard:0 ~worker:"bob" ~allow_self:false);
  Alcotest.(check bool) "shard 1 was never accepted" false
    (Audit.due t ~shard:1 ~worker:"bob" ~allow_self:false);
  let lease = table 2 in
  let a = take lease t ~worker:"bob" in
  Alcotest.(check int) "bob's audit lease is on shard 0" 0 a.Lease.shard;
  Alcotest.(check int) "still pending while it runs" 1 (Audit.pending t);
  (match finish lease t a ~worker:"bob" ~digest:"d0" with
  | `Pass -> ()
  | _ -> Alcotest.fail "matching digest must pass");
  Alcotest.(check int) "drained" 0 (Audit.pending t);
  Alcotest.(check bool) "finished" true (Audit.finished t)

let test_audit_dispute_verdict_against_primary () =
  let t = Audit.create (cfg ()) ~nshards:1 and lease = table 1 in
  ignore (Audit.note_accept t ~shard:0 ~worker:"alice" ~digest:"lie");
  (match finish lease t (take lease t ~worker:"bob") ~worker:"bob" ~digest:"truth" with
  | `Dispute -> ()
  | _ -> Alcotest.fail "disagreement must open a dispute");
  Alcotest.(check int) "still pending while disputed" 1 (Audit.pending t);
  (* Neither prior executor may arbitrate. *)
  Alcotest.(check bool) "alice may not arbitrate" false
    (Audit.due t ~shard:0 ~worker:"alice" ~allow_self:false);
  Alcotest.(check bool) "bob may not arbitrate" false
    (Audit.due t ~shard:0 ~worker:"bob" ~allow_self:false);
  Alcotest.(check bool) "carol arbitrates" true
    (Audit.due t ~shard:0 ~worker:"carol" ~allow_self:false);
  (match finish lease t (take lease t ~worker:"carol") ~worker:"carol" ~digest:"truth" with
  | `Verdict { Audit.vd_liars = [ "alice" ]; vd_replace = true } -> ()
  | `Verdict v ->
      Alcotest.failf "wrong verdict: liars=[%s] replace=%b"
        (String.concat ";" v.Audit.vd_liars)
        v.Audit.vd_replace
  | _ -> Alcotest.fail "quorum must yield a verdict");
  Alcotest.(check bool) "settled" true (Audit.finished t)

let test_audit_dispute_verdict_against_auditor () =
  let t = Audit.create (cfg ()) ~nshards:1 and lease = table 1 in
  ignore (Audit.note_accept t ~shard:0 ~worker:"alice" ~digest:"truth");
  (match finish lease t (take lease t ~worker:"bob") ~worker:"bob" ~digest:"lie" with
  | `Dispute -> ()
  | _ -> Alcotest.fail "dispute");
  (match finish lease t (take lease t ~worker:"carol") ~worker:"carol" ~digest:"truth" with
  | `Verdict { Audit.vd_liars = [ "bob" ]; vd_replace = false } -> ()
  | _ -> Alcotest.fail "the outvoted auditor is the liar; the primary blob stands")

(* An audit lease is an ordinary lease of the shard's lease table: its
   own epoch, fenced, kept alive by heartbeats, swept on expiry and
   released on a bad result — each of which puts the audit back up for
   offer. *)
let test_epoch_fencing_release_sweep () =
  let t = Audit.create (cfg ()) ~nshards:1 in
  let lease = Lease.create ~plan:[| (0, 10) |] ~ttl:5. in
  (match Lease.acquire lease ~now:0. ~worker:"alice" with
  | `Assign { Lease.shard = 0; epoch = 1; _ } -> ()
  | _ -> Alcotest.fail "alice's first lease");
  (match Lease.complete lease ~shard:0 ~epoch:1 with
  | `Accepted { Lease.kind = Lease.First; _ } -> ()
  | _ -> Alcotest.fail "the first lease is accepted");
  ignore (Audit.note_accept t ~shard:0 ~worker:"alice" ~digest:"d");
  let offer ~now worker =
    Lease.audit lease ~now ~worker ~due:(fun shard -> Audit.due t ~shard ~worker ~allow_self:false)
  in
  let a = take lease t ~worker:"bob" in
  Alcotest.(check int) "the audit runs under a fresh epoch" 2 a.Lease.epoch;
  Alcotest.(check bool) "one audit lease per shard" true (offer ~now:0. "carol" = None);
  Alcotest.(check bool) "a fenced epoch is stale" true
    (Lease.complete lease ~shard:0 ~epoch:9 = `Stale);
  Alcotest.(check bool) "the primary's epoch is a re-delivery, not the audit" true
    (Lease.complete lease ~shard:0 ~epoch:1 = `Duplicate);
  (* Heartbeats under the right epoch keep the audit lease alive. *)
  Alcotest.(check bool) "heartbeat accepted" true
    (Lease.heartbeat lease ~now:4. ~shard:0 ~epoch:2 = `Ok);
  Alcotest.(check bool) "wrong-epoch heartbeat refused" true
    (Lease.heartbeat lease ~now:4. ~shard:0 ~epoch:9 = `Stale);
  Alcotest.(check (list (pair int string))) "nothing overdue yet" []
    (Lease.sweep_expired lease ~now:8.);
  Alcotest.(check (list (pair int string))) "TTL expiry names the auditor" [ (0, "bob") ]
    (Lease.sweep_expired lease ~now:20.);
  Alcotest.(check bool) "the expired audit's result is stale" true
    (Lease.complete lease ~shard:0 ~epoch:2 = `Stale);
  Alcotest.(check int) "the audit is still owed" 1 (Audit.pending t);
  (* Release after a bad result does the same, but only under the
     leased epoch. *)
  let a = take ~now:21. lease t ~worker:"carol" in
  Alcotest.(check int) "re-offered under the next epoch" 3 a.Lease.epoch;
  Lease.release lease ~shard:0 ~epoch:9;
  Alcotest.(check bool) "wrong-epoch release is a no-op" true (offer ~now:21. "dave" = None);
  Lease.release lease ~shard:0 ~epoch:3;
  Alcotest.(check bool) "released back to due" true (offer ~now:21. "dave" <> None)

let test_victims_and_invalidate () =
  let t = Audit.create (cfg ()) ~nshards:3 and lease = table 3 in
  ignore (Audit.note_accept t ~shard:0 ~worker:"alice" ~digest:"a0");
  ignore (Audit.note_accept t ~shard:1 ~worker:"alice" ~digest:"a1");
  ignore (Audit.note_accept t ~shard:2 ~worker:"bob" ~digest:"b2");
  (* Vindicate shard 0; shard 1 stays unaudited. *)
  (match finish lease t (take lease t ~worker:"bob") ~worker:"bob" ~digest:"a0" with
  | `Pass -> ()
  | _ -> Alcotest.fail "pass");
  Alcotest.(check (list int)) "only the unvindicated shard is a victim" [ 1 ]
    (Audit.victims t ~worker:"alice");
  Alcotest.(check (list int)) "bob's shard is his own" [ 2 ] (Audit.victims t ~worker:"bob");
  (* Invalidating forgets the primary; re-accepting re-draws selection. *)
  Audit.invalidate t ~shard:1;
  Alcotest.(check (list int)) "invalidated shard is no longer a victim" []
    (Audit.victims t ~worker:"alice");
  Alcotest.(check bool) "re-accept re-selects (rate 1)" true
    (Audit.note_accept t ~shard:1 ~worker:"carol" ~digest:"c1")

let test_export_restore_roundtrip () =
  let c = cfg ~rate:0.5 ~seed:123L () in
  let t = Audit.create c ~nshards:20 and lease = table 20 in
  for shard = 0 to 19 do
    ignore (Audit.note_accept t ~shard ~worker:(if shard mod 2 = 0 then "alice" else "bob")
              ~digest:(Printf.sprintf "d%d" shard))
  done;
  let honest lease t (a : Lease.assignment) =
    finish lease t a ~worker:"carol" ~digest:(Printf.sprintf "d%d" a.Lease.shard)
  in
  (* Pass one of the due audits, lease another (in-flight leases must
     NOT survive a restart — the obligation must). *)
  (match honest lease t (take lease t ~worker:"carol") with
  | `Pass -> ()
  | _ -> Alcotest.fail "pass");
  ignore (take lease t ~worker:"carol" : Lease.assignment);
  let pending_before = Audit.pending t in
  let t' = Audit.restore c ~nshards:20 (Audit.export t) in
  Alcotest.(check int) "pending survives restore (in-flight back to due)" pending_before
    (Audit.pending t');
  Alcotest.(check bool) "export/restore is a fixpoint" true
    (Audit.export t = Audit.export t');
  (* Drain the restored machine under a restarted lease table: every
     completion matches its primary. *)
  let lease' = table 20 in
  let guard = ref 0 in
  let rec drain () =
    incr guard;
    if !guard > 40 then Alcotest.fail "drain runaway";
    match
      Lease.audit lease' ~now:2. ~worker:"carol" ~due:(fun shard ->
          Audit.due t' ~shard ~worker:"carol" ~allow_self:false)
    with
    | None -> ()
    | Some a -> (
        match honest lease' t' a with
        | `Pass -> drain ()
        | _ -> Alcotest.fail "pass")
  in
  drain ();
  Alcotest.(check bool) "restored machine drains to finished" true (Audit.finished t')

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fmc_audit"
    [
      ( "sampler",
        [
          Alcotest.test_case "pure and restart-stable" `Quick test_sampler_pure_and_restart_stable;
          Alcotest.test_case "state machine agrees with selected_pure" `Quick
            test_sampler_matches_state_machine;
        ] );
      ("digest", [ Alcotest.test_case "canonical result digest" `Quick test_result_digest ]);
      ( "state-machine",
        [
          Alcotest.test_case "pass" `Quick test_audit_pass;
          Alcotest.test_case "dispute, verdict against primary" `Quick
            test_audit_dispute_verdict_against_primary;
          Alcotest.test_case "dispute, verdict against auditor" `Quick
            test_audit_dispute_verdict_against_auditor;
          Alcotest.test_case "epoch fencing, release, sweep" `Quick
            test_epoch_fencing_release_sweep;
          Alcotest.test_case "victims and invalidate" `Quick test_victims_and_invalidate;
          Alcotest.test_case "export/restore roundtrip" `Quick test_export_restore_roundtrip;
        ] );
    ]
