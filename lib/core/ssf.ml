module Welford = Fmc_prelude.Stats.Welford
module Rng = Fmc_prelude.Rng
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics

type quarantine_reason = Q_crashed | Q_timed_out

type outcome_counts = {
  masked : int;
  mem_only : int;
  resumed : int;
  quarantined : int;
  q_crashed : int;
  q_timed_out : int;
}

type report = {
  strategy : string;
  n : int;
  ssf : float;
  ssf_upper : float;
  variance : float;
  successes : int;
  ess : float;
  sum_w : float;
  sum_w2 : float;
  trace : (int * float) list;
  outcomes : outcome_counts;
  contributions : ((string * int) * float) list;
  success_by_direct : int;
  success_by_comb : int;
}

(* Weight-descending with a deterministic key tie-break, so the final list
   does not depend on hash-table iteration order (which differs between an
   uninterrupted run and a checkpoint-resumed one). *)
let sort_contributions l =
  List.sort
    (fun ((ka : string * int), a) (kb, b) ->
      match compare (b : float) a with 0 -> compare ka kb | c -> c)
    l

module Tally = struct
  (* Pre-resolved metric cells, so the per-sample cost with metrics enabled
     is plain field updates — no hashtable lookups in the hot loop. *)
  type inst = {
    i_samples : Metrics.counter;
    i_successes : Metrics.counter;
    i_masked : Metrics.counter;
    i_analytical : Metrics.counter;
    i_resumed : Metrics.counter;
    i_quarantined : Metrics.counter;
    i_q_crashed : Metrics.counter;
    i_q_timed_out : Metrics.counter;
    i_draws_all : Metrics.counter;
    i_draws_vulnerable : Metrics.counter;
    i_draws_rest : Metrics.counter;
    i_weights : Metrics.histogram;
    i_ssf : Metrics.gauge;
    i_ess : Metrics.gauge;
  }

  let make_inst (obs : Obs.t) =
    match obs.Obs.metrics with
    | None -> None
    | Some reg ->
        Some
          {
            i_samples = Metrics.counter reg ~help:"samples folded into the campaign" "fmc_samples_total";
            i_successes = Metrics.counter reg ~help:"successful fault attacks" "fmc_successes_total";
            i_masked =
              Metrics.counter reg ~help:"samples with no surviving register error"
                "fmc_outcome_masked_total";
            i_analytical =
              Metrics.counter reg ~help:"samples settled by analytical evaluation"
                "fmc_outcome_analytical_total";
            i_resumed =
              Metrics.counter reg ~help:"samples that resumed RTL simulation"
                "fmc_outcome_resumed_total";
            i_quarantined =
              Metrics.counter reg ~help:"samples quarantined by the campaign runner"
                "fmc_outcome_quarantined_total";
            i_q_crashed =
              Metrics.counter reg ~help:"quarantines from the crash guard"
                "fmc_quarantine_crashed_total";
            i_q_timed_out =
              Metrics.counter reg ~help:"quarantines from the cycle-budget watchdog"
                "fmc_quarantine_timed_out_total";
            i_draws_all =
              Metrics.counter reg ~help:"draws from the unstratified space" "fmc_draws_all_total";
            i_draws_vulnerable =
              Metrics.counter reg ~help:"draws from the vulnerable stratum"
                "fmc_draws_vulnerable_total";
            i_draws_rest =
              Metrics.counter reg ~help:"draws from the rest stratum" "fmc_draws_rest_total";
            i_weights =
              Metrics.histogram reg ~help:"drawn importance weights f/g"
                ~buckets:[| 0.01; 0.03; 0.1; 0.3; 1.; 3.; 10.; 100. |]
                "fmc_is_weight";
            i_ssf = Metrics.gauge reg ~help:"running SSF estimate" "fmc_ssf_estimate";
            i_ess = Metrics.gauge reg ~help:"Kish effective sample size" "fmc_ess";
          }

  type t = {
    total : int;
    trace_every : int;
    strata : (Sampler.stratum * float) array;
    (* One accumulator per stratum; the stratified estimate combines the
       per-stratum means with their exact f-masses, and the reported
       variance is the effective per-sample variance n * Var(estimate) so it
       is directly comparable to plain Monte Carlo's indicator variance. *)
    accs : Welford.t array;
    (* Pessimistic shadow accumulators: identical to [accs] except that
       quarantined samples are counted as full-weight successes. Their
       combined mean is the conservative SSF upper bound. *)
    pess : Welford.t array;
    index : int array;  (* stratum tag -> position in [strata]/[accs] *)
    mutable processed : int;
    mutable masked : int;
    mutable mem_only : int;
    mutable resumed : int;
    mutable quarantined : int;
    mutable q_crashed : int;
    mutable q_timed_out : int;
    mutable successes : int;
    mutable by_direct : int;
    mutable by_comb : int;
    mutable sum_w : float;
    mutable sum_w2 : float;
    contributions : (string * int, float) Hashtbl.t;
    mutable trace : (int * float) list;  (* newest first *)
    obs : Obs.t;
    inst : inst option;
    start : float;  (* wall clock at tally creation/restore (segment start) *)
    base : int;  (* [processed] at segment start; >0 for resumed campaigns *)
  }

  type snapshot = {
    snap_total : int;
    snap_trace_every : int;
    snap_processed : int;
    snap_strata : (Sampler.stratum * float) list;
    snap_accs : (int * float * float) list;
    snap_pess : (int * float * float) list;
    snap_masked : int;
    snap_mem_only : int;
    snap_resumed : int;
    snap_quarantined : int;
    snap_q_crashed : int;
    snap_q_timed_out : int;
    snap_successes : int;
    snap_by_direct : int;
    snap_by_comb : int;
    snap_sum_w : float;
    snap_sum_w2 : float;
    snap_contributions : ((string * int) * float) list;
    snap_trace : (int * float) list;  (* chronological *)
  }

  let tag = function Sampler.All -> 0 | Sampler.Vulnerable -> 1 | Sampler.Rest -> 2

  let make_index strata =
    let index = Array.make 3 (-1) in
    Array.iteri (fun i (s, _) -> index.(tag s) <- i) strata;
    index

  let create ?(obs = Obs.disabled) ?(trace_every = 50) prepared ~total =
    let strata = Array.of_list (Sampler.strata prepared) in
    {
      total;
      trace_every;
      strata;
      accs = Array.map (fun _ -> Welford.create ()) strata;
      pess = Array.map (fun _ -> Welford.create ()) strata;
      index = make_index strata;
      processed = 0;
      masked = 0;
      mem_only = 0;
      resumed = 0;
      quarantined = 0;
      q_crashed = 0;
      q_timed_out = 0;
      successes = 0;
      by_direct = 0;
      by_comb = 0;
      sum_w = 0.;
      sum_w2 = 0.;
      contributions = Hashtbl.create 64;
      trace = [];
      obs;
      inst = make_inst obs;
      start = Fmc_obs.Clock.now ();
      base = 0;
    }

  let slot t stratum =
    let i = t.index.(tag stratum) in
    if i < 0 then invalid_arg "Ssf.Tally: sample from a stratum unknown to this tally";
    i

  let combined t accs =
    let acc = ref 0. in
    Array.iteri (fun i (_, m) -> acc := !acc +. (m *. Welford.mean accs.(i))) t.strata;
    !acc

  let current_estimate t = combined t t.accs

  let processed t = t.processed
  let total t = t.total

  let kish t = if t.sum_w2 > 0. then t.sum_w *. t.sum_w /. t.sum_w2 else float_of_int t.processed

  (* n * Var(stratified estimator); collapses to the plain sample variance
     when there is a single stratum. Shared by [report] and the running
     CI half-width of the convergence telemetry. *)
  let effective_variance t =
    let acc = ref 0. in
    Array.iteri
      (fun i (_, m) ->
        let w = t.accs.(i) in
        let n_s = float_of_int (max 1 (Welford.count w)) in
        acc := !acc +. (m *. m *. Welford.variance w /. n_s))
      t.strata;
    !acc *. float_of_int t.processed

  let emit_progress t est =
    (match t.inst with
    | Some i ->
        Metrics.set i.i_ssf est;
        Metrics.set i.i_ess (kish t)
    | None -> ());
    match t.obs.Obs.progress with
    | None -> ()
    | Some _ ->
        let n = t.processed in
        let nf = float_of_int (max 1 n) in
        let elapsed = Float.max 0. (Fmc_obs.Clock.now () -. t.start) in
        let here = n - t.base in
        Obs.emit t.obs
          {
            Fmc_obs.Progress.n;
            total = t.total;
            estimate = est;
            half_width = 1.96 *. sqrt (Float.max 0. (effective_variance t) /. nf);
            ess = kish t;
            accept_rate = float_of_int (n - t.quarantined) /. nf;
            quarantine_rate = float_of_int t.quarantined /. nf;
            samples_per_sec = (if elapsed > 0. then float_of_int here /. elapsed else 0.);
            elapsed_s = elapsed;
          }

  let trace_point t =
    let est = current_estimate t in
    t.trace <- (t.processed, est) :: t.trace;
    if Obs.enabled t.obs then emit_progress t est

  let bump_trace t =
    if t.processed mod t.trace_every = 0 || t.processed = t.total then trace_point t

  (* End the trace at the current count, as a tally sized to it would
     have: how a run that stops early still reports its final point. *)
  let close_trace t =
    match t.trace with (k, _) :: _ when k = t.processed -> () | _ -> trace_point t

  let bump_draw inst (sample : Sampler.sample) =
    Metrics.inc inst.i_samples;
    Metrics.observe inst.i_weights sample.Sampler.weight;
    match sample.Sampler.stratum with
    | Sampler.All -> Metrics.inc inst.i_draws_all
    | Sampler.Vulnerable -> Metrics.inc inst.i_draws_vulnerable
    | Sampler.Rest -> Metrics.inc inst.i_draws_rest

  let record t (sample : Sampler.sample) (result : Engine.run_result) ~attributed =
    t.processed <- t.processed + 1;
    (match t.inst with
    | Some inst ->
        bump_draw inst sample;
        if result.Engine.success then Metrics.inc inst.i_successes;
        Metrics.inc
          (match result.Engine.outcome with
          | Engine.Masked -> inst.i_masked
          | Engine.Analytical _ -> inst.i_analytical
          | Engine.Resumed _ -> inst.i_resumed)
    | None -> ());
    let i = slot t sample.Sampler.stratum in
    let _, mass = t.strata.(i) in
    let e = if result.Engine.success then 1. else 0. in
    (* Kish effective sample size over the drawn weights (f-mass scaled so
       strata weigh in proportionally). *)
    let w = mass *. sample.Sampler.weight in
    t.sum_w <- t.sum_w +. w;
    t.sum_w2 <- t.sum_w2 +. (w *. w);
    Welford.add t.accs.(i) (sample.Sampler.weight *. e);
    Welford.add t.pess.(i) (sample.Sampler.weight *. e);
    (match result.Engine.outcome with
    | Engine.Masked -> t.masked <- t.masked + 1
    | Engine.Analytical _ -> t.mem_only <- t.mem_only + 1
    | Engine.Resumed _ -> t.resumed <- t.resumed + 1);
    if result.Engine.success then begin
      t.successes <- t.successes + 1;
      if Array.length result.Engine.direct > 0 then t.by_direct <- t.by_direct + 1
      else t.by_comb <- t.by_comb + 1;
      (* Contribution mass in f-terms: within-stratum weight times the
         stratum mass, split evenly across the run's flipped bits so that
         incidental co-flips don't each collect full credit. *)
      let share = mass *. sample.Sampler.weight /. float_of_int (max 1 (List.length attributed)) in
      List.iter
        (fun key ->
          let cur = try Hashtbl.find t.contributions key with Not_found -> 0. in
          Hashtbl.replace t.contributions key (cur +. share))
        attributed
    end;
    bump_trace t

  let quarantine t (sample : Sampler.sample) ~reason =
    t.processed <- t.processed + 1;
    t.quarantined <- t.quarantined + 1;
    (match reason with
    | Q_crashed -> t.q_crashed <- t.q_crashed + 1
    | Q_timed_out -> t.q_timed_out <- t.q_timed_out + 1);
    (match t.inst with
    | Some inst ->
        bump_draw inst sample;
        Metrics.inc inst.i_quarantined;
        Metrics.inc (match reason with Q_crashed -> inst.i_q_crashed | Q_timed_out -> inst.i_q_timed_out)
    | None -> ());
    let i = slot t sample.Sampler.stratum in
    (* The honest accumulators skip the sample entirely (it is reported in
       its own outcome bucket); the pessimistic shadow counts it as a
       success with its full weight, giving the conservative bound. *)
    Welford.add t.pess.(i) sample.Sampler.weight;
    bump_trace t

  let report t ~strategy =
    let n = t.processed in
    let ssf_value = current_estimate t in
    let variance_value = effective_variance t in
    let contributions =
      sort_contributions (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.contributions [])
    in
    {
      strategy;
      n;
      ssf = ssf_value;
      ssf_upper = (if t.quarantined = 0 then ssf_value else combined t t.pess);
      variance = variance_value;
      successes = t.successes;
      ess = kish t;
      sum_w = t.sum_w;
      sum_w2 = t.sum_w2;
      trace = List.rev t.trace;
      outcomes =
        {
          masked = t.masked;
          mem_only = t.mem_only;
          resumed = t.resumed;
          quarantined = t.quarantined;
          q_crashed = t.q_crashed;
          q_timed_out = t.q_timed_out;
        };
      contributions;
      success_by_direct = t.by_direct;
      success_by_comb = t.by_comb;
    }

  let snapshot t =
    {
      snap_total = t.total;
      snap_trace_every = t.trace_every;
      snap_processed = t.processed;
      snap_strata = Array.to_list t.strata;
      snap_accs = Array.to_list (Array.map Welford.state t.accs);
      snap_pess = Array.to_list (Array.map Welford.state t.pess);
      snap_masked = t.masked;
      snap_mem_only = t.mem_only;
      snap_resumed = t.resumed;
      snap_quarantined = t.quarantined;
      snap_q_crashed = t.q_crashed;
      snap_q_timed_out = t.q_timed_out;
      snap_successes = t.successes;
      snap_by_direct = t.by_direct;
      snap_by_comb = t.by_comb;
      snap_sum_w = t.sum_w;
      snap_sum_w2 = t.sum_w2;
      snap_contributions = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.contributions [];
      snap_trace = List.rev t.trace;
    }

  let restore ?(obs = Obs.disabled) s =
    if List.length s.snap_accs <> List.length s.snap_strata
       || List.length s.snap_pess <> List.length s.snap_strata
    then invalid_arg "Ssf.Tally.restore: accumulator/strata arity mismatch";
    let strata = Array.of_list s.snap_strata in
    let contributions = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace contributions k v) s.snap_contributions;
    {
      total = s.snap_total;
      trace_every = s.snap_trace_every;
      strata;
      accs = Array.of_list (List.map Welford.of_state s.snap_accs);
      pess = Array.of_list (List.map Welford.of_state s.snap_pess);
      index = make_index strata;
      processed = s.snap_processed;
      masked = s.snap_masked;
      mem_only = s.snap_mem_only;
      resumed = s.snap_resumed;
      quarantined = s.snap_quarantined;
      q_crashed = s.snap_q_crashed;
      q_timed_out = s.snap_q_timed_out;
      successes = s.snap_successes;
      by_direct = s.snap_by_direct;
      by_comb = s.snap_by_comb;
      sum_w = s.snap_sum_w;
      sum_w2 = s.snap_sum_w2;
      contributions;
      trace = List.rev s.snap_trace;
      obs;
      inst = make_inst obs;
      start = Fmc_obs.Clock.now ();
      (* Throughput telemetry covers this segment only: a resumed campaign
         should not average in the wall-clock gap since the checkpoint. *)
      base = s.snap_processed;
    }

  (* ---------------------------------------------------------------- *)
  (* Snapshot codec: the line-oriented text encoding shared verbatim by
     the durable campaign checkpoint (Campaign, v3) and the distributed
     wire protocol (Fmc_dist). Floats are hex float literals ("%h"),
     which round-trip bit-exactly through [float_of_string], so a
     decoded snapshot restores the identical accumulator. *)

  let hexf = Printf.sprintf "%h"

  let to_string (s : snapshot) =
    let buf = Buffer.create 1024 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pr "samples %d\n" s.snap_total;
    pr "trace_every %d\n" s.snap_trace_every;
    pr "processed %d\n" s.snap_processed;
    pr "counts %d %d %d %d %d %d %d %d %d\n" s.snap_masked s.snap_mem_only s.snap_resumed
      s.snap_quarantined s.snap_q_crashed s.snap_q_timed_out s.snap_successes s.snap_by_direct
      s.snap_by_comb;
    pr "weights %s %s\n" (hexf s.snap_sum_w) (hexf s.snap_sum_w2);
    pr "strata %d\n" (List.length s.snap_strata);
    List.iter2
      (fun (stratum, mass) ((n, mean, m2), (pn, pmean, pm2)) ->
        pr "stratum %s %s %d %s %s %d %s %s\n" (Sampler.stratum_name stratum) (hexf mass) n
          (hexf mean) (hexf m2) pn (hexf pmean) (hexf pm2))
      s.snap_strata
      (List.combine s.snap_accs s.snap_pess);
    pr "contributions %d\n" (List.length s.snap_contributions);
    List.iter
      (fun ((group, bit), w) -> pr "contribution %s %d %s\n" group bit (hexf w))
      s.snap_contributions;
    pr "trace %d\n" (List.length s.snap_trace);
    List.iter (fun (i, e) -> pr "tracepoint %d %s\n" i (hexf e)) s.snap_trace;
    Buffer.contents buf

  exception Bad of string

  let of_string text =
    let lines = String.split_on_char '\n' text in
    (* Tolerate a trailing newline but nothing else after the trace block. *)
    let lines = ref (List.filter (fun l -> l <> "") lines) in
    let lineno = ref 0 in
    let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
    let fields key =
      match !lines with
      | [] -> bad "truncated snapshot: expected %S" key
      | l :: rest -> (
          incr lineno;
          lines := rest;
          match String.split_on_char ' ' l with
          | k :: v when k = key -> v
          | k :: _ -> bad "line %d: expected %S, found %S" !lineno key k
          | [] -> bad "line %d: empty line, expected %S" !lineno key)
    in
    let one key =
      match fields key with
      | [ v ] -> v
      | l -> bad "line %d: %s wants 1 field, got %d" !lineno key (List.length l)
    in
    let int_of key v =
      try int_of_string v with _ -> bad "line %d: bad int %S in %s" !lineno v key
    in
    let float_of key v =
      try float_of_string v with _ -> bad "line %d: bad float %S in %s" !lineno v key
    in
    match
      let total = int_of "samples" (one "samples") in
      let trace_every = int_of "trace_every" (one "trace_every") in
      let processed = int_of "processed" (one "processed") in
      let masked, mem_only, resumed, quarantined, q_crashed, q_timed_out, successes, by_direct, by_comb
          =
        match fields "counts" with
        | [ a; b; c; d; e; f; g; h; i ] ->
            ( int_of "counts" a, int_of "counts" b, int_of "counts" c, int_of "counts" d,
              int_of "counts" e, int_of "counts" f, int_of "counts" g, int_of "counts" h,
              int_of "counts" i )
        | _ -> bad "line %d: counts wants 9 fields" !lineno
      in
      let sum_w, sum_w2 =
        match fields "weights" with
        | [ a; b ] -> (float_of "weights" a, float_of "weights" b)
        | _ -> bad "line %d: weights wants 2 fields" !lineno
      in
      let n_strata = int_of "strata" (one "strata") in
      let strata = ref [] and accs = ref [] and pess = ref [] in
      for _ = 1 to n_strata do
        match fields "stratum" with
        | [ name; mass; n; mean; m2; pn; pmean; pm2 ] ->
            let stratum =
              match Sampler.stratum_of_name name with
              | Some s -> s
              | None -> bad "line %d: unknown stratum %S" !lineno name
            in
            strata := (stratum, float_of "stratum" mass) :: !strata;
            accs := (int_of "stratum" n, float_of "stratum" mean, float_of "stratum" m2) :: !accs;
            pess := (int_of "stratum" pn, float_of "stratum" pmean, float_of "stratum" pm2) :: !pess
        | _ -> bad "line %d: stratum wants 8 fields" !lineno
      done;
      let n_contrib = int_of "contributions" (one "contributions") in
      let contribs = ref [] in
      for _ = 1 to n_contrib do
        match fields "contribution" with
        | [ group; bit; w ] ->
            contribs := ((group, int_of "contribution" bit), float_of "contribution" w) :: !contribs
        | _ -> bad "line %d: contribution wants 3 fields" !lineno
      done;
      let n_trace = int_of "trace" (one "trace") in
      let trace = ref [] in
      for _ = 1 to n_trace do
        match fields "tracepoint" with
        | [ i; e ] -> trace := (int_of "tracepoint" i, float_of "tracepoint" e) :: !trace
        | _ -> bad "line %d: tracepoint wants 2 fields" !lineno
      done;
      if !lines <> [] then bad "line %d: trailing data after the trace block" !lineno;
      {
        snap_total = total;
        snap_trace_every = trace_every;
        snap_processed = processed;
        snap_strata = List.rev !strata;
        snap_accs = List.rev !accs;
        snap_pess = List.rev !pess;
        snap_masked = masked;
        snap_mem_only = mem_only;
        snap_resumed = resumed;
        snap_quarantined = quarantined;
        snap_q_crashed = q_crashed;
        snap_q_timed_out = q_timed_out;
        snap_successes = successes;
        snap_by_direct = by_direct;
        snap_by_comb = by_comb;
        snap_sum_w = sum_w;
        snap_sum_w2 = sum_w2;
        snap_contributions = List.rev !contribs;
        snap_trace = List.rev !trace;
      }
    with
    | s -> Ok s
    | exception Bad msg -> Error msg

  (* Because [to_string] is canonical (one serializer, hex floats, fixed
     line order), hashing the encoding hashes the statistics: equal
     digests iff bit-identical accumulators. *)
  let digest_hex blob = Stdlib.Digest.to_hex (Stdlib.Digest.string blob)
end

(* The analytical result a pruned sample is tallied with: exactly what
   [Engine.run_sample] returns for a provably masked sample. The pruner's
   certificate guarantees outcome/success/flips; [direct]/[latched]/
   [struck_cells] are only read by [Tally.record] on successful samples,
   which a masked one never is. *)
let pruned_result engine (sample : Sampler.sample) =
  {
    Engine.sample;
    te = Golden.target_cycle (Engine.golden engine) - sample.Sampler.t;
    outcome = Engine.Masked;
    success = false;
    flips = [];
    dmem_diffs = [];
    direct = [||];
    latched = [||];
    struck_cells = 0;
  }

(* A per-sample fault model. The record is plain functions so [lib/core]
   stays independent of the model registry ([Fmc_fault] constructs the
   synthetic ones). [inj_model] is the canonical model string
   ("name:k=v,...") recorded in campaign checkpoints and error
   messages. *)
type inject = {
  inj_model : string;
  inj_run : Engine.t -> ?cycle_budget:int -> Fmc_prelude.Rng.t -> Sampler.sample -> Engine.run_result;
  inj_causal : Engine.t -> Engine.run_result -> (string * int) list;
  inj_prunable : bool;
}

let disc_transient =
  {
    inj_model = "disc-transient";
    inj_run =
      (fun engine ?cycle_budget rng sample -> Engine.run_sample engine ?cycle_budget rng sample);
    inj_causal = Engine.causal_flips;
    inj_prunable = true;
  }

let disc_ablation ?cell_filter ?impact_cycles ?hardened ?resilience () =
  if cell_filter = None && impact_cycles = None && hardened = None then disc_transient
  else
    let tags =
      [
        Option.map (fun _ -> "cell_filter") cell_filter;
        Option.map (Printf.sprintf "impact_cycles=%d") impact_cycles;
        Option.map (fun _ -> "hardened") hardened;
        Option.map (Printf.sprintf "resilience=%g") resilience;
      ]
    in
    {
      inj_model = String.concat "+" ("disc-transient" :: List.filter_map Fun.id tags);
      inj_run =
        (fun engine ?cycle_budget rng sample ->
          Engine.run_sample engine ?cell_filter ?impact_cycles ?hardened ?resilience ?cycle_budget
            rng sample);
      (* The leave-one-out replay re-strikes with the unmodified model, so
         it cannot attribute a filtered, multi-cycle or hardened strike;
         credit the raw flips instead. The certificates do not cover
         these variants either. *)
      inj_causal = (fun _ result -> result.Engine.flips);
      inj_prunable = false;
    }

let run_samples ?(obs = Obs.disabled) ?(causal = true) ?prune ?(inject = disc_transient)
    ?cycle_budget ?fault_hook ?quarantine ?(after = ignore) ?(offset = 0) ?(stop = fun _ -> false)
    engine prepared tally rng =
  if prune <> None && not inject.inj_prunable then
    invalid_arg
      (Printf.sprintf
         "Ssf: ?prune cannot be combined with fault model %s (analytical masking certificates are \
          only sound for the unmodified disc-transient model)"
         inject.inj_model);
  let evaluate i sample =
    match prune with
    | Some covered when covered sample ->
        (* Certified masked: skip the simulation (and the fault hook) and
           tally analytically with the original weight. The native model
           consumes no randomness, so the RNG stream — and hence every
           later draw and the final report — is untouched by the skip. *)
        (pruned_result engine sample, [])
    | _ ->
        Option.iter (fun h -> h i sample) fault_hook;
        let result = inject.inj_run engine ?cycle_budget rng sample in
        let attributed =
          if result.Engine.success && causal then inject.inj_causal engine result
          else result.Engine.flips
        in
        (result, attributed)
  in
  (* Route the handle into the engine's phase instrumentation for the
     duration of the run (restoring whatever the engine carried before),
     so callers only ever thread one [?obs]. *)
  let saved = if Obs.enabled obs then Some (Engine.obs engine) else None in
  Option.iter (fun _ -> Engine.set_obs engine obs) saved;
  Fun.protect ~finally:(fun () -> Option.iter (Engine.set_obs engine) saved) @@ fun () ->
  while Tally.processed tally < Tally.total tally && not (stop tally) do
    let sample = Sampler.draw ~obs prepared rng in
    let i = offset + Tally.processed tally + 1 in
    (match quarantine with
    | None ->
        let result, attributed = evaluate i sample in
        Tally.record tally sample result ~attributed
    | Some sink -> (
        match evaluate i sample with
        | result, attributed -> Tally.record tally sample result ~attributed
        | exception Sys.Break -> raise Sys.Break
        | exception e ->
            let reason =
              match e with Fmc_cpu.System.Cycle_budget_exhausted _ -> Q_timed_out | _ -> Q_crashed
            in
            Tally.quarantine tally sample ~reason;
            sink i sample reason e));
    (* Outside the guard: an exception here aborts the run instead of
       quarantining the sample. *)
    after (Tally.processed tally)
  done

let estimate ?obs ?(trace_every = 50) ?causal ?prune ?inject engine prepared ~samples ~seed =
  if samples <= 0 then invalid_arg "Ssf.estimate: non-positive sample count";
  let tally = Tally.create ?obs ~trace_every prepared ~total:samples in
  run_samples ?obs ?causal ?prune ?inject engine prepared tally (Rng.create seed);
  Tally.report tally ~strategy:(Sampler.name prepared)

(* Permutation-invariant float reduction: sort the addends before folding.
   IEEE addition is commutative, so any two argument lists that are
   permutations of each other produce the bit-identical sum — which makes
   a merged report independent of the order its parts arrived in (worker
   completion order in a distributed campaign, batch completion order in
   {!estimate_parallel}). *)
let canonical_sum xs = List.fold_left ( +. ) 0. (List.sort compare xs)

(* Merge the running-estimate traces by {e local sample index}: sweep the
   union of the per-report trace indices in ascending order, keep each
   report's latest (count, estimate) pair, and emit the pooled running
   estimate at every step. The x coordinate is the total number of samples
   finished across all parts at that step, so a distributed convergence
   plot lines up with the single-process one — and, unlike offsetting each
   trace by the cumulative n of the reports before it, the result does not
   depend on the order of the report list. *)
let merge_traces (reports : report list) =
  let parts = Array.of_list (List.map (fun r -> Array.of_list r.trace) reports) in
  let cursor = Array.make (Array.length parts) 0 in
  let cur = Array.make (Array.length parts) (0, 0.) in
  let indices =
    List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.trace) reports)
  in
  List.map
    (fun k ->
      Array.iteri
        (fun p points ->
          (* Per-part traces are chronological, so a cursor sweep visits
             every point exactly once across the whole merge. *)
          while cursor.(p) < Array.length points && fst points.(cursor.(p)) <= k do
            cur.(p) <- points.(cursor.(p));
            cursor.(p) <- cursor.(p) + 1
          done)
        parts;
      let total = Array.fold_left (fun acc (c, _) -> acc + c) 0 cur in
      let est =
        canonical_sum (Array.to_list (Array.map (fun (c, e) -> float_of_int c *. e) cur))
        /. float_of_int (max 1 total)
      in
      (total, est))
    indices

let merge_reports (reports : report list) =
  match reports with
  | [] -> invalid_arg "Ssf.merge_reports: empty"
  | first :: _ ->
      let n = List.fold_left (fun acc r -> acc + r.n) 0 reports in
      (* Recombine the stratified estimate: per-sample weighted values are
         not retained, so merge via the variance-weighted formulas on the
         per-report summaries (each report is a stratified estimate over
         the same strata with the same masses; averaging the estimates with
         sample-count weights is exact for the mean, and the pooled
         effective variance follows the same weighting). Every float
         reduction goes through {!canonical_sum}, so the merged report is
         bit-identical under any permutation of [reports]. *)
      let csum f = canonical_sum (List.map f reports) in
      let ssf = csum (fun r -> float_of_int r.n *. r.ssf) /. float_of_int n in
      let ssf_upper = csum (fun r -> float_of_int r.n *. r.ssf_upper) /. float_of_int n in
      let variance = csum (fun r -> float_of_int r.n *. r.variance) /. float_of_int n in
      let successes = List.fold_left (fun acc r -> acc + r.successes) 0 reports in
      let outcomes =
        List.fold_left
          (fun acc r ->
            {
              masked = acc.masked + r.outcomes.masked;
              mem_only = acc.mem_only + r.outcomes.mem_only;
              resumed = acc.resumed + r.outcomes.resumed;
              quarantined = acc.quarantined + r.outcomes.quarantined;
              q_crashed = acc.q_crashed + r.outcomes.q_crashed;
              q_timed_out = acc.q_timed_out + r.outcomes.q_timed_out;
            })
          { masked = 0; mem_only = 0; resumed = 0; quarantined = 0; q_crashed = 0; q_timed_out = 0 }
          reports
      in
      (* Pool the Kish ESS from the raw weight sums: per-report ESS values
         are not additive when weight scales differ across reports, but the
         defining sums are. *)
      let sum_w = csum (fun r -> r.sum_w) in
      let sum_w2 = csum (fun r -> r.sum_w2) in
      let contributions =
        (* Collect every report's weight per key and canonical-sum each
           bucket, so a key credited by several reports pools to the same
           float no matter the report order. *)
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun r ->
            List.iter
              (fun (k, w) ->
                let cur = try Hashtbl.find tbl k with Not_found -> [] in
                Hashtbl.replace tbl k (w :: cur))
              r.contributions)
          reports;
        sort_contributions (Hashtbl.fold (fun k ws acc -> (k, canonical_sum ws) :: acc) tbl [])
      in
      let trace = merge_traces reports in
      {
        strategy = first.strategy;
        n;
        ssf;
        ssf_upper;
        variance;
        successes;
        trace;
        outcomes;
        contributions;
        success_by_direct = List.fold_left (fun acc r -> acc + r.success_by_direct) 0 reports;
        success_by_comb = List.fold_left (fun acc r -> acc + r.success_by_comb) 0 reports;
        ess = (if sum_w2 > 0. then sum_w *. sum_w /. sum_w2 else float_of_int n);
        sum_w;
        sum_w2;
      }

let shard_plan ~samples ~shard_size =
  if samples <= 0 then invalid_arg "Ssf.shard_plan: non-positive sample count";
  if shard_size <= 0 then invalid_arg "Ssf.shard_plan: non-positive shard size";
  let shards = (samples + shard_size - 1) / shard_size in
  Array.init shards (fun i ->
      let start = i * shard_size in
      (start, min shard_size (samples - start)))

let estimate_parallel ?domains ?causal ?(batch = 500) ?(max_batch_retries = 2) ?batch_hook
    ?(obs = Obs.disabled) ~engine_factory prepared ~samples ~seed =
  let domains =
    match domains with Some d -> max 1 d | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if samples <= 0 then invalid_arg "Ssf.estimate_parallel: non-positive sample count";
  if batch <= 0 then invalid_arg "Ssf.estimate_parallel: non-positive batch";
  let n_batches = (samples + batch - 1) / batch in
  let size b = if b = n_batches - 1 then samples - (batch * (n_batches - 1)) else batch in
  (* Supervised work queue: per-batch seeds depend only on the batch index,
     so the merged result is deterministic no matter which domain ends up
     running which batch, and a crashed domain's completed batches survive
     (each lives in its own slot of [results]). A failed batch is re-queued
     with bounded retries; the worker that crashed continues on a fresh
     engine, since an exception may have left the shared simulator state of
     its old one poisoned. *)
  let mutex = Mutex.create () in
  let pending = Queue.create () in
  for b = 0 to n_batches - 1 do
    Queue.add b pending
  done;
  let attempts = Array.make n_batches 0 in
  let results = Array.make n_batches None in
  let failures = ref [] in
  let pop () =
    Mutex.protect mutex (fun () -> if Queue.is_empty pending then None else Some (Queue.pop pending))
  in
  let backoff k =
    (* Exponential backoff before handing the batch back to the queue. *)
    for _ = 1 to (1 lsl min k 10) * 4096 do
      Domain.cpu_relax ()
    done
  in
  (* Workers observe into private forks (registries and tracers are
     single-domain); the supervisor absorbs them after the join, so the
     merged metrics cover all batches and the trace carries one tid per
     worker. The progress sink intentionally does not fork. *)
  let forked = ref [] in
  let worker widx () =
    let wobs =
      if not (Obs.enabled obs) then Obs.disabled
      else begin
        let o = Obs.fork obs ~tid:(widx + 1) in
        Mutex.protect mutex (fun () -> forked := o :: !forked);
        o
      end
    in
    let engine = ref (engine_factory ()) in
    let rec loop () =
      match pop () with
      | None -> ()
      | Some b ->
          (match
             (match batch_hook with Some h -> h b | None -> ());
             estimate ~obs:wobs ?causal !engine prepared ~samples:(size b)
               ~seed:(seed + (7919 * (b + 1)))
           with
          | r ->
              Mutex.protect mutex (fun () -> results.(b) <- Some r);
              loop ()
          | exception e ->
              let msg = Printexc.to_string e in
              let retry =
                Mutex.protect mutex (fun () ->
                    attempts.(b) <- attempts.(b) + 1;
                    failures := (b, msg) :: !failures;
                    attempts.(b) <= max_batch_retries)
              in
              engine := engine_factory ();
              if retry then begin
                backoff attempts.(b);
                Mutex.protect mutex (fun () -> Queue.add b pending)
              end;
              loop ())
    in
    loop ()
  in
  let spawned = List.init (min domains n_batches) (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join spawned;
  List.iter (Obs.absorb obs) (List.rev !forked);
  let reports = List.filter_map Fun.id (Array.to_list results) in
  if reports = [] then
    failwith
      (Printf.sprintf "Ssf.estimate_parallel: every batch failed permanently (last error: %s)"
         (match !failures with (_, m) :: _ -> m | [] -> "unknown"));
  merge_reports reports

let confidence_interval report ~z =
  let half = z *. sqrt (report.variance /. float_of_int (max 1 report.n)) in
  (Float.max 0. (report.ssf -. half), Float.min 1. (report.ssf +. half))

let estimate_until ?obs ?(trace_every = 50) ?causal ?prune ?inject ?(batch = 500)
    ?(max_samples = 200_000) engine prepared ~half_width ~z ~seed =
  if half_width <= 0. then invalid_arg "Ssf.estimate_until: non-positive half_width";
  if batch <= 0 then invalid_arg "Ssf.estimate_until: non-positive batch";
  let strategy = Sampler.name prepared in
  let tally = Tally.create ?obs ~trace_every prepared ~total:(max batch max_samples) in
  (* One pass over the seed's stream, tested for convergence only at the
     doubling schedule's points, so the report at a stop is exactly
     [estimate ~samples:n]'s. *)
  let check_at = ref batch in
  let stop t =
    let n = Tally.processed t in
    n = !check_at
    && begin
         let lo, hi = confidence_interval (Tally.report t ~strategy) ~z in
         let converged = (hi -. lo) /. 2. <= half_width in
         if not converged then check_at := min max_samples (max (n + batch) (2 * n));
         converged
       end
  in
  run_samples ?obs ?causal ?prune ?inject ~stop engine prepared tally (Rng.create seed);
  Tally.close_trace tally;
  Tally.report tally ~strategy

let contribution_coverage report ~fraction =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. report.contributions in
  if total <= 0. then []
  else begin
    let rec take acc covered = function
      | [] -> List.rev acc
      | (k, w) :: rest ->
          let covered = covered +. w in
          let acc = (k, w) :: acc in
          if covered >= fraction *. total then List.rev acc else take acc covered rest
    in
    take [] 0. report.contributions
  end
