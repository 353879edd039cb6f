module Rng = Fmc_prelude.Rng
module Record = Fmc_prelude.Record
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics

type disposition = Crashed of string | Timed_out

type quarantine_entry = { q_index : int; q_disposition : disposition; q_sample : Sampler.sample }

type config = {
  checkpoint_path : string option;
  checkpoint_every : int;
  journal_path : string option;
  sample_budget : int option;
  handle_signals : bool;
}

let default_config =
  {
    checkpoint_path = None;
    checkpoint_every = 1000;
    journal_path = None;
    sample_budget = None;
    handle_signals = true;
  }

type status = Completed | Interrupted

type result = {
  report : Ssf.report;
  status : status;
  quarantined : quarantine_entry list;
  elapsed_s : float;
  samples_per_sec : float;
}

let checkpoint_version = 5

(* ------------------------------------------------------------------ *)
(* Checkpoint serialization: a versioned record (v5; any other version
   is refused). A campaign header (strategy, canonical fault model,
   seed, RNG state) wraps the shared {!Ssf.Tally.to_string} codec (the
   same serializer the distributed wire protocol ships shard results
   with), sealed and replaced atomically by {!Fmc_prelude.Record}, whose
   CRC trailer detects a truncated or bit-flipped checkpoint before any
   of it is parsed. The RNG state is the SplitMix64 int64 word. *)

exception Checkpoint_corrupt of { path : string; reason : string }

let () =
  Printexc.register_printer (function
    | Checkpoint_corrupt { path; reason } ->
        Some (Printf.sprintf "Campaign.Checkpoint_corrupt(%s: %s)" path reason)
    | _ -> None)

let corrupt_at path fmt =
  Printf.ksprintf (fun reason -> raise (Checkpoint_corrupt { path; reason })) fmt

let write_checkpoint path ~seed ~strategy ~model ~rng_state (s : Ssf.Tally.snapshot) =
  let body = Buffer.create 1024 in
  Printf.bprintf body "faultmc-campaign %d\n" checkpoint_version;
  Printf.bprintf body "strategy %s\n" strategy;
  Printf.bprintf body "model %s\n" model;
  Printf.bprintf body "seed %d\n" seed;
  Printf.bprintf body "rng %Ld\n" rng_state;
  Buffer.add_string body (Ssf.Tally.to_string s);
  Buffer.add_string body "end\n";
  Record.write_sealed ~path (Buffer.contents body)

type checkpoint = {
  ck_strategy : string;
  ck_model : string;
  ck_seed : int;
  ck_rng : int64;
  ck_snapshot : Ssf.Tally.snapshot;
}

let check_header header =
  match String.split_on_char ' ' header with
  | [ "faultmc-campaign"; v ] -> (
      match int_of_string_opt v with
      | Some n when n = checkpoint_version -> ()
      | Some n ->
          Record.fail "unsupported checkpoint version %d (this binary reads v%d)" n
            checkpoint_version
      | None -> Record.fail "malformed version %S" v)
  | _ -> Record.fail "malformed header %S" header

let read_checkpoint path =
  let body c =
    let ck_strategy = Record.field c "strategy" in
    let ck_model = Record.field c "model" in
    let ck_seed = Record.int_of "seed" (Record.field c "seed") in
    let ck_rng =
      let v = Record.field c "rng" in
      match Int64.of_string_opt v with Some r -> r | None -> Record.fail "bad rng state %S" v
    in
    (* The rest of the body up to the "end" marker is the shared tally codec. *)
    let tally = Buffer.create 1024 in
    let rec collect () =
      match Record.next c with
      | "end" -> ()
      | l ->
          Record.add_line tally l;
          collect ()
    in
    collect ();
    Record.finish c;
    match Ssf.Tally.of_string (Buffer.contents tally) with
    | Ok ck_snapshot -> { ck_strategy; ck_model; ck_seed; ck_rng; ck_snapshot }
    | Error msg -> Record.fail "tally state: %s" msg
  in
  match Record.load_sealed ~path ~header:check_header body with
  | Ok ck -> ck
  | Error reason -> raise (Checkpoint_corrupt { path; reason })
  | exception Sys_error msg -> corrupt_at path "unreadable: %s" msg

(* ------------------------------------------------------------------ *)
(* Failure journal: one JSON object per quarantined sample, appended and
   flushed immediately so the journal survives the very crash it logs. *)

let json_string s = "\"" ^ Fmc_obs.Jsonx.escape s ^ "\""

let journal_line (q : quarantine_entry) =
  let disposition, error =
    match q.q_disposition with
    | Timed_out -> ("timed_out", "per-sample cycle budget exhausted")
    | Crashed msg -> ("crashed", msg)
  in
  let s = q.q_sample in
  Printf.sprintf
    "{\"index\":%d,\"disposition\":%s,\"error\":%s,\"sample\":{\"stratum\":%s,\"t\":%d,\"center\":%d,\"radius\":%.17g,\"width\":%.17g,\"time_frac\":%.17g,\"weight\":%.17g}}"
    q.q_index (json_string disposition) (json_string error)
    (json_string (Sampler.stratum_name s.Sampler.stratum))
    s.Sampler.t s.Sampler.center s.Sampler.radius s.Sampler.width s.Sampler.time_frac
    s.Sampler.weight

(* Compact single-line quarantine-entry codec, shared by the distributed
   wire protocol and the service checkpoint. Numeric fields are fixed
   position; a crash message is the (possibly space-containing) tail of
   the line, with newlines flattened so the entry stays one line. *)

let quarantine_entry_to_string (q : quarantine_entry) =
  let s = q.q_sample in
  let base =
    Printf.sprintf "%d %s %s %d %d %s %s %s %s" q.q_index
      (match q.q_disposition with Timed_out -> "timed_out" | Crashed _ -> "crashed")
      (Sampler.stratum_name s.Sampler.stratum)
      s.Sampler.t s.Sampler.center (Record.hexf s.Sampler.radius) (Record.hexf s.Sampler.width)
      (Record.hexf s.Sampler.time_frac) (Record.hexf s.Sampler.weight)
  in
  match q.q_disposition with
  | Timed_out -> base
  | Crashed msg -> base ^ " " ^ Record.one_line msg

let quarantine_entry_of_string line =
  let bad msg = Error (Printf.sprintf "quarantine entry %S: %s" line msg) in
  match String.split_on_char ' ' line with
  | index :: disposition :: stratum :: t :: center :: radius :: width :: time_frac :: weight :: rest
    -> (
      match
        ( int_of_string_opt index,
          Sampler.stratum_of_name stratum,
          int_of_string_opt t,
          int_of_string_opt center,
          float_of_string_opt radius,
          float_of_string_opt width,
          float_of_string_opt time_frac,
          float_of_string_opt weight )
      with
      | Some index, Some stratum, Some t, Some center, Some radius, Some width, Some time_frac,
        Some weight -> (
          let entry disposition =
            Ok
              {
                q_index = index;
                q_disposition = disposition;
                q_sample = { Sampler.t; center; radius; width; time_frac; weight; stratum };
              }
          in
          match (disposition, rest) with
          | "timed_out", [] -> entry Timed_out
          | "timed_out", _ -> bad "unexpected trailing fields on a timed_out entry"
          | "crashed", rest -> entry (Crashed (String.concat " " rest))
          | d, _ -> bad (Printf.sprintf "unknown disposition %S" d))
      | _ -> bad "malformed numeric or stratum field")
  | _ -> bad "too few fields"

(* ------------------------------------------------------------------ *)
(* Supervised per-sample evaluation: {!Ssf.run_samples} with a
   quarantine sink that keeps the entry list (and journal) of a run. *)

let quarantine_sink ?journal entries i sample reason e =
  let entry =
    {
      q_index = i;
      q_disposition =
        (match reason with
        | Ssf.Q_timed_out -> Timed_out
        | Ssf.Q_crashed -> Crashed (Printexc.to_string e));
      q_sample = sample;
    }
  in
  entries := entry :: !entries;
  Option.iter
    (fun oc ->
      output_string oc (journal_line entry);
      output_char oc '\n';
      flush oc)
    journal

(* The handler may run on any domain of the sample loop. *)
let install_handlers flag =
  let install s =
    try Some (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set flag true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  List.filter_map install [ Sys.sigint; Sys.sigterm ]

let restore_handlers saved =
  List.iter (fun (s, old) -> try Sys.set_signal s old with Invalid_argument _ | Sys_error _ -> ()) saved

let run_loop config ~obs ~causal ?fault_hook ?prune ~inject ?stop engine prepared ~tally ~rng ~seed =
  if config.checkpoint_every <= 0 then invalid_arg "Campaign: non-positive checkpoint_every";
  let samples = Ssf.Tally.total tally in
  let strategy = Sampler.name prepared in
  let t_start = Fmc_obs.Clock.now () in
  let base_processed = Ssf.Tally.processed tally in
  let ck_counter =
    match obs.Obs.metrics with
    | None -> None
    | Some reg ->
        Some (Metrics.counter reg ~help:"durable campaign checkpoints written" "fmc_checkpoints_total")
  in
  let journal =
    Option.map (fun p -> open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 p)
      config.journal_path
  in
  let flush_checkpoint () =
    match config.checkpoint_path with
    | None -> ()
    | Some path ->
        Option.iter Metrics.inc ck_counter;
        Obs.span obs ~cat:"campaign" "checkpoint_write" (fun () ->
            write_checkpoint path ~seed ~strategy ~model:inject.Ssf.inj_model
              ~rng_state:(Rng.state rng) (Ssf.Tally.snapshot tally))
  in
  let quarantines = ref [] in
  let interrupted = Atomic.make false in
  let saved = if config.handle_signals then install_handlers interrupted else [] in
  Fun.protect
    ~finally:(fun () ->
      restore_handlers saved;
      Option.iter close_out_noerr journal)
  @@ fun () ->
  let stop t =
    Atomic.get interrupted || (match stop with Some f -> f (Ssf.Tally.processed t) | None -> false)
  in
  (* The checkpoint is taken after the sample's draws and statistics
     landed, so the stored RNG state resumes with the next sample and the
     continuation is bit-exact. *)
  let after n = if n mod config.checkpoint_every = 0 then flush_checkpoint () in
  Ssf.run_samples ~obs ~causal ?prune ~inject ?cycle_budget:config.sample_budget ?fault_hook
    ~quarantine:(quarantine_sink ?journal quarantines)
    ~after ~stop engine prepared tally rng;
  flush_checkpoint ();
  let elapsed_s = Fmc_obs.Clock.now () -. t_start in
  let done_here = Ssf.Tally.processed tally - base_processed in
  {
    report = Ssf.Tally.report tally ~strategy;
    status = (if Ssf.Tally.processed tally >= samples then Completed else Interrupted);
    quarantined = List.rev !quarantines;
    elapsed_s;
    samples_per_sec = (if elapsed_s > 0. then float_of_int done_here /. elapsed_s else 0.);
  }

let run ?(config = default_config) ?(obs = Obs.disabled) ?trace_every ?(causal = true) ?fault_hook
    ?prune ?(inject = Ssf.disc_transient) ?stop engine prepared ~samples ~seed =
  if samples <= 0 then invalid_arg "Campaign.run: non-positive sample count";
  let rng = Rng.create seed in
  let tally = Ssf.Tally.create ~obs ?trace_every prepared ~total:samples in
  run_loop config ~obs ~causal ?fault_hook ?prune ~inject ?stop engine prepared ~tally ~rng ~seed

(* ------------------------------------------------------------------ *)
(* Shard-seeded execution: the unit of work of a distributed campaign.
   A shard is a contiguous sample-index range [start, start+len) of the
   plan {!Ssf.shard_plan} cuts a campaign into; its draws come from the
   dedicated SplitMix64 substream [Rng.substream ~seed ~shard], so the
   evaluated samples depend only on (seed, shard) — never on which
   process runs the shard, how often its lease was re-issued, or what the
   other shards are doing. Re-running a shard is therefore always safe:
   it reproduces the identical snapshot. *)

type shard_result = {
  sh_shard : int;
  sh_start : int;
  sh_len : int;
  sh_snapshot : Ssf.Tally.snapshot;
  sh_quarantined : quarantine_entry list;
}

let run_shard ?(obs = Obs.disabled) ?trace_every ?causal ?sample_budget ?fault_hook ?prune ?inject
    ?on_sample engine prepared ~seed ~shard ~start ~len =
  if len <= 0 then invalid_arg "Campaign.run_shard: non-positive shard length";
  if start < 0 then invalid_arg "Campaign.run_shard: negative shard start";
  let rng = Rng.substream ~seed:(Int64.of_int seed) ~shard in
  let tally = Ssf.Tally.create ~obs ?trace_every prepared ~total:len in
  let quarantines = ref [] in
  Obs.span obs ~cat:"dist" "shard" (fun () ->
      Ssf.run_samples ~obs ?causal ?prune ?inject ?cycle_budget:sample_budget ?fault_hook
        ~quarantine:(quarantine_sink quarantines) ?after:on_sample ~offset:start engine prepared
        tally rng);
  {
    sh_shard = shard;
    sh_start = start;
    sh_len = len;
    sh_snapshot = Ssf.Tally.snapshot tally;
    sh_quarantined = List.rev !quarantines;
  }

let shard_report ~strategy (s : Ssf.Tally.snapshot) =
  Ssf.Tally.report (Ssf.Tally.restore s) ~strategy

let estimate_sharded ?(obs = Obs.disabled) ?trace_every ?(causal = true) ?sample_budget ?fault_hook
    ?prune ?inject ?(shard_size = 1000) engine prepared ~samples ~seed =
  if samples <= 0 then invalid_arg "Campaign.estimate_sharded: non-positive sample count";
  let plan = Ssf.shard_plan ~samples ~shard_size in
  let t_start = Fmc_obs.Clock.now () in
  let shards =
    Array.to_list
      (Array.mapi
         (fun shard (start, len) ->
           run_shard ~obs ?trace_every ~causal ?sample_budget ?fault_hook ?prune ?inject engine
             prepared ~seed ~shard ~start ~len)
         plan)
  in
  let strategy = Sampler.name prepared in
  let report =
    Ssf.merge_reports (List.map (fun sh -> shard_report ~strategy sh.sh_snapshot) shards)
  in
  let elapsed_s = Fmc_obs.Clock.now () -. t_start in
  {
    report;
    status = Completed;
    quarantined = List.concat_map (fun sh -> sh.sh_quarantined) shards;
    elapsed_s;
    samples_per_sec = (if elapsed_s > 0. then float_of_int samples /. elapsed_s else 0.);
  }

let resume ?config ?(obs = Obs.disabled) ?(causal = true) ?fault_hook ?prune
    ?(inject = Ssf.disc_transient) ?stop engine prepared ~path =
  let ck = read_checkpoint path in
  if ck.ck_strategy <> Sampler.name prepared then
    corrupt_at path
      "checkpoint was taken under strategy %S, not %S (the sample stream would diverge)"
      ck.ck_strategy (Sampler.name prepared);
  if ck.ck_model <> inject.Ssf.inj_model then
    corrupt_at path
      "checkpoint was taken under fault model %S, not %S (the evaluated outcomes would diverge)"
      ck.ck_model inject.Ssf.inj_model;
  let config =
    let c = Option.value config ~default:default_config in
    (* Keep writing to the checkpoint we resumed from unless redirected. *)
    if c.checkpoint_path = None then { c with checkpoint_path = Some path } else c
  in
  let rng = Rng.of_state ck.ck_rng in
  let tally = Ssf.Tally.restore ~obs ck.ck_snapshot in
  run_loop config ~obs ~causal ?fault_hook ?prune ~inject ?stop engine prepared ~tally ~rng
    ~seed:ck.ck_seed
