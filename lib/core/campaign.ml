module Rng = Fmc_prelude.Rng
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics

type disposition = Crashed of string | Timed_out

type quarantine_entry = {
  q_index : int;
  q_disposition : disposition;
  q_stratum : Sampler.stratum;
  q_t : int;
  q_center : Fmc_netlist.Netlist.node;
  q_radius : float;
  q_width : float;
  q_time_frac : float;
  q_weight : float;
}

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
(* Checkpoint serialization: a line-oriented, versioned text format (v5;
   any other version is refused). A campaign header (strategy, canonical
   fault model, seed, RNG state) wraps the shared {!Ssf.Tally.to_string}
   codec (the same serializer the distributed wire protocol ships shard
   results with), and a "crc %08x" trailer line — the CRC-32 of every
   byte up to and including the "end" marker — detects a truncated or
   bit-flipped checkpoint before any of it is parsed. Floats are hex
   float literals ("%h"), which round-trip bit-exactly through
   [float_of_string]; the RNG state is the SplitMix64 int64 word. The
   file is written to a sibling ".tmp" and atomically renamed into
   place, so a kill mid-write can never destroy the previous good
   checkpoint. *)

exception Checkpoint_corrupt of { path : string; reason : string }

let () =
  Printexc.register_printer (function
    | Checkpoint_corrupt { path; reason } ->
        Some (Printf.sprintf "Campaign.Checkpoint_corrupt(%s: %s)" path reason)
    | _ -> None)

let corrupt_at path fmt =
  Printf.ksprintf (fun reason -> raise (Checkpoint_corrupt { path; reason })) fmt

let hexf = Printf.sprintf "%h"

let checkpoint_body ~seed ~strategy ~model ~rng_state (s : Ssf.Tally.snapshot) =
  let body = Buffer.create 1024 in
  Printf.bprintf body "faultmc-campaign %d\n" checkpoint_version;
  Printf.bprintf body "strategy %s\n" strategy;
  Printf.bprintf body "model %s\n" model;
  Printf.bprintf body "seed %d\n" seed;
  Printf.bprintf body "rng %Ld\n" rng_state;
  Buffer.add_string body (Ssf.Tally.to_string s);
  Buffer.add_string body "end\n";
  Buffer.contents body

let write_checkpoint path ~seed ~strategy ~model ~rng_state (s : Ssf.Tally.snapshot) =
  let body = checkpoint_body ~seed ~strategy ~model ~rng_state s in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc body;
     Printf.fprintf oc "crc %08x\n" (Fmc_prelude.Crc32.string body)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

type checkpoint = {
  ck_strategy : string;
  ck_model : string;
  ck_seed : int;
  ck_rng : int64;
  ck_snapshot : Ssf.Tally.snapshot;
}

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Strip and verify the "crc %08x" trailer, returning the covered
   body. Any framing defect — no trailing newline, no trailer line, a
   malformed word, a digest mismatch — means the file was truncated or
   corrupted after it was sealed, and is reported as such rather than as
   whatever parse error the damaged body would have produced. *)
let verify_crc_trailer path raw =
  let corrupt fmt = corrupt_at path fmt in
  let n = String.length raw in
  if n = 0 || raw.[n - 1] <> '\n' then corrupt "truncated: missing CRC trailer";
  let tl_start =
    match String.rindex_from_opt raw (n - 2) '\n' with Some i -> i + 1 | None -> 0
  in
  let trailer = String.sub raw tl_start (n - tl_start - 1) in
  let stored =
    match String.split_on_char ' ' trailer with
    | [ "crc"; v ] when String.length v = 8 -> (
        match int_of_string_opt ("0x" ^ v) with
        | Some c -> c
        | None -> corrupt "malformed CRC trailer %S" trailer)
    | _ -> corrupt "truncated: missing CRC trailer (last line %S)" trailer
  in
  let body = String.sub raw 0 tl_start in
  let computed = Fmc_prelude.Crc32.string body in
  if computed <> stored then
    corrupt "CRC mismatch: stored %08x, computed %08x (truncated or corrupted)" stored computed;
  body

let read_checkpoint path =
  let corrupt fmt = corrupt_at path fmt in
  let raw =
    try read_whole_file path with Sys_error msg -> corrupt "unreadable: %s" msg
  in
  let header =
    match String.index_opt raw '\n' with
    | Some i -> String.sub raw 0 i
    | None -> corrupt "missing header line"
  in
  let version =
    match String.split_on_char ' ' header with
    | [ "faultmc-campaign"; v ] -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> corrupt "malformed version %S" v)
    | _ -> corrupt "malformed header %S" header
  in
  if version <> checkpoint_version then
    corrupt "unsupported checkpoint version %d (this binary reads v%d)" version checkpoint_version;
  let body = verify_crc_trailer path raw in
  let lines = ref (String.split_on_char '\n' body) in
  let lineno = ref 0 in
  let line () =
    incr lineno;
    match !lines with
    | [] | [ "" ] -> corrupt "truncated checkpoint at line %d" !lineno
    | l :: rest ->
        lines := rest;
        l
  in
  let fields key =
    let l = line () in
    match String.split_on_char ' ' l with
    | k :: rest when k = key -> rest
    | k :: _ -> corrupt "line %d: expected %S, found %S" !lineno key k
    | [] -> corrupt "line %d: empty line, expected %S" !lineno key
  in
  let one key =
    match fields key with [ v ] -> v | l -> corrupt "line %d: %s wants 1 field, got %d" !lineno key (List.length l)
  in
  let int_of key v = try int_of_string v with _ -> corrupt "line %d: bad int %S in %s" !lineno v key in
  ignore (fields "faultmc-campaign" : string list);
  let strategy = one "strategy" in
  let model = one "model" in
  let seed = int_of "seed" (one "seed") in
  let rng =
    let v = one "rng" in
    try Int64.of_string v with _ -> corrupt "line %d: bad rng state %S" !lineno v
  in
  (* The rest of the body up to the "end" marker is the shared tally codec. *)
  let buf = Buffer.create 1024 in
  let rec collect () =
    match line () with
    | "end" -> ()
    | l ->
        Buffer.add_string buf l;
        Buffer.add_char buf '\n';
        collect ()
  in
  collect ();
  let snapshot =
    match Ssf.Tally.of_string (Buffer.contents buf) with
    | Ok s -> s
    | Error msg -> corrupt "tally state: %s" msg
  in
  { ck_strategy = strategy; ck_model = model; ck_seed = seed; ck_rng = rng; ck_snapshot = snapshot }

(* ------------------------------------------------------------------ *)
(* Failure journal: one JSON object per quarantined sample, appended and
   flushed immediately so the journal survives the very crash it logs. *)

let json_string s = "\"" ^ Export.json_escape s ^ "\""

let journal_line (q : quarantine_entry) =
  let disposition, error =
    match q.q_disposition with
    | Timed_out -> ("timed_out", "per-sample cycle budget exhausted")
    | Crashed msg -> ("crashed", msg)
  in
  Printf.sprintf
    "{\"index\":%d,\"disposition\":%s,\"error\":%s,\"sample\":{\"stratum\":%s,\"t\":%d,\"center\":%d,\"radius\":%.17g,\"width\":%.17g,\"time_frac\":%.17g,\"weight\":%.17g}}"
    q.q_index (json_string disposition) (json_string error)
    (json_string (Sampler.stratum_name q.q_stratum))
    q.q_t q.q_center q.q_radius q.q_width q.q_time_frac q.q_weight

(* Compact single-line quarantine-entry codec, shared by the distributed
   wire protocol and the coordinator checkpoint. Numeric fields are fixed
   position; a crash message is the (possibly space-containing) tail of
   the line, with newlines flattened so the entry stays one line. *)

let quarantine_entry_to_string (q : quarantine_entry) =
  let base =
    Printf.sprintf "%d %s %s %d %d %s %s %s %s" q.q_index
      (match q.q_disposition with Timed_out -> "timed_out" | Crashed _ -> "crashed")
      (Sampler.stratum_name q.q_stratum)
      q.q_t q.q_center (hexf q.q_radius) (hexf q.q_width) (hexf q.q_time_frac) (hexf q.q_weight)
  in
  match q.q_disposition with
  | Timed_out -> base
  | Crashed msg -> base ^ " " ^ String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg

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
                q_stratum = stratum;
                q_t = t;
                q_center = center;
                q_radius = radius;
                q_width = width;
                q_time_frac = time_frac;
                q_weight = weight;
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

let quarantine_sink ?journal entries i (sample : Sampler.sample) reason e =
  let entry =
    {
      q_index = i;
      q_disposition =
        (match reason with
        | Ssf.Q_timed_out -> Timed_out
        | Ssf.Q_crashed -> Crashed (Printexc.to_string e));
      q_stratum = sample.Sampler.stratum;
      q_t = sample.Sampler.t;
      q_center = sample.Sampler.center;
      q_radius = sample.Sampler.radius;
      q_width = sample.Sampler.width;
      q_time_frac = sample.Sampler.time_frac;
      q_weight = sample.Sampler.weight;
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
