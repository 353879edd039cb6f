(* The traced pass of the faultmc benchmark (perfbench/run.py --trace 1).

   Runs one workload's campaign in process, mirroring the loop behind
   `faultmc evaluate` (draw, prune check, evaluate, causal attribution,
   tally) with a span around every call into the program. It then
   replays a fixed subset of the simulated samples through the public
   building blocks Engine.run_sample is made of, to split the gate-level
   cycle, and on seu-fleet times the distributed layer on a served
   campaign's real shard blobs. Repeats of the first quarter of the
   sample stream, untraced and traced, measure the tracing overhead.
   Every library call the benchmark makes sits in this file, so an API
   change touches one place.

   Output (--out): Rec's span lines, then "counter NAME VALUE",
   "check NAME ok|FAIL DETAIL" and "meta NAME VALUE" lines. The
   campaign report goes to --report-out, rendered exactly as
   `faultmc evaluate --json` prints it. *)

module N = Fmc_netlist.Netlist
module Engine = Fmc.Engine
module Golden = Fmc.Golden
module Sampler = Fmc.Sampler
module Ssf = Fmc.Ssf
module Circuit = Fmc_cpu.Circuit
module Netsys = Fmc_cpu.Netsys
module System = Fmc_cpu.System
module Arch = Fmc_cpu.Arch
module Cycle_sim = Fmc_gatesim.Cycle_sim
module Transient = Fmc_gatesim.Transient
module Protocol = Fmc_dist.Protocol
module Metrics = Fmc_obs.Metrics

let span = Rec.span

type workload = {
  program : Fmc_isa.Programs.t;
  strategy : Sampler.strategy;
  prune : bool;
  model : string option;  (** fault-model spec; [None] is disc-transient *)
}

(* The same flags perfbench/run.py passes to `faultmc evaluate`. *)
let workload_of_name = function
  | "write-causal" ->
      { program = Fmc_isa.Programs.illegal_write; strategy = Sampler.default_mixed; prune = false;
        model = None }
  | "read-pruned" ->
      { program = Fmc_isa.Programs.illegal_read; strategy = Sampler.Random; prune = true;
        model = None }
  | "seu-fleet" ->
      { program = Fmc_isa.Programs.illegal_write; strategy = Sampler.default_mixed; prune = false;
        model = Some "seu-burst" }
  | w -> failwith ("unknown workload " ^ w)

(* seu-burst's default burst: the first two struck flip-flops flip. The
   replay check below fails if the model stops matching this. *)
let seu_bits = 2

(* Every [replay_every]-th simulated sample of the main pass is replayed. *)
let replay_every = 4

let checks = ref []
let check name ok detail = checks := (name, ok, detail) :: !checks

let outcome_name = function
  | Engine.Masked -> "masked"
  | Engine.Analytical s -> Printf.sprintf "analytical:%b" s
  | Engine.Resumed s -> Printf.sprintf "resumed:%b" s

(* ------------------------------------------------------------------ *)
(* Replay: one simulated sample through Engine.run_sample's building
   blocks, each its own span, checked against the recorded result. *)

type replay_env = {
  engine : Engine.t;
  netsys : Netsys.t;  (* private to the replay; the engine keeps its own *)
  mismatches : int ref;
}

let resume env sys =
  span "cpu.rtl_resume" (fun () ->
      let program = Engine.program env.engine in
      let budget = program.Fmc_isa.Programs.max_cycles + 100 in
      ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
      Engine.observables_differ env.engine sys)

let masking env sys ~at =
  span "engine.masking" (fun () ->
      let golden_ref =
        span "golden.restore" (fun () -> Golden.restore_at (Engine.golden env.engine) at)
      in
      ( Engine.state_bit_diffs (System.state sys) (System.state golden_ref),
        System.dmem sys = System.dmem golden_ref ))

(* The gate-level injection cycle, split where Engine.gate_level_cycle
   has no seams of its own: load + settle, transient propagation, and
   the memory-port capture + latch + write-back to RTL. *)
let gate_cycle env sys (sample : Sampler.sample) gates =
  let circuit = Engine.circuit env.engine in
  let tconfig = Engine.transient_config env.engine in
  let net_dmem = Netsys.dmem env.netsys in
  let sim = Netsys.sim env.netsys in
  span "gatesim.settle" (fun () ->
      Array.blit (System.dmem sys) 0 net_dmem 0 (Array.length net_dmem);
      Netsys.load_arch env.netsys (System.state sys);
      Netsys.settle env.netsys);
  let we = circuit.Circuit.dmem_we in
  let result =
    span "gatesim.transient" (fun () ->
        let strikes =
          List.map
            (fun g ->
              {
                Transient.node = g;
                time = sample.Sampler.time_frac *. tconfig.Transient.clock_period;
                width = sample.Sampler.width;
              })
            gates
        in
        let watch = Array.concat [ [| we |]; circuit.Circuit.dmem_addr; circuit.Circuit.dmem_wdata ] in
        Transient.inject ~watch sim tconfig ~strikes)
  in
  span "engine.writeback" (fun () ->
      let hit node = Array.mem node result.Transient.watched_hits in
      let corrupted_bus nodes =
        let v = ref 0 in
        Array.iteri
          (fun i node -> if Cycle_sim.value sim node <> hit node then v := !v lor (1 lsl i))
          nodes;
        !v
      in
      if Cycle_sim.value sim we <> hit we then begin
        let addr = corrupted_bus circuit.Circuit.dmem_addr in
        net_dmem.(addr land (Array.length net_dmem - 1)) <- corrupted_bus circuit.Circuit.dmem_wdata
      end;
      Cycle_sim.latch sim;
      let next = Netsys.read_arch env.netsys in
      let st = System.state sys in
      List.iter (fun (name, _) -> Arch.set_group st name (Arch.get_group next name)) Arch.groups;
      Array.blit net_dmem 0 (System.dmem sys) 0 (Array.length net_dmem);
      System.advance_externally sys);
  result.Transient.latched

let compare_result env ~what (r : Engine.run_result) ~direct ~latched ~flips ~outcome =
  let same =
    direct = r.Engine.direct && latched = r.Engine.latched && flips = r.Engine.flips
    && outcome = r.Engine.outcome
  in
  if not same then begin
    incr env.mismatches;
    check ("replay." ^ what) false
      (Printf.sprintf "te=%d outcome %s vs run_sample %s" r.Engine.te (outcome_name outcome)
         (outcome_name r.Engine.outcome))
  end

let replay_disc env (r : Engine.run_result) =
  span "replay" (fun () ->
      let engine = env.engine in
      let sample = r.Engine.sample and te = r.Engine.te in
      let net = (Engine.circuit engine).Circuit.net in
      let sys = span "golden.restore" (fun () -> Golden.restore_at (Engine.golden engine) te) in
      let dffs, gates, _ =
        span "engine.partition" (fun () ->
            Engine.partition_disc engine sample.Sampler.center sample.Sampler.radius)
      in
      List.iter (Engine.apply_flip sys net) dffs;
      let latched = gate_cycle env sys sample gates in
      Array.iter (Engine.apply_flip sys net) latched;
      let flips, mem_clean = masking env sys ~at:(te + 1) in
      let outcome =
        if flips = [] && mem_clean then Engine.Masked
        else if
          flips <> [] && mem_clean
          && List.for_all
               (Fmc.Precharac.memory_type (Engine.precharac engine))
               (List.map (fun (g, b) -> (N.register_group net g).(b)) flips)
        then
          Engine.Analytical
            (span "engine.analytical" (fun () ->
                 Fmc.Analytical.evaluate ~program:(Engine.program engine)
                   ~corrupted:(System.state sys)))
        else Engine.Resumed (resume env sys)
      in
      compare_result env ~what:"run_sample" r ~direct:(Array.of_list dffs) ~latched ~flips ~outcome;
      (* The split cycle must latch exactly what the engine's own
         gate-level cycle latches from the same state. *)
      let reference =
        span "check.gate_level_cycle" (fun () ->
            let sys' = Golden.restore_at (Engine.golden engine) te in
            List.iter (Engine.apply_flip sys' net) dffs;
            Engine.gate_level_cycle engine sys' sample gates)
      in
      if reference <> latched then begin
        incr env.mismatches;
        check "replay.gate_level_cycle" false (Printf.sprintf "te=%d latched sets differ" te)
      end)

(* seu-burst's path: direct flips at Te, no gate-level cycle. *)
let replay_seu env (r : Engine.run_result) =
  span "replay" (fun () ->
      let engine = env.engine in
      let sample = r.Engine.sample and te = r.Engine.te in
      let net = (Engine.circuit engine).Circuit.net in
      let dffs, _, _ =
        span "engine.partition" (fun () ->
            Engine.partition_disc engine sample.Sampler.center sample.Sampler.radius)
      in
      let direct = List.filteri (fun i _ -> i < seu_bits) dffs in
      let flips, outcome =
        if direct = [] then ([], Engine.Masked)
        else begin
          let sys = span "golden.restore" (fun () -> Golden.restore_at (Engine.golden engine) te) in
          List.iter (Engine.apply_flip sys net) direct;
          let flips, mem_clean = masking env sys ~at:te in
          if flips = [] && mem_clean then ([], Engine.Masked)
          else (flips, Engine.Resumed (resume env sys))
        end
      in
      let direct = if outcome = Engine.Masked then [||] else Array.of_list direct in
      compare_result env ~what:"seu_burst" r ~direct ~latched:[||] ~flips ~outcome)

(* ------------------------------------------------------------------ *)
(* The distributed layer on a served campaign's accepted shard blobs. *)

let dist_layer ~ckpt ~served ~scratch ~heartbeats ~strategy ~telemetry =
  let state =
    span "dist.ckpt_load" (fun () ->
        match Fmc_dist.Ckpt.load ~path:ckpt with Ok s -> s | Error e -> failwith e)
  in
  let shards = state.Fmc_dist.Ckpt.st_shards in
  let digests =
    List.map
      (fun (_, tally) ->
        span "audit.digest" (fun () -> Fmc_audit.Audit.Check.result_digest ~tally ~quarantined:[]))
      shards
  in
  let roundtrip ~ext msg =
    span "dist.codec" (fun () ->
        let tag, payload = Protocol.encode_client_ext ~ext msg in
        (String.length payload, Protocol.decode_client_ext tag payload))
  in
  let bytes = ref 0 and codec_ok = ref true in
  List.iter2
    (fun (shard, tally) digest ->
      let ext = { Protocol.no_extension with Protocol.ext_telemetry = Some telemetry } in
      for i = 1 to heartbeats do
        let msg = Protocol.Heartbeat { shard; epoch = 1; samples_done = 100 * i } in
        let len, decoded = roundtrip ~ext msg in
        bytes := !bytes + len;
        match decoded with Ok (m, _) when m = msg -> () | _ -> codec_ok := false
      done;
      let ext = { ext with Protocol.ext_digest = Some digest } in
      let msg = Protocol.Shard_done { shard; epoch = 1; tally; quarantined = [] } in
      let len, decoded = roundtrip ~ext msg in
      bytes := !bytes + len;
      match decoded with
      | Ok (m, e) when m = msg && e.Protocol.ext_digest = Some digest -> ()
      | _ -> codec_ok := false)
    shards digests;
  check "dist.codec_roundtrip" !codec_ok "decoded messages equal the encoded ones";
  (* The coordinator rewrites its checkpoint after every accepted shard,
     so the k-th write carries the first k results. *)
  let prefixes =
    List.mapi
      (fun k _ -> { state with Fmc_dist.Ckpt.st_shards = List.filteri (fun i _ -> i <= k) shards })
      shards
  in
  List.iter (fun st -> span "dist.ckpt_write" (fun () -> Fmc_dist.Ckpt.save ~path:scratch st)) prefixes;
  Sys.remove scratch;
  let merged = ref "" in
  for _ = 1 to 5 do
    match span "dist.merge" (fun () -> Fmc_dist.Merge.report_of_blobs ~strategy shards) with
    | Ok report -> merged := Fmc.Export.report_json report ^ "\n"
    | Error e -> failwith e
  done;
  let served_bytes = In_channel.with_open_bin served In_channel.input_all in
  check "dist.merge_matches_served" (!merged = served_bytes)
    (Printf.sprintf "merged %s served %s" (Digest.to_hex (Digest.string !merged))
       (Digest.to_hex (Digest.string served_bytes)));
  (List.length shards, !bytes)

(* ------------------------------------------------------------------ *)
(* The campaign loop of Ssf.estimate, with a span around each program
   call when traced. *)

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let traced = { span = Rec.span }
let untraced = { span = (fun _ f -> f ()) }

type pass = {
  tally : Ssf.Tally.t;
  kept : Engine.run_result list;  (** every [replay_every]-th simulated sample *)
  simulated : int;
  pruned : int;
  causal : int;
  total_s : float;
}

let campaign { span } engine prep ~pruner ~inject ~seed ~total ~replay_every =
  let rng = Fmc_prelude.Rng.create seed in
  let tally = Ssf.Tally.create ~trace_every:50 prep ~total in
  let kept = ref [] and simulated = ref 0 and pruned = ref 0 and causal = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to total do
    let sample = span "sampler.draw" (fun () -> Sampler.draw prep rng) in
    let covered =
      match pruner with
      | Some p -> span "sva.check" (fun () -> Fmc_sva.Pruner.check p sample)
      | None -> false
    in
    if covered then begin
      incr pruned;
      span "ssf.tally_record" (fun () ->
          Ssf.Tally.record tally sample (Ssf.pruned_result engine sample) ~attributed:[])
    end
    else begin
      let result =
        match inject with
        | None -> span "engine.run_sample" (fun () -> Engine.run_sample engine rng sample)
        | Some inj -> span "fault.seu_run" (fun () -> inj.Ssf.inj_run engine rng sample)
      in
      let attributed =
        if not result.Engine.success then result.Engine.flips
        else
          match inject with
          | None ->
              incr causal;
              span "engine.causal" (fun () -> Engine.causal_flips engine result)
          | Some inj -> inj.Ssf.inj_causal engine result
      in
      span "ssf.tally_record" (fun () -> Ssf.Tally.record tally sample result ~attributed);
      if result.Engine.te >= 1 then begin
        incr simulated;
        if !simulated mod replay_every = 0 then kept := result :: !kept
      end
    end
  done;
  {
    tally;
    kept = List.rev !kept;
    simulated = !simulated;
    pruned = !pruned;
    causal = !causal;
    total_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 7 and samples = ref 0 in
  let out = ref "" and report_out = ref "" and ckpt = ref "" and served = ref "" in
  let scratch = ref "" and heartbeats = ref 10 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME write-causal, read-pruned or seu-fleet");
      ("--seed", Arg.Set_int seed, "N campaign seed");
      ("--samples", Arg.Set_int samples, "N campaign size");
      ("--out", Arg.Set_string out, "FILE trace output");
      ("--report-out", Arg.Set_string report_out, "FILE campaign report (--json form)");
      ("--ckpt", Arg.Set_string ckpt, "FILE served campaign's coordinator checkpoint");
      ("--served", Arg.Set_string served, "FILE served campaign's --json report");
      ("--scratch", Arg.Set_string scratch, "FILE scratch path for checkpoint writes");
      ("--heartbeats-per-shard", Arg.Set_int heartbeats, "N heartbeats a worker sends per shard");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tracer --workload NAME --samples N --out FILE --report-out FILE [dist options]";
  if !samples <= 0 || !out = "" || !report_out = "" then failwith "missing --samples/--out/--report-out";
  let w = workload_of_name !workload in
  let t_start = Unix.gettimeofday () in
  (* Set-up, in the order `faultmc evaluate` performs it. *)
  let ctx = span "experiments.context" (fun () -> Fmc.Experiments.context ()) in
  let engine = span "engine.create" (fun () -> Fmc.Experiments.engine_for ctx w.program) in
  let static_vuln = span "engine.static_vuln" (fun () -> Engine.static_vulnerable engine) in
  let attack = span "experiments.attack" (fun () -> Fmc.Experiments.default_attack ctx) in
  let prep =
    span "sampler.prepare" (fun () ->
        Sampler.prepare ~static_vuln w.strategy attack (Fmc.Experiments.precharac ctx)
          ~placement:(Engine.placement engine))
  in
  let pruner =
    if w.prune then Some (span "sva.pruner_create" (fun () -> Fmc_sva.Pruner.create engine))
    else None
  in
  let inject =
    match w.model with
    | None -> None
    | Some spec -> (
        match Fmc_fault.Registry.parse spec with
        | Ok m -> m.Fmc_fault.Model.inject
        | Error e -> failwith (Fmc_fault.Registry.error_message e))
  in
  let run ?(replay_every = max_int) spanner total =
    campaign spanner engine prep ~pruner ~inject ~seed:!seed ~total ~replay_every
  in
  (* The engine's own counters (restores, RTL cycles, gate-level
     cycles) are the exact per-sample work counts. *)
  let reg = Metrics.create () in
  Engine.set_obs engine (Fmc_obs.Obs.create ~metrics:reg ());
  let loop_mark = Rec.mark () in
  let main = run traced !samples ~replay_every in
  let loop_words = Rec.top_level_words ~since:loop_mark in
  let main_spans = Rec.mark () - loop_mark in
  (* Tracing overhead: the first quarter of the sample stream again,
     untraced (no spans, no engine counters), traced, and untraced, so
     a drift in machine speed cancels. All three run with the caches
     the main pass warmed; the traced repeat's spans are dropped. *)
  let quarter = max 1 (!samples / 4) in
  let untraced_pass () =
    Engine.set_obs engine Fmc_obs.Obs.disabled;
    span "trace.overhead_pass" (fun () -> (run untraced quarter).total_s)
  in
  let u1 = untraced_pass () in
  Engine.set_obs engine (Fmc_obs.Obs.create ~metrics:(Metrics.create ()) ());
  let t2 =
    span "trace.overhead_pass" (fun () ->
        let mark = Rec.mark () in
        let p = run traced quarter in
        Rec.truncate mark;
        p.total_s)
  in
  let u2 = untraced_pass () in
  (* The recorder's own cost per span, which bounds the overhead more
     tightly than the A/B above can resolve. *)
  let probes = 200_000 in
  let span_cost_s =
    span "trace.overhead_pass" (fun () ->
        let mark = Rec.mark () and t0 = Unix.gettimeofday () in
        for _ = 1 to probes do
          Rec.span "probe" ignore
        done;
        let dt = Unix.gettimeofday () -. t0 in
        Rec.truncate mark;
        dt /. float_of_int probes)
  in
  let tally = main.tally in
  let snapshot = Metrics.snapshot reg in
  let report =
    span "ssf.report" (fun () ->
        Fmc.Export.report_json (Ssf.Tally.report tally ~strategy:(Sampler.name prep)) ^ "\n")
  in
  Out_channel.with_open_bin !report_out (fun oc -> output_string oc report);
  let env =
    { engine; netsys = Netsys.create (Engine.circuit engine) w.program; mismatches = ref 0 }
  in
  let replays = main.kept in
  List.iter (if inject = None then replay_disc env else replay_seu env) replays;
  check "replay" (!(env.mismatches) = 0)
    (Printf.sprintf "%d of %d replays differ" !(env.mismatches) (List.length replays));
  let dist =
    if !ckpt = "" then None
    else
      (* A worker piggybacks its whole registry, which also carries the
         tally's metrics: add those to the engine counters. *)
      let telemetry =
        let treg = Metrics.create () in
        let t =
          Ssf.Tally.create ~obs:(Fmc_obs.Obs.create ~metrics:treg ()) prep
            ~total:(max 1 (List.length replays))
        in
        List.iter
          (fun (r : Engine.run_result) ->
            Ssf.Tally.record t r.Engine.sample r ~attributed:r.Engine.flips)
          replays;
        Fmc_obs.Telemetry.encode
          (Fmc_obs.Telemetry.make ~metrics:(Metrics.merge snapshot (Metrics.snapshot treg)) ())
      in
      Some
        (dist_layer ~ckpt:!ckpt ~served:!served ~scratch:!scratch ~heartbeats:!heartbeats
           ~strategy:(Sampler.name prep) ~telemetry)
  in
  let wall_s = Unix.gettimeofday () -. t_start in
  let counter name =
    match Metrics.find snapshot name with Some (Metrics.Counter v) -> v | _ -> 0.
  in
  Out_channel.with_open_bin !out (fun oc ->
      Rec.dump oc;
      let pr fmt = Printf.fprintf oc fmt in
      pr "counter samples %d\n" !samples;
      pr "counter simulated %d\n" main.simulated;
      pr "counter pruned %d\n" main.pruned;
      pr "counter causal_calls %d\n" main.causal;
      pr "counter replays %d\n" (List.length replays);
      pr "counter restores %.0f\n" (counter "fmc_restores_total");
      pr "counter rtl_cycles %.0f\n" (counter "fmc_rtl_cycles_total");
      pr "counter gate_cycles %.0f\n" (counter "fmc_gate_cycles_total");
      pr "counter minor_words %.0f\n" loop_words;
      Option.iter
        (fun (shards, bytes) ->
          pr "counter dist_shards %d\n" shards;
          pr "counter dist_codec_bytes %d\n" bytes)
        dist;
      pr "meta wall_s %.6f\n" wall_s;
      pr "meta loop_s %.6f\n" main.total_s;
      pr "meta overhead_samples %d\n" quarter;
      pr "meta overhead_traced_s %.6f\n" t2;
      pr "meta overhead_untraced_s %.6f\n" ((u1 +. u2) /. 2.);
      pr "meta span_cost_ns %.3f\n" (1e9 *. span_cost_s);
      pr "meta main_spans %d\n" main_spans;
      List.iter
        (fun (name, ok, detail) -> pr "check %s %s %s\n" name (if ok then "ok" else "FAIL") detail)
        (List.rev !checks))
