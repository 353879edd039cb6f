(* faultmc — command-line front end of the cross-level Monte Carlo
   fault-attack evaluation framework.

   Subcommands:
     info          processor netlist and pre-characterization summary
     evaluate      estimate the System Security Factor
     characterize  per-register lifetime/contamination statistics (Fig 4)
     sweep         temporal / spatial attack-accuracy sweeps (Fig 11)
     harden        critical registers and hardening trade-off
     lint          static-analysis passes over the benchmark netlists
     sva           sound masking certificates (workload constants, observability windows)
     serve         distributed-campaign coordinator (shard leases over TCP/Unix sockets)
     worker        distributed-campaign worker (leases shards from a coordinator or pool)
     sched         multi-campaign scheduler (durable WAL queue, crash recovery, shedding)
     submit        queue a campaign on a scheduler (and optionally wait for its report)
     status        a scheduler's queue, progress and ETAs
     cancel        cancel a queued or running campaign
     experiments   regenerate every paper figure and table *)

open Cmdliner

let ppf = Format.std_formatter

(* Shared argument definitions. *)

let samples_arg default =
  let doc = "Number of Monte Carlo fault-attack runs." in
  Arg.(value & opt int default & info [ "n"; "samples" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (runs are fully deterministic for a fixed seed)." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Name → value resolution shared by the arg parsers and the pool
   worker's spec resolver (specs carry names over the wire). *)
let benchmark_of_name = function
  | "write" | "illegal-write" -> Some Fmc_isa.Programs.illegal_write
  | "read" | "illegal-read" -> Some Fmc_isa.Programs.illegal_read
  | "exec" | "illegal-exec" -> Some Fmc_isa.Programs.illegal_exec
  | _ -> None

let strategy_of_name = function
  | "random" -> Some Fmc.Sampler.Random
  | "cone" | "fanin-cone" -> Some Fmc.Sampler.Fanin_cone
  | "importance" -> Some Fmc.Sampler.default_importance
  | "mixed" -> Some Fmc.Sampler.default_mixed
  | _ -> None

let benchmark_arg =
  let doc =
    "Benchmark program: $(b,write) (illegal memory write), $(b,read) (illegal memory read) or \
     $(b,exec) (illegal execution of privileged code)."
  in
  let parse s =
    match benchmark_of_name s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S (expected write|read|exec)" s))
  in
  let print fmt (p : Fmc_isa.Programs.t) = Format.fprintf fmt "%s" p.Fmc_isa.Programs.name in
  Arg.(
    value
    & opt (conv (parse, print)) Fmc_isa.Programs.illegal_write
    & info [ "b"; "benchmark" ] ~docv:"BENCH" ~doc)

let strategy_arg =
  let doc =
    "Sampling strategy: $(b,random), $(b,cone) (fan-in-cone restricted), $(b,importance), or \
     $(b,mixed) (the paper's hybrid of importance sampling and analytical evaluation)."
  in
  let parse s =
    match strategy_of_name s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print fmt s = Format.fprintf fmt "%s" (Fmc.Sampler.strategy_name s) in
  Arg.(value & opt (conv (parse, print)) Fmc.Sampler.default_mixed & info [ "s"; "strategy" ] ~docv:"STRAT" ~doc)

(* Observability arguments, shared by evaluate and bench. *)

let metrics_out_arg =
  let doc =
    "Write the run's final metrics to $(docv): Prometheus text exposition format, or JSON when \
     $(docv) ends in $(b,.json)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write the run's phase spans as Chrome trace_event JSON to $(docv) (loadable in Perfetto or \
     chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Convergence telemetry on stderr: $(b,jsonl) (one JSON object per trace tick), $(b,human) (a \
     status line per tick), or $(b,off)."
  in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("human", `Human); ("off", `Off) ]) `Off
    & info [ "progress" ] ~docv:"MODE" ~doc)

let build_obs ~metrics_out ~trace_out ~progress =
  let metrics = Option.map (fun _ -> Fmc_obs.Metrics.create ()) metrics_out in
  let tracer = Option.map (fun _ -> Fmc_obs.Span.create ()) trace_out in
  let progress =
    match progress with
    | `Off -> None
    | `Jsonl -> Some (Fmc_obs.Progress.jsonl_sink stderr)
    | `Human -> Some (Fmc_obs.Progress.human_sink stderr)
  in
  Fmc_obs.Obs.create ?metrics ?tracer ?progress ()

(* Fleet commands (serve/worker/sched) always carry an in-memory
   registry and tracer: the v4 telemetry piggyback and the --http-port
   scrape surface read them even when no --metrics-out/--trace-out file
   was requested. Observation-only — reports are byte-identical either
   way. *)
let fleet_obs ~progress =
  let progress =
    match progress with
    | `Off -> None
    | `Jsonl -> Some (Fmc_obs.Progress.jsonl_sink stderr)
    | `Human -> Some (Fmc_obs.Progress.human_sink stderr)
  in
  Fmc_obs.Obs.create
    ~metrics:(Fmc_obs.Metrics.create ())
    ~tracer:(Fmc_obs.Span.create ())
    ?progress ()

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let flush_obs_outputs ~metrics_out ~trace_out (obs : Fmc_obs.Obs.t) =
  (match (metrics_out, obs.Fmc_obs.Obs.metrics) with
  | Some path, Some reg ->
      let snap = Fmc_obs.Metrics.snapshot reg in
      let body =
        if Filename.check_suffix path ".json" then Fmc_obs.Metrics.to_json snap
        else Fmc_obs.Metrics.to_prometheus snap
      in
      write_file path body;
      (* Notice goes to stderr so `--json` stdout stays machine-parseable. *)
      Format.eprintf "wrote %s@." path
  | _ -> ());
  match (trace_out, obs.Fmc_obs.Obs.tracer) with
  | Some path, Some tr ->
      write_file path (Fmc_obs.Span.to_chrome_json (Fmc_obs.Span.events tr));
      Format.eprintf "wrote %s (%d spans, %d dropped)@." path (Fmc_obs.Span.recorded tr)
        (Fmc_obs.Span.dropped tr)
  | _ -> ()

(* Context construction is shared by all commands. *)
let with_context f =
  let ctx = Fmc.Experiments.context () in
  f ctx;
  0

let prepared ctx benchmark strategy =
  let engine = Fmc.Experiments.engine_for ctx benchmark in
  let prep =
    Fmc.Sampler.prepare
      ~static_vuln:(Fmc.Engine.static_vulnerable engine)
      strategy
      (Fmc.Experiments.default_attack ctx)
      (Fmc.Experiments.precharac ctx)
      ~placement:(Fmc.Engine.placement engine)
  in
  (engine, prep)

(* info *)

let info_cmd =
  let run () =
    with_context @@ fun ctx ->
    let circuit = Fmc.Experiments.circuit ctx in
    Format.fprintf ppf "%a@." Fmc_netlist.Netlist.pp_summary circuit.Fmc_cpu.Circuit.net;
    let pre = Fmc.Experiments.precharac ctx in
    let lt = Fmc.Precharac.lifetimes pre in
    Format.fprintf ppf "responding signals: %d@.cone registers: %d@.memory-type fraction: %.1f%%@."
      (List.length (Fmc.Precharac.responding_signals pre))
      (Array.length (Fmc.Precharac.cone_registers pre))
      (100. *. Fmc.Lifetime.memory_fraction lt);
    let engine = Fmc.Experiments.engine_for ctx Fmc_isa.Programs.illegal_write in
    let g = Fmc.Engine.golden engine in
    Format.fprintf ppf "illegal-write golden run: target cycle %d, halt cycle %d@."
      (Fmc.Golden.target_cycle g) (Fmc.Golden.halt_cycle g)
  in
  Cmd.v (Cmd.info "info" ~doc:"Show the evaluated system and its pre-characterization.")
    Term.(const run $ const ())

(* Distributed-campaign plumbing shared by evaluate/serve/worker. *)

let default_shard_size = 1000

let spec_of_args ?(fault_model = Fmc_fault.Registry.default) ~benchmark ~strategy ~samples
    ~seed ~shard_size ~sample_budget () =
  {
    Fmc_dist.Protocol.sp_benchmark = benchmark.Fmc_isa.Programs.name;
    sp_strategy = Fmc.Sampler.strategy_name strategy;
    sp_samples = samples;
    sp_seed = seed;
    sp_shard_size = shard_size;
    sp_sample_budget = sample_budget;
    sp_fault_model = fault_model;
  }

(* --fault-model: parse at option-processing time so an unknown model or
   a bad parameter is a usage error (exit 2) with the registry's typed
   message, not a mid-campaign crash. *)
let fault_model_of_arg_or_die spec =
  match Fmc_fault.Registry.parse spec with
  | Ok model -> model
  | Error e ->
      Format.eprintf "faultmc: %s@." (Fmc_fault.Registry.error_message e);
      exit 2

let list_fault_models ppf =
  Format.fprintf ppf "registered fault models:@.";
  List.iter
    (fun (name, doc) -> Format.fprintf ppf "  %-16s %s@." name doc)
    (Fmc_fault.Registry.list ())

let parse_addr_or_die s =
  match Fmc_dist.Wire.parse_addr s with
  | Ok a -> a
  | Error msg ->
      Format.eprintf "faultmc: %s@." msg;
      exit 2

let addr_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Fmc_dist.Wire.parse_addr s) in
  let print fmt a = Format.fprintf fmt "%s" (Fmc_dist.Wire.addr_to_string a) in
  Arg.conv (parse, print)

(* Durations: a bare number is seconds; "ms"/"s"/"m"/"h" suffixes scale. *)
let parse_duration s =
  let scaled num unit =
    match float_of_string_opt num with
    | Some v when v >= 0. -> Ok (v *. unit)
    | _ -> Error (Printf.sprintf "bad duration %S (want e.g. 30, 30s, 500ms, 5m, 1h)" s)
  in
  let n = String.length s in
  if n = 0 then Error "empty duration"
  else if n >= 2 && String.sub s (n - 2) 2 = "ms" then scaled (String.sub s 0 (n - 2)) 0.001
  else
    match s.[n - 1] with
    | 's' -> scaled (String.sub s 0 (n - 1)) 1.
    | 'm' -> scaled (String.sub s 0 (n - 1)) 60.
    | 'h' -> scaled (String.sub s 0 (n - 1)) 3600.
    | _ -> scaled s 1.

let duration_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (parse_duration s) in
  let print fmt v = Format.fprintf fmt "%gs" v in
  Arg.conv (parse, print)

let shard_size_arg =
  let doc =
    "Shard size in samples: the campaign is cut into contiguous shards of $(docv), each evaluated \
     under its own RNG substream. Must agree between coordinator, workers and any local reference \
     run for the reports to be bit-identical."
  in
  Arg.(value & opt int default_shard_size & info [ "shard-size" ] ~docv:"N" ~doc)

(* Campaign-status rendering, shared by `status`, `top` and the scrape
   endpoint's text routes. *)

let eta_string eta = if eta < 0. then "-" else Printf.sprintf "%.0fs" eta

let render_status_entry ppf (e : Fmc_dist.Protocol.status_entry) =
  let position =
    if e.Fmc_dist.Protocol.st_position < 0 then "-"
    else
      Printf.sprintf "%d/%d" e.Fmc_dist.Protocol.st_position e.Fmc_dist.Protocol.st_queue_len
  in
  Format.fprintf ppf "%-9s pos %s  %d/%d samples  %.0f samples/s  eta %s  %s%s"
    (Fmc_dist.Protocol.state_token e.Fmc_dist.Protocol.st_state)
    position
    e.Fmc_dist.Protocol.st_samples_done e.Fmc_dist.Protocol.st_samples_total
    (Float.max 0. e.Fmc_dist.Protocol.st_rate)
    (eta_string e.Fmc_dist.Protocol.st_eta_s)
    e.Fmc_dist.Protocol.st_fingerprint
    (if e.Fmc_dist.Protocol.st_detail = "" then ""
     else Printf.sprintf "  (%s)" e.Fmc_dist.Protocol.st_detail)

let breaker_state_name = function
  | Fmc_dist.Breaker.Closed -> "closed"
  | Fmc_dist.Breaker.Open -> "open"
  | Fmc_dist.Breaker.Half_open -> "half-open"

let status_entry_json (e : Fmc_dist.Protocol.status_entry) =
  Printf.sprintf
    "{\"fingerprint\":\"%s\",\"state\":\"%s\",\"position\":%d,\"queue_len\":%d,\"samples_done\":%d,\"samples_total\":%d,\"rate\":%.3f,\"eta_s\":%.3f,\"detail\":\"%s\"}"
    (Fmc_obs.Jsonx.escape e.Fmc_dist.Protocol.st_fingerprint)
    (Fmc_dist.Protocol.state_token e.Fmc_dist.Protocol.st_state)
    e.Fmc_dist.Protocol.st_position e.Fmc_dist.Protocol.st_queue_len
    e.Fmc_dist.Protocol.st_samples_done e.Fmc_dist.Protocol.st_samples_total
    e.Fmc_dist.Protocol.st_rate e.Fmc_dist.Protocol.st_eta_s
    (Fmc_obs.Jsonx.escape e.Fmc_dist.Protocol.st_detail)

(* The --http-port scrape endpoint (ISSUE 8): /metrics, /healthz,
   /readyz, /campaigns (JSON), /campaigns.txt + /workers.txt (the
   whitespace-separated tables `faultmc top` polls) and /trace (the
   stitched fleet trace). Route handlers are thunks over the view the
   service hands us via ?on_view — every one observation-only. *)

let http_port_arg what =
  Arg.(
    value
    & opt (some int) None
    & info [ "http-port" ] ~docv:"PORT"
        ~doc:
          (Printf.sprintf
             "Serve a read-only scrape endpoint for the %s on $(docv): $(b,/metrics) (Prometheus \
              text, the local registry merged with every worker's piggybacked snapshot), \
              $(b,/healthz), $(b,/readyz), $(b,/campaigns) (JSON), $(b,/campaigns.txt), \
              $(b,/workers.txt) and $(b,/trace) (stitched fleet trace). Port 0 binds an ephemeral \
              port (printed on stderr)."
             what))

let fleet_trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fleet-trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the stitched fleet trace (this process plus every v4 worker on its own track, \
           Chrome trace_event JSON) to $(docv) on exit.")

let bool_json b = if b then "true" else "false"

let service_routes (v : Fmc_sched.Service.view) =
  let open Fmc_sched.Service in
  let health_body () =
    let h = v.vw_health () in
    Printf.sprintf
      "{\"draining\":%s,\"finished\":%s,\"queue_depth\":%d,\"shards_done\":%d,\"shards_total\":%d,\"in_flight\":%d,\"connected\":%d,\"healthy_workers\":%d,\"breakers_open\":%d,\"leasing_paused\":%s,\"audits_pending\":%d,\"quarantined_workers\":%d,\"wal_torn\":%d}"
      (bool_json h.h_draining) (bool_json h.h_finished) h.h_queue_depth h.h_shards_done
      h.h_shards_total h.h_in_flight h.h_connected h.h_healthy_workers h.h_breakers_open
      (bool_json h.h_leasing_paused) h.h_audits_pending h.h_quarantined_workers h.h_wal_torn
  in
  let workers_txt () =
    let b = Buffer.create 256 in
    Buffer.add_string b "# worker breaker conns spans last_wall trace quarantined mismatches\n";
    List.iter
      (fun w ->
        Buffer.add_string b
          (Printf.sprintf "%s %s %d %d %.3f %s %s %d\n" w.w_name (breaker_state_name w.w_breaker)
             w.w_connections w.w_spans w.w_last_wall
             (if w.w_trace_id = "" then "-" else w.w_trace_id)
             (if w.w_quarantined then "yes" else "no")
             w.w_mismatches))
      (v.vw_workers ());
    Buffer.contents b
  in
  [
    ("/metrics", fun () -> Fmc_obs.Httpd.text (v.vw_metrics ()));
    ("/healthz", fun () -> Fmc_obs.Httpd.json (health_body ()));
    ( "/readyz",
      fun () ->
        let h = v.vw_health () in
        let status = if h.h_draining || h.h_leasing_paused then 503 else 200 in
        Fmc_obs.Httpd.json ~status (health_body ()) );
    ( "/campaigns",
      fun () ->
        Fmc_obs.Httpd.json
          ("[" ^ String.concat "," (List.map status_entry_json (v.vw_status ())) ^ "]") );
    ( "/campaigns.txt",
      fun () ->
        Fmc_obs.Httpd.text
          (String.concat ""
             (List.map (fun e -> Format.asprintf "%a@." render_status_entry e) (v.vw_status ()))) );
    ("/workers.txt", fun () -> Fmc_obs.Httpd.text (workers_txt ()));
    ("/trace", fun () -> Fmc_obs.Httpd.json (v.vw_trace_json ()));
  ]

let start_endpoint ?registry ~what ~routes = function
  | None -> None
  | Some port ->
      let h = Fmc_obs.Httpd.start ?registry ~port ~routes () in
      (* stderr so --json stdout stays machine-parseable. *)
      Format.eprintf "%s scrape endpoint on port %d (/metrics /healthz /readyz /campaigns /trace)@."
        what (Fmc_obs.Httpd.port h);
      Some h

let stop_endpoint h = Option.iter Fmc_obs.Httpd.stop h

let write_fleet_trace ~fleet_trace_out trace_json =
  match (fleet_trace_out, trace_json) with
  | Some path, Some json ->
      write_file path (json ());
      Format.eprintf "wrote %s@." path
  | _ -> ()

(* Chaos harness plumbing (serve/worker): interpose the deterministic
   fault-injection proxy on the campaign's transport. The hidden side of
   the proxy always uses a private Unix-domain socket, so no ephemeral
   TCP port needs picking. *)

let chaos_plan_arg cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos-plan" ] ~docv:"PLAN"
        ~doc:
          (Printf.sprintf
             "Run the %s behind the deterministic fault-injection proxy executing $(docv): either \
              a plan file or inline clauses (e.g. \"bitflip p=0.02; drop p=0.01\"). See the chaos \
              plan grammar in DESIGN.md."
             cmd))

let chaos_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the chaos proxy's fault decisions; the same (seed, plan) pair replays the \
           same fault stream.")

let chaos_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos-log" ] ~docv:"FILE" ~doc:"Append one line per injected chaos fault to $(docv).")

let load_chaos_plan spec =
  let result =
    if Sys.file_exists spec then Fmc_chaos.Plan.load ~path:spec else Fmc_chaos.Plan.parse spec
  in
  match result with
  | Ok plan when not (Fmc_chaos.Plan.is_empty plan) -> plan
  | Ok _ ->
      Format.eprintf "faultmc: --chaos-plan %S contains no fault clauses@." spec;
      exit 2
  | Error msg ->
      Format.eprintf "faultmc: bad chaos plan: %s@." msg;
      exit 2

(* A thread-safe line logger for the chaos event log (pump threads call
   it concurrently); returns the sink and a close hook. *)
let chaos_logger = function
  | None -> ((fun _ -> ()), fun () -> ())
  | Some path ->
      let oc = open_out path in
      let m = Mutex.create () in
      let log line =
        Mutex.lock m;
        output_string oc line;
        output_char oc '\n';
        flush oc;
        Mutex.unlock m
      in
      (log, fun () -> close_out_noerr oc)

let chaos_socket_path prefix =
  Filename.temp_file ("faultmc-" ^ prefix) ".sock"

(* Start the proxy between [public] (where clients dial) and [upstream];
   returns a stop hook that also reports the injected-fault tally. *)
let start_chaos_proxy ~obs ~plan ~seed ~log ~close_log ~public ~upstream =
  let proxy =
    Fmc_chaos.Proxy.start ~obs ~on_event:log ~listen:public ~upstream ~plan
      ~seed:(Int64.of_int seed) ()
  in
  fun () ->
    Fmc_chaos.Proxy.stop proxy;
    let tally = Fmc_chaos.Proxy.fault_counts proxy in
    if tally <> [] then
      Format.eprintf "chaos: %s over %d connection(s)@."
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) tally))
        (Fmc_chaos.Proxy.connections proxy)
    else
      Format.eprintf "chaos: no faults fired over %d connection(s)@."
        (Fmc_chaos.Proxy.connections proxy);
    close_log ()

(* evaluate *)

let fault_model_arg =
  Arg.(
    value
    & opt string Fmc_fault.Registry.default
    & info [ "fault-model" ] ~docv:"MODEL"
        ~doc:
          "Evaluate under fault model $(docv), written NAME or NAME:k=v,... (e.g. \
           $(b,seu-burst:bits=4)). An unknown model or a bad parameter is a usage error. See \
           $(b,--list-fault-models).")

let list_fault_models_flag =
  Arg.(
    value & flag
    & info [ "list-fault-models" ] ~doc:"List the registered fault models and exit.")

let evaluate_cmd =
  let run benchmark strategy samples seed half_width json csv_prefix checkpoint checkpoint_every
      resume journal sample_budget connect shard_size prune_flag fault_model list_models
      metrics_out trace_out progress =
    if list_models then begin
      list_fault_models ppf;
      exit 0
    end;
    let model = fault_model_of_arg_or_die fault_model in
    let inject = Fmc_fault.Model.injector model in
    if prune_flag && not inject.Fmc.Ssf.inj_prunable then begin
      Format.eprintf
        "faultmc: --prune is only sound for the disc-transient model (masking certificates do \
         not cover %s)@."
        (Fmc_fault.Model.canonical model);
      exit 2
    end;
    let obs = build_obs ~metrics_out ~trace_out ~progress in
    let render report =
      if json then print_endline (Fmc.Export.report_json report)
      else begin
        Format.fprintf ppf "benchmark: %s@.%a@." benchmark.Fmc_isa.Programs.name
          Fmc.Report.ssf_report report;
        let lo, hi = Fmc.Ssf.confidence_interval report ~z:1.96 in
        Format.fprintf ppf "95%% confidence interval: [%.5f, %.5f]@." lo hi
      end;
      (match csv_prefix with
      | None -> ()
      | Some prefix ->
          let write name contents =
            write_file name contents;
            Format.fprintf ppf "wrote %s@." name
          in
          write (prefix ^ "-trace.csv") (Fmc.Export.trace_csv report);
          write (prefix ^ "-contributions.csv") (Fmc.Export.contributions_csv report));
      flush_obs_outputs ~metrics_out ~trace_out obs
    in
    let campaign_mode = checkpoint <> None || resume <> None || journal <> None in
    match connect with
    | Some addrstr ->
        (* Report client: no engine, no context — fetch the finished
           campaign's shard blobs from the coordinator and merge locally
           through the same Merge path the coordinator itself uses. *)
        if campaign_mode || half_width <> None then begin
          prerr_endline "faultmc: --connect only combines with the campaign-identity options";
          exit 2
        end;
        if prune_flag then begin
          prerr_endline "faultmc: --prune needs local evaluation; it cannot combine with --connect";
          exit 2
        end;
        let addr = parse_addr_or_die addrstr in
        let fingerprint =
          Fmc_dist.Protocol.spec_fingerprint
            (spec_of_args
               ~fault_model:(Fmc_fault.Model.canonical model)
               ~benchmark ~strategy ~samples ~seed
               ~shard_size:(Option.value shard_size ~default:default_shard_size)
               ~sample_budget ())
        in
        let config = Fmc_dist.Worker.default_config ~addr ~worker_name:"report-client" in
        (match Fmc_dist.Worker.fetch_report ~obs config ~fingerprint with
        | Error err ->
            Format.eprintf "faultmc: %s@." (Fmc_dist.Worker.fetch_error_message err);
            exit 1
        | Ok (shards, quarantined, elapsed_s) -> (
            match
              Fmc_dist.Merge.report_of_blobs ~strategy:(Fmc.Sampler.strategy_name strategy) shards
            with
            | Error msg ->
                Format.eprintf "faultmc: %s@." msg;
                exit 1
            | Ok report ->
                let q = List.length quarantined in
                if q > 0 then Format.eprintf "%d sample(s) quarantined@." q;
                if not json then
                  Format.fprintf ppf "campaign wall clock: %.2f s (distributed)@." elapsed_s;
                render report;
                0))
    | None -> (
        with_context @@ fun ctx ->
        let engine, prep = prepared ctx benchmark strategy in
        (* The analytical pruner: sound per-sample masking certificates
           (Fmc_sva). A covered sample skips simulation and is tallied as
           masked with its original weight — the report stays
           byte-identical to the unpruned run, only faster. *)
        let pruner = if prune_flag then Some (Fmc_sva.Pruner.create ~obs engine) else None in
        let prune = Option.map Fmc_sva.Pruner.prune pruner in
        let clock_suffix () =
          match pruner with
          | None -> ""
          | Some p -> Printf.sprintf ", prune ratio %.1f%%" (100. *. Fmc_sva.Pruner.prune_ratio p)
        in
        let report =
          match (half_width, shard_size, campaign_mode) with
          | Some hw, None, false when sample_budget = None ->
              Fmc.Ssf.estimate_until ~obs ?prune ~inject engine prep ~half_width:hw ~z:1.96
                ~seed
          | Some _, _, _ ->
              prerr_endline "faultmc: --half-width cannot be combined with campaign options";
              exit 2
          | None, Some sz, _ ->
              if campaign_mode then begin
                prerr_endline
                  "faultmc: --shard-size cannot be combined with --checkpoint/--resume/--journal";
                exit 2
              end;
              (* The single-process reference for a distributed run with
                 the same (samples, seed, shard size): bit-identical. *)
              let result =
                Fmc.Campaign.estimate_sharded ~obs ?sample_budget ?prune ~inject engine prep
                  ~samples ~seed ~shard_size:sz
              in
              let q = List.length result.Fmc.Campaign.quarantined in
              if q > 0 then Format.eprintf "%d sample(s) quarantined@." q;
              if not json then
                Format.fprintf ppf "campaign wall clock: %.2f s (%.0f samples/s%s)@."
                  result.Fmc.Campaign.elapsed_s result.Fmc.Campaign.samples_per_sec
                  (clock_suffix ());
              result.Fmc.Campaign.report
          | None, None, false when sample_budget = None ->
              Fmc.Ssf.estimate ~obs ?prune ~inject engine prep ~samples ~seed
          | None, None, _ ->
              if checkpoint_every <= 0 then begin
                prerr_endline "faultmc: --checkpoint-every must be positive";
                exit 2
              end;
              let config =
                {
                  Fmc.Campaign.checkpoint_path = checkpoint;
                  checkpoint_every;
                  journal_path = journal;
                  sample_budget;
                  handle_signals = true;
                }
              in
              let result =
                try
                  match resume with
                  | Some path ->
                      Fmc.Campaign.resume ~config ~obs ?prune ~inject engine prep ~path
                  | None ->
                      Fmc.Campaign.run ~config ~obs ?prune ~inject engine prep ~samples ~seed
                with
                | Fmc.Campaign.Checkpoint_corrupt { path; reason } ->
                    Format.eprintf "faultmc: unusable checkpoint %s: %s@." path reason;
                    exit 2
                | Sys_error msg ->
                    Format.eprintf "faultmc: %s@." msg;
                    exit 2
              in
              (match result.Fmc.Campaign.status with
              | Fmc.Campaign.Completed -> ()
              | Fmc.Campaign.Interrupted ->
                  Format.eprintf "campaign interrupted after %d samples%s@."
                    result.Fmc.Campaign.report.Fmc.Ssf.n
                    (match checkpoint with
                    | Some p -> Printf.sprintf "; resume with --resume %s" p
                    | None -> " (no checkpoint was configured)"));
              let q = List.length result.Fmc.Campaign.quarantined in
              if q > 0 then
                Format.eprintf "%d sample(s) quarantined%s@." q
                  (match journal with Some p -> Printf.sprintf "; details in %s" p | None -> "");
              if not json then
                Format.fprintf ppf "campaign wall clock: %.2f s (%.0f samples/s%s)@."
                  result.Fmc.Campaign.elapsed_s result.Fmc.Campaign.samples_per_sec
                  (clock_suffix ());
              result.Fmc.Campaign.report
        in
        (match pruner with
        | None -> ()
        | Some p ->
            let st = Fmc_sva.Pruner.stats p in
            Format.eprintf "sva prune: %d/%d samples pruned (%.1f%%), %d certificates@."
              st.Fmc_sva.Pruner.pruned st.checked
              (100. *. Fmc_sva.Pruner.prune_ratio p)
              st.certificates);
        render report)
  in
  let half_width =
    Arg.(
      value
      & opt (some float) None
      & info [ "half-width" ] ~docv:"HW"
          ~doc:"Sample until the 95% confidence half-width drops below $(docv) (overrides -n).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let csv_prefix =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PREFIX" ~doc:"Also write PREFIX-trace.csv and PREFIX-contributions.csv.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Periodically write a durable campaign checkpoint to $(docv) (atomic rename-on-write); \
             an interrupted run continues bit-exactly with $(b,--resume).")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt int 1000
      & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Checkpoint period in samples.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume a checkpointed campaign from $(docv). The benchmark and strategy must match \
             the original run; $(b,-n) and $(b,--seed) are taken from the checkpoint.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Append one JSON line per quarantined (crashed or timed-out) sample to $(docv).")
  in
  let sample_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-budget" ] ~docv:"CYCLES"
          ~doc:
            "Per-sample RTL cycle budget: a sample whose resumed simulation exceeds $(docv) cycles \
             is quarantined as timed out instead of aborting the campaign.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Fetch a distributed campaign's report from the coordinator at $(docv) (HOST:PORT or \
             unix:PATH) instead of evaluating locally. The campaign-identity options (benchmark, \
             strategy, -n, --seed, --sample-budget) must match the coordinator's.")
  in
  let shard_size_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-size" ] ~docv:"N"
          ~doc:
            "Evaluate locally through the sharded path: cut the campaign into shards of $(docv) \
             samples, each under its own RNG substream, and merge — the bit-exact single-process \
             reference for a distributed run with the same shard size.")
  in
  let prune_flag =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            "Skip simulating samples covered by a sound Fmc_sva masking certificate and tally \
             them analytically as masked with their original weight. The report is byte-identical \
             to the unpruned run for the same seed — only faster. Cannot combine with \
             $(b,--connect).")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Estimate the System Security Factor of a benchmark.")
    Term.(
      const run $ benchmark_arg $ strategy_arg $ samples_arg 5000 $ seed_arg $ half_width $ json
      $ csv_prefix $ checkpoint $ checkpoint_every $ resume $ journal $ sample_budget $ connect
      $ shard_size_opt $ prune_flag $ fault_model_arg $ list_fault_models_flag $ metrics_out_arg
      $ trace_out_arg $ progress_arg)

(* characterize *)

let characterize_cmd =
  let run verbose =
    with_context @@ fun ctx ->
    Format.fprintf ppf "%a@." Fmc.Report.fig4 (Fmc.Experiments.fig4 ctx);
    if verbose then begin
      let pre = Fmc.Experiments.precharac ctx in
      Format.fprintf ppf "per-register statistics:@.";
      Array.iter
        (fun (s : Fmc.Lifetime.stats) ->
          Format.fprintf ppf "  %-16s lifetime %6.1f  contamination %5.1f  %s@."
            (Printf.sprintf "%s[%d]" s.Fmc.Lifetime.group s.Fmc.Lifetime.bit)
            s.Fmc.Lifetime.lifetime s.Fmc.Lifetime.contamination
            (if s.Fmc.Lifetime.memory_type then "memory-type" else "computation-type"))
        (Fmc.Lifetime.all (Fmc.Precharac.lifetimes pre))
    end
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-register statistics.") in
  Cmd.v
    (Cmd.info "characterize" ~doc:"Register error-lifetime / contamination characterization (Fig 4).")
    Term.(const run $ verbose)

(* sweep *)

let sweep_cmd =
  let run samples seed =
    with_context @@ fun ctx ->
    Format.fprintf ppf "%a@." Fmc.Report.fig11 (Fmc.Experiments.fig11 ~samples ~seed ctx)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Temporal and spatial attack-accuracy sweeps (Fig 11).")
    Term.(const run $ samples_arg 3000 $ seed_arg)

(* harden *)

let harden_cmd =
  let run samples seed =
    with_context @@ fun ctx ->
    Format.fprintf ppf "%a@." Fmc.Report.headline (Fmc.Experiments.headline ~samples ~seed ctx)
  in
  Cmd.v
    (Cmd.info "harden" ~doc:"Identify critical registers and evaluate hardening plans.")
    Term.(const run $ samples_arg 6000 $ seed_arg)

(* trace *)

let trace_cmd =
  let run benchmark cycles out =
    with_context @@ fun ctx ->
    let circuit = Fmc.Experiments.circuit ctx in
    let netsys = Fmc_cpu.Netsys.create circuit benchmark in
    let sim = Fmc_cpu.Netsys.sim netsys in
    let net = circuit.Fmc_cpu.Circuit.net in
    let signals =
      List.map
        (fun (name, _) -> { Fmc_gatesim.Vcd.name; nodes = Fmc_netlist.Netlist.register_group net name })
        Fmc_cpu.Arch.groups
      @ [
          { Fmc_gatesim.Vcd.name = "data_viol"; nodes = [| circuit.Fmc_cpu.Circuit.data_viol |] };
          { Fmc_gatesim.Vcd.name = "instr_viol"; nodes = [| circuit.Fmc_cpu.Circuit.instr_viol |] };
          { Fmc_gatesim.Vcd.name = "dmem_addr"; nodes = circuit.Fmc_cpu.Circuit.dmem_addr };
          { Fmc_gatesim.Vcd.name = "dmem_we"; nodes = [| circuit.Fmc_cpu.Circuit.dmem_we |] };
        ]
    in
    (* Drive the instruction/memory ports per cycle exactly like Netsys,
       and commit the data-memory write before each clock edge. *)
    let drive _ _ = Fmc_cpu.Netsys.settle netsys in
    let before_latch _ sim =
      if Fmc_gatesim.Cycle_sim.value sim circuit.Fmc_cpu.Circuit.dmem_we then begin
        let dmem = Fmc_cpu.Netsys.dmem netsys in
        let addr = Fmc_gatesim.Cycle_sim.read_bus sim circuit.Fmc_cpu.Circuit.dmem_addr in
        dmem.(addr land (Array.length dmem - 1)) <-
          Fmc_gatesim.Cycle_sim.read_bus sim circuit.Fmc_cpu.Circuit.dmem_wdata
      end
    in
    let vcd = Fmc_gatesim.Vcd.record ~before_latch sim ~cycles ~drive ~signals in
    let oc = open_out out in
    output_string oc vcd;
    close_out oc;
    Format.fprintf ppf "wrote %d cycles of %s to %s@." cycles benchmark.Fmc_isa.Programs.name out
  in
  let cycles = Arg.(value & opt int 200 & info [ "c"; "cycles" ] ~docv:"N" ~doc:"Cycles to trace.") in
  let out = Arg.(value & opt string "trace.vcd" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output VCD file.") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump a gate-level VCD waveform of a benchmark run.")
    Term.(const run $ benchmark_arg $ cycles $ out)

(* dot *)

let dot_cmd =
  let run depth out =
    with_context @@ fun ctx ->
    let circuit = Fmc.Experiments.circuit ctx in
    let net = circuit.Fmc_cpu.Circuit.net in
    let dot =
      if depth = 0 then
        Fmc_netlist.Dot.cone_to_dot net
          (Fmc_netlist.Cone.fanin net ~roots:(Fmc_cpu.Circuit.responding_signals circuit))
      else Fmc_netlist.Dot.to_dot net
    in
    let oc = open_out out in
    output_string oc dot;
    close_out oc;
    Format.fprintf ppf "wrote %s (%d bytes); render with: dot -Tsvg %s -o out.svg@." out
      (String.length dot) out
  in
  let full = Arg.(value & opt int 0 & info [ "full" ] ~docv:"0|1" ~doc:"1 = whole netlist, 0 = responding-signal cone.") in
  let out = Arg.(value & opt string "netlist.dot" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output dot file.") in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the responding-signal cone (or whole netlist) as Graphviz.")
    Term.(const run $ full $ out)

(* lint *)

let lint_targets = function
  | "cpu" | "crypto" | "all" -> true
  | _ -> false

let build_lint_target = function
  | "cpu" ->
      let circuit = Fmc_cpu.Circuit.build () in
      Fmc_analysis.Pass.target ~name:"cpu"
        ~responding:(Fmc_cpu.Circuit.responding_signals circuit)
        circuit.Fmc_cpu.Circuit.net
  | "crypto" ->
      let core = Fmc_crypto.Core_circuit.build () in
      (* TOYSPN has no in-circuit detection mechanism: certify against the
         primary outputs (ciphertext, done, busy). *)
      Fmc_analysis.Pass.target ~name:"crypto" core.Fmc_crypto.Core_circuit.net
  | t -> invalid_arg ("build_lint_target: " ^ t)

let lint_cmd =
  let run target passes json fail_on list_passes =
    if list_passes then begin
      List.iter
        (fun p ->
          Format.fprintf ppf "%-22s %-5s %s@." p.Fmc_analysis.Pass.name
            (Fmc_analysis.Diagnostic.severity_to_string p.Fmc_analysis.Pass.default_severity)
            p.Fmc_analysis.Pass.doc)
        Fmc_analysis.Registry.all;
      0
    end
    else if not (lint_targets target) then begin
      Format.eprintf "faultmc lint: unknown target %S (expected cpu|crypto|all)@." target;
      2
    end
    else
      match Fmc_analysis.Registry.select passes with
      | Error msg ->
          Format.eprintf "faultmc lint: %s@." msg;
          2
      | Ok selected ->
          let names = if target = "all" then [ "cpu"; "crypto" ] else [ target ] in
          let worst = ref 0 in
          let reports =
            List.map
              (fun name ->
                let tgt = build_lint_target name in
                let diags = Fmc_analysis.Reporter.run selected tgt in
                worst := max !worst (Fmc_analysis.Reporter.exit_code ~fail_on diags);
                (tgt, diags))
              names
          in
          if json then begin
            let bodies =
              List.map (fun (tgt, diags) -> Fmc_analysis.Reporter.to_json ~target:tgt diags) reports
            in
            print_endline ("[" ^ String.concat "," bodies ^ "]")
          end
          else
            List.iter
              (fun (tgt, diags) ->
                Format.fprintf ppf "%a@." (fun ppf -> Fmc_analysis.Reporter.pp_report ppf ~target:tgt) diags)
              reports;
          !worst
  in
  let target =
    Arg.(
      value & opt string "all"
      & info [ "t"; "target" ] ~docv:"TARGET"
          ~doc:"Netlist to lint: $(b,cpu), $(b,crypto), or $(b,all).")
  in
  let passes =
    Arg.(
      value & opt_all string []
      & info [ "p"; "pass" ] ~docv:"PASS"
          ~doc:"Run only the named pass (repeatable; default: every registered pass).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the reports as a JSON array.") in
  let fail_on =
    let parse s =
      match Fmc_analysis.Diagnostic.severity_of_string s with
      | Some sev -> Ok sev
      | None -> Error (`Msg (Printf.sprintf "unknown severity %S (expected info|warn|error)" s))
    in
    let print fmt s = Format.fprintf fmt "%s" (Fmc_analysis.Diagnostic.severity_to_string s) in
    Arg.(
      value
      & opt (conv (parse, print)) Fmc_analysis.Diagnostic.Error
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:"Exit non-zero when a finding reaches $(docv): $(b,info), $(b,warn) or $(b,error).")
  in
  let list_passes =
    Arg.(value & flag & info [ "list" ] ~doc:"List the registered passes and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (structural lints, security coverage certificate, TMR \
          verifier) over the benchmark netlists.")
    Term.(const run $ target $ passes $ json $ fail_on $ list_passes)

(* sva *)

let sva_cmd =
  let run benchmark json check =
    with_context @@ fun ctx ->
    let engine = Fmc.Experiments.engine_for ctx benchmark in
    let cert = Fmc_sva.Cert.build engine in
    if json then print_endline (Fmc_sva.Cert.to_json cert)
    else Format.fprintf ppf "%a" Fmc_sva.Cert.summary cert;
    match check with
    | None -> ()
    | Some points ->
        let pruner = Fmc_sva.Pruner.create engine in
        let claimed, violations = Fmc_sva.Pruner.self_check ~points pruner in
        if violations = [] then
          Format.eprintf
            "sva check: %d/%d random (strike, cycle) points claimed masked; every claim \
             confirmed by full simulation@."
            claimed points
        else begin
          Format.eprintf
            "sva check: UNSOUND — %d of %d claimed-masked points were NOT masked under full \
             simulation:@."
            (List.length violations) claimed;
          List.iter
            (fun (dff, te) -> Format.eprintf "  node %d at injection cycle %d@." dff te)
            violations;
          exit 1
        end
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the certificate under the faultmc-sva-v1 schema.")
  in
  let check =
    Arg.(
      value
      & opt (some int) None
      & info [ "check" ] ~docv:"N"
          ~doc:
            "Soundness cross-check: draw $(docv) random (strike, cycle) points the certificates \
             claim masked, half of them one flip-flop and half a disc round a gate with the \
             default attack's radius, width and strike time, run the full engine on each, and \
             exit non-zero on any disagreement.")
  in
  Cmd.v
    (Cmd.info "sva"
       ~doc:
         "Compute the sound masking certificates (workload constants, observability don't-cares, \
          temporal masking bounds) for a benchmark.")
    Term.(const run $ benchmark_arg $ json $ check)

(* serve *)

let audit_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "audit-rate" ] ~docv:"RATE"
        ~doc:
          "Fraction of accepted shards re-executed on a different worker and digest-compared \
           (untrusted-worker defense, DESIGN.md §16). Disagreement triggers a third, arbitrating \
           execution; the outvoted worker is quarantined and its unaudited results re-run. \
           Selection is a pure function of the campaign fingerprint — restart-stable, and \
           consuming zero engine-stream randomness. 0 disables auditing.")

let speculate_factor_arg =
  Arg.(
    value & opt float 0.
    & info [ "speculate-factor" ] ~docv:"K"
        ~doc:
          "Straggler speculation: duplicate a leased shard onto an idle worker once its lease age \
           exceeds $(docv) times the fleet's per-shard EWMA. First valid result wins; the loser \
           is fenced by the lease epoch. 0 disables.")

(* serve and sched: the campaign service behind the chaos proxy when
   --chaos-plan is given (the service then binds a private Unix socket
   and the proxy takes over the public address, so every worker byte
   crosses the chaos layer), with its scrape endpoint and stitched fleet
   trace, both torn down when the service returns or raises. *)
let run_service ~obs ~what ~chaos:(chaos_plan, chaos_seed, chaos_log) ~http_port
    ~fleet_trace_out ?campaign addr configure =
  let listen_addr, stop_chaos =
    match chaos_plan with
    | None -> (addr, fun () -> ())
    | Some spec ->
        let cplan = load_chaos_plan spec in
        let hidden = Fmc_dist.Wire.Unix_path (chaos_socket_path what) in
        let log, close_log = chaos_logger chaos_log in
        (hidden, start_chaos_proxy ~obs ~plan:cplan ~seed:chaos_seed ~log ~close_log
                   ~public:addr ~upstream:hidden)
  in
  let endpoint = ref None in
  let fleet_view = ref None in
  let on_view (v : Fmc_sched.Service.view) =
    fleet_view := Some v;
    endpoint :=
      start_endpoint ?registry:obs.Fmc_obs.Obs.metrics ~what ~routes:(service_routes v) http_port
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint !endpoint;
      write_fleet_trace ~fleet_trace_out
        (Option.map (fun v -> v.Fmc_sched.Service.vw_trace_json) !fleet_view);
      stop_chaos ())
    (fun () -> Fmc_sched.Service.serve ~obs ~on_view ?campaign (configure listen_addr))

let chaos_args cmd =
  Term.(const (fun p s l -> (p, s, l)) $ chaos_plan_arg cmd $ chaos_seed_arg $ chaos_log_arg)

let listen_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "listen" ] ~docv:"ADDR" ~doc:"Listen address: HOST:PORT or unix:PATH.")

let lease_ttl_arg =
  Arg.(
    value & opt float 30.
    & info [ "lease-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Lease lifetime without a heartbeat; an expired lease's shard is re-issued to another \
           worker under a bumped epoch.")

let io_deadline_arg =
  Arg.(
    value & opt float 120.
    & info [ "io-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-connection socket read/write deadline; a peer stalling a frame longer than this \
           is disconnected.")

(* A fetched campaign report: the shard blobs merged exactly as the
   single-process reference merges them, then printed like evaluate's. *)
let print_fetched_report ~json ~benchmark ~strategy ~clock (shards, quarantined, elapsed_s) =
  match Fmc_dist.Merge.report_of_blobs ~strategy:(Fmc.Sampler.strategy_name strategy) shards with
  | Error msg ->
      Format.eprintf "faultmc: %s@." msg;
      exit 1
  | Ok report ->
      let q = List.length quarantined in
      if q > 0 then Format.eprintf "%d sample(s) quarantined@." q;
      if json then print_endline (Fmc.Export.report_json report)
      else begin
        Format.fprintf ppf "benchmark: %s@.%a@." benchmark.Fmc_isa.Programs.name
          Fmc.Report.ssf_report report;
        let lo, hi = Fmc.Ssf.confidence_interval report ~z:1.96 in
        Format.fprintf ppf "95%% confidence interval: [%.5f, %.5f]@." lo hi;
        Format.fprintf ppf "campaign wall clock: %.2f s%s@." elapsed_s clock
      end

let serve_cmd =
  let run benchmark strategy samples seed addr shard_size ttl linger max_idle checkpoint
      sample_budget require_workers io_deadline breaker_failures breaker_cooldown audit_rate
      speculate_factor chaos http_port fleet_trace_out json fault_model metrics_out trace_out =
    let model = fault_model_of_arg_or_die fault_model in
    let obs = fleet_obs ~progress:`Off in
    let plan =
      try Fmc.Ssf.shard_plan ~samples ~shard_size
      with Invalid_argument msg ->
        Format.eprintf "faultmc: %s@." msg;
        exit 2
    in
    let spec =
      spec_of_args
        ~fault_model:(Fmc_fault.Model.canonical model)
        ~benchmark ~strategy ~samples ~seed ~shard_size ~sample_budget ()
    in
    if not json then
      Format.fprintf ppf "serving %d samples as %d shard(s) of <=%d on %s@." samples
        (Array.length plan) shard_size (Fmc_dist.Wire.addr_to_string addr);
    (* The scheduler's service holding this one campaign, with its state
       in a throwaway directory: only --checkpoint outlives the process.
       SIGTERM/SIGINT drain it, so that directory is removed then too. *)
    let configure listen_addr =
      {
        (Fmc_sched.Service.default_config listen_addr) with
        sched =
          {
            Fmc_sched.Sched.default_config with
            ttl_s = ttl;
            audit_rate;
            speculate_factor;
            breaker =
              {
                Fmc_dist.Breaker.failure_threshold = breaker_failures;
                cooldown_s = breaker_cooldown;
              };
          };
        require_workers;
        max_idle_s = max_idle;
        io_deadline_s = io_deadline;
        handle_signals = true;
      }
    in
    let fail code fmt =
      Format.kasprintf
        (fun msg ->
          Format.eprintf "faultmc: %s@." msg;
          exit code)
        fmt
    in
    match
      run_service ~obs ~what:"coordinator" ~chaos ~http_port ~fleet_trace_out
        ~campaign:{ Fmc_sched.Service.spec; checkpoint; linger_s = linger }
        addr configure
    with
    | exception Fmc_sched.Sched.Bad_checkpoint (path, Fmc_sched.Sched.Unreadable reason) ->
        fail 2 "corrupt checkpoint %s: %s" path reason
    | exception Fmc_sched.Sched.Bad_checkpoint (path, Fmc_sched.Sched.Foreign_campaign) ->
        fail 2 "checkpoint %s belongs to a different campaign (fingerprint mismatch)" path
    | exception (Failure msg | Invalid_argument msg) -> fail 2 "%s" msg
    | { Fmc_sched.Service.sv_report = Some report; _ } ->
        print_fetched_report ~json ~benchmark ~strategy ~clock:"" report;
        flush_obs_outputs ~metrics_out ~trace_out obs;
        0
    | { Fmc_sched.Service.sv_reason = Fmc_sched.Service.Idle; _ } ->
        fail 2 "no worker connected for %.0f s with the campaign unfinished (--max-idle)" max_idle
    | _ -> fail 1 "stopped before the campaign finished"
  in
  let linger =
    Arg.(
      value
      & opt duration_conv 5.
      & info [ "linger" ] ~docv:"DURATION"
          ~doc:
            "Keep answering report fetches this long after the campaign completes, and until no \
             connection is open (a bare number is seconds; $(b,ms)/$(b,s)/$(b,m)/$(b,h) suffixes \
             work, e.g. $(b,5m)).")
  in
  let max_idle =
    Arg.(
      value
      & opt duration_conv 0.
      & info [ "max-idle" ] ~docv:"DURATION"
          ~doc:
            "Exit with an error if the campaign is unfinished and no worker has been connected \
             for $(docv) (same duration syntax as $(b,--linger)); 0 waits forever.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Durable campaign state, written after every accepted shard; restarting with a \
             matching campaign resumes without re-running finished shards or re-admitting \
             quarantined workers.")
  in
  let sample_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-budget" ] ~docv:"CYCLES"
          ~doc:"Per-sample RTL cycle budget workers must apply (part of the campaign identity).")
  in
  let require_workers =
    Arg.(
      value & opt int 0
      & info [ "require-workers" ] ~docv:"N"
          ~doc:
            "Pause shard leasing (answering $(b,No_work)) while fewer than $(docv) healthy workers \
             are connected; 0 disables the floor. Visible on the fmc_dist_leasing_paused gauge.")
  in
  let breaker_failures =
    Arg.(
      value & opt int 5
      & info [ "breaker-failures" ] ~docv:"N"
          ~doc:
            "Consecutive protocol errors, corrupt frames or lease expiries that trip a worker's \
             circuit breaker.")
  in
  let breaker_cooldown =
    Arg.(
      value & opt float 10.
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:
            "How long a tripped breaker parks its worker (connections answered with Retry_later) \
             before admitting a probe.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the final report as JSON.") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Coordinate a distributed campaign: lease sample shards to workers, fence stale results, \
          merge bit-exactly.")
    Term.(
      const run $ benchmark_arg $ strategy_arg $ samples_arg 5000 $ seed_arg $ listen_arg
      $ shard_size_arg $ lease_ttl_arg $ linger $ max_idle $ checkpoint $ sample_budget
      $ require_workers $ io_deadline_arg $ breaker_failures $ breaker_cooldown $ audit_rate_arg
      $ speculate_factor_arg $ chaos_args "coordinator" $ http_port_arg "campaign"
      $ fleet_trace_out_arg $ json $ fault_model_arg $ metrics_out_arg $ trace_out_arg)

(* worker *)

let worker_cmd =
  let run benchmark strategy samples seed addr pool shard_size sample_budget fault_model
      name heartbeat_every io_deadline reconnect_attempts reconnect_budget chaos_plan chaos_seed
      chaos_log metrics_out trace_out progress =
    let model = fault_model_of_arg_or_die fault_model in
    with_context @@ fun ctx ->
    let obs = fleet_obs ~progress in
    let name =
      match name with Some n -> n | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
    in
    (* Under --chaos-plan the worker dials a local fault-injection proxy
       that forwards to the real coordinator. *)
    let connect_addr, stop_chaos =
      match chaos_plan with
      | None -> (addr, fun () -> ())
      | Some spec ->
          let cplan = load_chaos_plan spec in
          let public = Fmc_dist.Wire.Unix_path (chaos_socket_path "worker") in
          let log, close_log = chaos_logger chaos_log in
          (public, start_chaos_proxy ~obs ~plan:cplan ~seed:chaos_seed ~log ~close_log
                     ~public ~upstream:addr)
    in
    let config =
      {
        (Fmc_dist.Worker.default_config ~addr:connect_addr ~worker_name:name) with
        heartbeat_every;
        io_deadline_s = io_deadline;
        retry =
          {
            Fmc_dist.Worker.default_retry with
            max_attempts = reconnect_attempts;
            budget_s = reconnect_budget;
          };
      }
    in
    let on_reconnect ~attempt ~sleep_s ~reason =
      Format.eprintf "worker %s: reconnect #%d in %.2fs (%s)@." name attempt sleep_s reason
    in
    let finish code =
      stop_chaos ();
      if code <> 0 then exit code
    in
    (* Every job names its campaign in its spec; resolve benchmarks,
       strategies and fault models from those names. [--pool] only picks
       the Hello scope: any campaign the service holds, or the one the
       campaign options name. *)
    let resolve (spec : Fmc_dist.Protocol.spec) =
      match
        ( benchmark_of_name spec.Fmc_dist.Protocol.sp_benchmark,
          strategy_of_name spec.Fmc_dist.Protocol.sp_strategy,
          Fmc_fault.Registry.parse spec.Fmc_dist.Protocol.sp_fault_model )
      with
      | None, _, _ ->
          Error (Printf.sprintf "unknown benchmark %S" spec.Fmc_dist.Protocol.sp_benchmark)
      | _, None, _ ->
          Error (Printf.sprintf "unknown strategy %S" spec.Fmc_dist.Protocol.sp_strategy)
      | _, _, Error e -> Error (Fmc_fault.Registry.error_message e)
      | Some b, Some s, Ok m ->
          let engine, prep = prepared ctx b s in
          Ok (engine, prep, Fmc_fault.Model.injector m)
    in
    let scope =
      if pool then Fmc_dist.Protocol.pool_fingerprint
      else
        Fmc_dist.Protocol.spec_fingerprint
          (spec_of_args
             ~fault_model:(Fmc_fault.Model.canonical model)
             ~benchmark ~strategy ~samples ~seed ~shard_size ~sample_budget ())
    in
    match Fmc_dist.Worker.run ~obs ~on_reconnect config ~scope ~resolve with
    | accepted ->
        Format.fprintf ppf "worker %s: %d shard result(s) accepted@." name accepted;
        flush_obs_outputs ~metrics_out ~trace_out obs;
        finish 0
    | exception Fmc_dist.Worker.Rejected reason ->
        Format.eprintf "faultmc: coordinator rejected us: %s@." reason;
        finish 2
    | exception Failure msg ->
        Format.eprintf "faultmc: %s@." msg;
        flush_obs_outputs ~metrics_out ~trace_out obs;
        finish 1
    | exception Unix.Unix_error (e, _, _) ->
        Format.eprintf "faultmc: coordinator connection failed: %s@." (Unix.error_message e);
        finish 1
  in
  let addr =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"ADDR" ~doc:"Coordinator address: HOST:PORT or unix:PATH.")
  in
  let pool =
    Arg.(
      value & flag
      & info [ "pool" ]
          ~doc:
            "Shared-pool mode: hello with the pool scope and lease shards from whichever \
             campaign the service picks ($(b,faultmc sched)'s queue, or $(b,faultmc serve)'s one \
             campaign), until it drains. Every job carries its campaign spec either way; the \
             campaign-identity options, which otherwise name the one campaign to lease from, are \
             ignored.")
  in
  let sample_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-budget" ] ~docv:"CYCLES"
          ~doc:"Per-sample RTL cycle budget (must match the coordinator's).")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Worker name for leases and metrics (default: worker-<pid>).")
  in
  let heartbeat_every =
    Arg.(
      value & opt int 100
      & info [ "heartbeat-every" ] ~docv:"N"
          ~doc:"Samples between lease heartbeats (0 disables heartbeating).")
  in
  let io_deadline =
    Arg.(
      value & opt float 120.
      & info [ "io-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Socket read/write deadline; a stalled coordinator link times out (and triggers a \
             reconnect) after this long.")
  in
  let reconnect_attempts =
    Arg.(
      value & opt int 10
      & info [ "reconnect-attempts" ] ~docv:"N"
          ~doc:"Consecutive failed reconnect attempts before the worker gives up.")
  in
  let reconnect_budget =
    Arg.(
      value & opt float 300.
      & info [ "reconnect-budget" ] ~docv:"SECONDS"
          ~doc:"Total backoff sleep allowed across the whole run before the worker gives up.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run distributed-campaign shards for a coordinator. The benchmark, strategy, -n, --seed, \
          --shard-size, --sample-budget and --fault-model must match the coordinator's campaign.")
    Term.(
      const run $ benchmark_arg $ strategy_arg $ samples_arg 5000 $ seed_arg $ addr $ pool
      $ shard_size_arg $ sample_budget $ fault_model_arg $ name_arg $ heartbeat_every
      $ io_deadline $ reconnect_attempts $ reconnect_budget
      $ chaos_plan_arg "worker's coordinator link" $ chaos_seed_arg $ chaos_log_arg
      $ metrics_out_arg $ trace_out_arg $ progress_arg)

(* sched / submit / status / cancel — the multi-campaign scheduler *)

let connect_arg what =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:(Printf.sprintf "%s address: HOST:PORT or unix:PATH." what))

let client_config addr =
  Fmc_dist.Worker.default_config ~addr
    ~worker_name:(Printf.sprintf "client-%d" (Unix.getpid ()))

let sched_cmd =
  let run addr state_dir queue_depth ttl wall_budget retry_after max_idle io_deadline audit_rate
      speculate_factor chaos http_port fleet_trace_out metrics_out trace_out =
    let obs = fleet_obs ~progress:`Off in
    let configure listen_addr =
      {
        (Fmc_sched.Service.default_config listen_addr) with
        state_dir = Some state_dir;
        sched =
          {
            Fmc_sched.Sched.default_config with
            queue_depth;
            ttl_s = ttl;
            wall_budget_s = wall_budget;
            retry_after_s = retry_after;
            audit_rate;
            speculate_factor;
          };
        max_idle_s = max_idle;
        io_deadline_s = io_deadline;
        handle_signals = true;
      }
    in
    Format.eprintf "scheduler on %s, state in %s@." (Fmc_dist.Wire.addr_to_string addr) state_dir;
    match run_service ~obs ~what:"scheduler" ~chaos ~http_port ~fleet_trace_out addr configure with
    | outcome ->
        Format.fprintf ppf "scheduler exiting: %s@."
          (match outcome.Fmc_sched.Service.sv_reason with
          | Fmc_sched.Service.Drained | Fmc_sched.Service.Finished -> "drained"
          | Fmc_sched.Service.Idle -> "idle past --max-idle");
        flush_obs_outputs ~metrics_out ~trace_out obs;
        0
    | exception Failure msg ->
        Format.eprintf "faultmc: %s@." msg;
        flush_obs_outputs ~metrics_out ~trace_out obs;
        exit 2
  in
  let state_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable scheduler state: the submission-queue WAL and per-campaign checkpoints. \
             Restarting with the same $(docv) recovers every queued, running and finished \
             campaign — even after kill -9.")
  in
  let queue_depth =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission control: submissions beyond $(docv) queued-or-running campaigns are shed \
             with a typed rejection and a retry-after hint; 0 disables.")
  in
  let wall_budget =
    Arg.(
      value
      & opt duration_conv 0.
      & info [ "wall-budget" ] ~docv:"DURATION"
          ~doc:
            "Park any campaign still unfinished this long after its first lease (it stops \
             consuming the pool; the scheduler lives on). 0 disables.")
  in
  let retry_after =
    Arg.(
      value
      & opt duration_conv 5.
      & info [ "retry-after" ] ~docv:"DURATION"
          ~doc:"Retry hint carried by queue-full rejections.")
  in
  let max_idle =
    Arg.(
      value
      & opt duration_conv 0.
      & info [ "max-idle" ] ~docv:"DURATION"
          ~doc:
            "Exit once the queue has been empty (nothing queued or running) this long; 0 serves \
             forever. Same duration syntax as $(b,--linger) on $(b,serve).")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Run the multi-campaign scheduler: a durable WAL-backed submission queue leasing shards \
          of every active campaign to a shared worker pool, with crash recovery, report caching \
          and overload shedding.")
    Term.(
      const run $ listen_arg $ state_dir $ queue_depth $ lease_ttl_arg $ wall_budget $ retry_after
      $ max_idle $ io_deadline_arg $ audit_rate_arg $ speculate_factor_arg
      $ chaos_args "scheduler" $ http_port_arg "fleet" $ fleet_trace_out_arg $ metrics_out_arg
      $ trace_out_arg)

let submit_cmd =
  let run benchmark strategy samples seed shard_size sample_budget fault_model list_models addr
      wait timeout json metrics_out trace_out =
    if list_models then begin
      list_fault_models ppf;
      exit 0
    end;
    let model = fault_model_of_arg_or_die fault_model in
    let obs = build_obs ~metrics_out ~trace_out ~progress:`Off in
    let spec =
      spec_of_args
        ~fault_model:(Fmc_fault.Model.canonical model)
        ~benchmark ~strategy ~samples ~seed ~shard_size ~sample_budget ()
    in
    let config = client_config addr in
    match Fmc_dist.Worker.submit ~obs config spec with
    | Error msg ->
        Format.eprintf "faultmc: %s@." msg;
        exit 1
    | Ok (Fmc_dist.Worker.Submit_rejected { retry_after_s; reason }) ->
        (* Typed shed: exit 3 so scripts can tell "try later" from
           real failures, as the retry-after hint suggests. *)
        Format.eprintf "faultmc: submission rejected: %s; retry in %.0fs@." reason retry_after_s;
        exit 3
    | Ok reply -> (
        (match reply with
        | Fmc_dist.Worker.Submit_cached ->
            Format.eprintf "campaign already finished; report is cached@."
        | Fmc_dist.Worker.Submit_queued position ->
            Format.eprintf "queued at position %d@." position
        | Fmc_dist.Worker.Submit_rejected _ -> assert false);
        if not wait then 0
        else begin
          (* Wait for the report on a campaign-scoped connection,
             surfacing queue position and ETA while it is pending. *)
          let last = ref "" in
          let on_pending e =
            let line = Format.asprintf "%a" render_status_entry e in
            if line <> !last then begin
              last := line;
              Format.eprintf "%s@." line
            end
          in
          let fingerprint = Fmc_dist.Protocol.spec_fingerprint spec in
          match
            Fmc_dist.Worker.fetch_report ~obs ~timeout_s:timeout ~on_pending config ~fingerprint
          with
          | Error err ->
              Format.eprintf "faultmc: %s@." (Fmc_dist.Worker.fetch_error_message err);
              exit 1
          | Ok report ->
              print_fetched_report ~json ~benchmark ~strategy ~clock:" (scheduled)" report;
              flush_obs_outputs ~metrics_out ~trace_out obs;
              0
        end)
  in
  let wait =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:"Block until the campaign finishes and print its report (like $(b,evaluate)).")
  in
  let timeout =
    Arg.(
      value
      & opt duration_conv 600.
      & info [ "timeout" ] ~docv:"DURATION" ~doc:"Give up waiting after this long (with --wait).")
  in
  let sample_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-budget" ] ~docv:"CYCLES"
          ~doc:"Per-sample RTL cycle budget (part of the campaign identity).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON (with --wait).") in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a multi-campaign scheduler. Resubmitting a finished campaign is \
          free: the scheduler answers from its report cache.")
    Term.(
      const run $ benchmark_arg $ strategy_arg $ samples_arg 5000 $ seed_arg $ shard_size_arg
      $ sample_budget $ fault_model_arg $ list_fault_models_flag $ connect_arg "Scheduler"
      $ wait $ timeout $ json $ metrics_out_arg $ trace_out_arg)

let status_cmd =
  let run addr fingerprint =
    let config = client_config addr in
    match Fmc_dist.Worker.sched_status config ~fingerprint with
    | Error msg ->
        Format.eprintf "faultmc: %s@." msg;
        exit 1
    | Ok [] ->
        Format.fprintf ppf "no campaigns@.";
        0
    | Ok entries ->
        List.iter (fun e -> Format.fprintf ppf "%a@." render_status_entry e) entries;
        0
  in
  let fingerprint =
    Arg.(
      value & opt string ""
      & info [ "fingerprint" ] ~docv:"FP"
          ~doc:
            "Show only this campaign (the fingerprint $(b,submit) printed); default lists every \
             campaign in submission order.")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show a multi-campaign scheduler's queue, progress and ETAs.")
    Term.(const run $ connect_arg "Scheduler" $ fingerprint)

let cancel_cmd =
  let run benchmark strategy samples seed shard_size sample_budget fault_model addr fingerprint =
    let config = client_config addr in
    let fingerprint =
      match fingerprint with
      | Some fp -> fp
      | None ->
          let model = fault_model_of_arg_or_die fault_model in
          Fmc_dist.Protocol.spec_fingerprint
            (spec_of_args
               ~fault_model:(Fmc_fault.Model.canonical model)
               ~benchmark ~strategy ~samples ~seed ~shard_size ~sample_budget ())
    in
    match Fmc_dist.Worker.cancel config ~fingerprint with
    | Error msg ->
        Format.eprintf "faultmc: %s@." msg;
        exit 1
    | Ok (true, _) ->
        Format.fprintf ppf "cancelled@.";
        0
    | Ok (false, reason) ->
        Format.eprintf "faultmc: not cancelled: %s@." reason;
        exit 1
  in
  let fingerprint =
    Arg.(
      value
      & opt (some string) None
      & info [ "fingerprint" ] ~docv:"FP"
          ~doc:
            "Cancel by exact fingerprint instead of recomputing it from the campaign-identity \
             options.")
  in
  let sample_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-budget" ] ~docv:"CYCLES"
          ~doc:"Per-sample RTL cycle budget (part of the campaign identity).")
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a queued or running campaign on a multi-campaign scheduler. Resubmitting the \
          same spec later starts it from scratch.")
    Term.(
      const run $ benchmark_arg $ strategy_arg $ samples_arg 5000 $ seed_arg $ shard_size_arg
      $ sample_budget $ fault_model_arg $ connect_arg "Scheduler" $ fingerprint)

(* matrix — cross-model campaign sweep *)

let matrix_cmd =
  let run models_csv benchmarks_csv strategies_csv samples seed shard_size fast json report_dir
      connect list_models =
    if list_models then begin
      list_fault_models ppf;
      exit 0
    end;
    let split csv =
      List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ',' csv))
    in
    (* Comma also separates model parameters, so model specs are split
       on '+' instead: "seu-burst:bits=4+instr-skip". *)
    let split_models csv =
      List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char '+' csv))
    in
    let models = List.map fault_model_of_arg_or_die (split_models models_csv) in
    let benchmarks =
      List.map
        (fun name ->
          match benchmark_of_name name with
          | Some b -> b
          | None ->
              Format.eprintf "faultmc: unknown benchmark %S@." name;
              exit 2)
        (split benchmarks_csv)
    in
    let strategies =
      List.map
        (fun name ->
          match strategy_of_name name with
          | Some s -> s
          | None ->
              Format.eprintf "faultmc: unknown strategy %S@." name;
              exit 2)
        (split strategies_csv)
    in
    if models = [] || benchmarks = [] || strategies = [] then begin
      prerr_endline "faultmc: matrix needs at least one model, benchmark and strategy";
      exit 2
    end;
    let samples = if fast then min samples 300 else samples in
    let shard_size = if fast then min shard_size 100 else shard_size in
    Option.iter
      (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
      report_dir;
    let cells =
      List.concat_map
        (fun (m : Fmc_fault.Model.t) ->
          List.concat_map
            (fun b -> List.map (fun s -> (m, b, s)) strategies)
            benchmarks)
        models
    in
    (* Each cell is exactly an `evaluate --shard-size` campaign (same
       spec → same bytes), locally or through a scheduler's pool. *)
    let eval_cell =
      match connect with
      | Some addr ->
          let config = client_config addr in
          fun (model, benchmark, strategy) ->
            let spec =
              spec_of_args
                ~fault_model:(Fmc_fault.Model.canonical model)
                ~benchmark ~strategy ~samples ~seed ~shard_size ~sample_budget:None ()
            in
            let fail msg =
              Format.eprintf "faultmc: %s@." msg;
              exit 1
            in
            (match Fmc_dist.Worker.submit config spec with
            | Error msg -> fail msg
            | Ok (Fmc_dist.Worker.Submit_rejected { retry_after_s; reason }) ->
                Format.eprintf "faultmc: submission rejected: %s; retry in %.0fs@." reason
                  retry_after_s;
                exit 3
            | Ok _ -> ());
            let fingerprint = Fmc_dist.Protocol.spec_fingerprint spec in
            (match Fmc_dist.Worker.fetch_report config ~fingerprint with
            | Error err -> fail (Fmc_dist.Worker.fetch_error_message err)
            | Ok (shards, quarantined, elapsed_s) -> (
                match
                  Fmc_dist.Merge.report_of_blobs
                    ~strategy:(Fmc.Sampler.strategy_name strategy)
                    shards
                with
                | Error msg -> fail msg
                | Ok report -> (report, List.length quarantined, elapsed_s)))
      | None ->
          let ctx = lazy (Fmc.Experiments.context ()) in
          fun (model, benchmark, strategy) ->
            let engine, prep = prepared (Lazy.force ctx) benchmark strategy in
            let result =
              Fmc.Campaign.estimate_sharded ~inject:(Fmc_fault.Model.injector model) engine prep
                ~samples ~seed ~shard_size
            in
            ( result.Fmc.Campaign.report,
              List.length result.Fmc.Campaign.quarantined,
              result.Fmc.Campaign.elapsed_s )
    in
    let rows =
      List.map
        (fun ((model, benchmark, strategy) as cell) ->
          let report, quarantined, elapsed_s = eval_cell cell in
          (match report_dir with
          | None -> ()
          | Some dir ->
              (* The per-cell report, verbatim Export.report_json bytes —
                 what CI diffs against `evaluate --shard-size --json`. *)
              let path =
                Filename.concat dir
                  (Printf.sprintf "%s-%s-%s.json"
                     (Fmc_fault.Model.metric_name model)
                     benchmark.Fmc_isa.Programs.name
                     (Fmc.Sampler.strategy_name strategy))
              in
              write_file path (Fmc.Export.report_json report ^ "\n");
              Format.eprintf "wrote %s@." path);
          (model, benchmark, strategy, report, quarantined, elapsed_s))
        cells
    in
    if json then begin
      let buf = Buffer.create 2048 in
      let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pr "{\"schema\":\"faultmc-matrix-v1\",\"samples\":%d,\"seed\":%d,\"shard_size\":%d,\"rows\":["
        samples seed shard_size;
      List.iteri
        (fun i (model, benchmark, strategy, (report : Fmc.Ssf.report), quarantined, elapsed_s) ->
          if i > 0 then pr ",";
          let lo, hi = Fmc.Ssf.confidence_interval report ~z:1.96 in
          pr
            "{\"model\":\"%s\",\"benchmark\":\"%s\",\"strategy\":\"%s\",\"ssf\":%.8f,\"ci95\":[%.8f,%.8f],\"samples\":%d,\"successes\":%d,\"ess\":%.2f,\"quarantined\":%d,\"elapsed_s\":%.6f}"
            (Fmc_obs.Jsonx.escape (Fmc_fault.Model.canonical model))
            (Fmc_obs.Jsonx.escape benchmark.Fmc_isa.Programs.name)
            (Fmc_obs.Jsonx.escape (Fmc.Sampler.strategy_name strategy))
            report.Fmc.Ssf.ssf lo hi report.Fmc.Ssf.n report.Fmc.Ssf.successes
            report.Fmc.Ssf.ess quarantined elapsed_s)
        rows;
      pr "]}";
      print_endline (Buffer.contents buf)
    end
    else begin
      Format.fprintf ppf "%-24s %-10s %-10s %10s %21s %7s %9s@." "model" "benchmark" "strategy"
        "ssf" "ci95" "n" "ess";
      List.iter
        (fun (model, benchmark, strategy, (report : Fmc.Ssf.report), quarantined, elapsed_s) ->
          let lo, hi = Fmc.Ssf.confidence_interval report ~z:1.96 in
          Format.fprintf ppf "%-24s %-10s %-10s %10.5f [%9.5f,%9.5f] %7d %9.1f"
            (Fmc_fault.Model.canonical model)
            benchmark.Fmc_isa.Programs.name
            (Fmc.Sampler.strategy_name strategy)
            report.Fmc.Ssf.ssf lo hi report.Fmc.Ssf.n report.Fmc.Ssf.ess;
          if quarantined > 0 then Format.fprintf ppf "  (%d quarantined)" quarantined;
          Format.fprintf ppf "  %.2fs@." elapsed_s)
        rows
    end;
    0
  in
  let models_csv =
    Arg.(
      value
      & opt string "disc-transient+seu-burst+instr-skip+double-strike"
      & info [ "models" ] ~docv:"MODELS"
          ~doc:
            "'+'-separated fault models to sweep, each NAME or NAME:k=v,... (default: all four \
             registered models). See $(b,--list-fault-models).")
  in
  let benchmarks_csv =
    Arg.(
      value & opt string "write,read"
      & info [ "benchmarks" ] ~docv:"NAMES" ~doc:"Comma-separated benchmarks to sweep.")
  in
  let strategies_csv =
    Arg.(
      value & opt string "mixed"
      & info [ "strategies" ] ~docv:"NAMES" ~doc:"Comma-separated sampling strategies to sweep.")
  in
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:"CI smoke preset: caps samples at 300 and the shard size at 100 per cell.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the table under the faultmc-matrix-v1 schema.")
  in
  let report_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "report-dir" ] ~docv:"DIR"
          ~doc:
            "Also write each cell's full campaign report (verbatim $(b,evaluate --json) bytes) \
             to DIR/<model>-<benchmark>-<strategy>.json.")
  in
  let connect =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Run each cell through the multi-campaign scheduler at $(docv) (HOST:PORT or \
             unix:PATH) instead of evaluating locally; cells are submitted and collected one at \
             a time.")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Sweep fault models x benchmarks x strategies in one command: each cell is a full \
          sharded campaign (bit-exact with $(b,evaluate --shard-size)), reported as a per-model \
          SSF/CI table in text or JSON.")
    Term.(
      const run $ models_csv $ benchmarks_csv $ strategies_csv $ samples_arg 2000 $ seed_arg
      $ shard_size_arg $ fast $ json $ report_dir $ connect $ list_fault_models_flag)

(* top — live fleet view over the --http-port scrape endpoint *)

let top_cmd =
  let run addr interval once =
    let host, port =
      match addr with
      | Fmc_dist.Wire.Tcp (h, p) -> (h, p)
      | Fmc_dist.Wire.Unix_path _ ->
          Format.eprintf "faultmc: top polls an HTTP scrape endpoint — use HOST:PORT@.";
          exit 2
    in
    let fetch path = Fmc_obs.Httpd.get ~deadline_s:5. ~host ~port ~path () in
    (* Plain single-value series only (no '{' labels) — enough for the
       handful of fleet gauges/counters top surfaces. *)
    let metric_value body name =
      List.find_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i
            when String.sub line 0 i = name
                 && (String.length line = 0 || line.[0] <> '#')
                 && not (String.contains (String.sub line 0 i) '{') ->
              float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> None)
        (String.split_on_char '\n' body)
    in
    (* An unreachable endpoint is a typed one-line failure (exit 1), not
       a screenful of "unreachable" rows: scripts probing a fleet with
       `top --once` need the distinction, and an interactive top whose
       endpoint vanished has nothing left to watch. *)
    let screen () =
      let b = Buffer.create 1024 in
      let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      let now = Unix.localtime (Unix.gettimeofday ()) in
      add "faultmc top — %s:%d — %02d:%02d:%02d\n\n" host port now.Unix.tm_hour now.Unix.tm_min
        now.Unix.tm_sec;
      (match fetch "/healthz" with
      | Ok (status, body) -> add "health   HTTP %d  %s\n" status (String.trim body)
      | Error msg ->
          Format.eprintf "faultmc: scrape endpoint unreachable at %s:%d: %s@." host port msg;
          exit 1);
      (match fetch "/campaigns.txt" with
      | Ok (200, body) ->
          add "\ncampaigns:\n";
          String.split_on_char '\n' body
          |> List.iter (fun l -> if String.trim l <> "" then add "  %s\n" l)
      | Ok (status, _) -> add "\ncampaigns: HTTP %d\n" status
      | Error msg -> add "\ncampaigns: unreachable (%s)\n" msg);
      (match fetch "/workers.txt" with
      | Ok (200, body) ->
          add "\nworkers:\n";
          String.split_on_char '\n' body
          |> List.iter (fun l -> if String.trim l <> "" then add "  %s\n" l)
      | Ok (status, _) -> add "\nworkers: HTTP %d\n" status
      | Error msg -> add "\nworkers: unreachable (%s)\n" msg);
      (match fetch "/metrics" with
      | Ok (200, body) ->
          let interesting =
            [
              ("fmc_sva_prune_ratio", "prune ratio");
              ("fmc_dist_leasing_paused", "leasing paused");
              ("fmc_dist_reconnects_total", "worker reconnects");
              ("fmc_dist_leases_expired_total", "lease expiries");
              ("fmc_sched_wal_torn_records_total", "torn WAL records");
            ]
          in
          let found =
            List.filter_map
              (fun (name, label) ->
                Option.map (fun v -> Printf.sprintf "%s %g" label v) (metric_value body name))
              interesting
          in
          if found <> [] then add "\nfleet:   %s\n" (String.concat "  |  " found)
      | Ok _ | Error _ -> ());
      Buffer.contents b
    in
    if once then begin
      print_string (screen ());
      flush stdout;
      0
    end
    else
      let rec loop () =
        (* Clear + home, then repaint in place. *)
        print_string "\027[2J\027[H";
        print_string (screen ());
        flush stdout;
        Unix.sleepf interval;
        loop ()
      in
      loop ()
  in
  let interval =
    Arg.(
      value
      & opt duration_conv 2.
      & info [ "interval" ] ~docv:"DURATION" ~doc:"Refresh period (same syntax as $(b,--linger)).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Print one snapshot and exit instead of refreshing in place.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live fleet view: poll a coordinator's or scheduler's $(b,--http-port) scrape endpoint \
          and show campaign progress, ETAs, per-worker lease/breaker state and fleet gauges, \
          refreshed in place.")
    Term.(const run $ connect_arg "Scrape-endpoint" $ interval $ once)

(* experiments *)

let experiments_cmd =
  let run fast =
    with_context @@ fun ctx ->
    let scale n = if fast then max 200 (n / 10) else n in
    Format.fprintf ppf "%a@.%a@.%a@.%a@.%a@.%a@.%a@." Fmc.Report.fig4 (Fmc.Experiments.fig4 ctx)
      Fmc.Report.fig7
      (Fmc.Experiments.fig7 ~strikes:(scale 3000) ctx)
      Fmc.Report.fig8 (Fmc.Experiments.fig8 ctx) Fmc.Report.fig9
      (Fmc.Experiments.fig9 ~samples:(scale 10_000) ctx)
      Fmc.Report.fig10
      (Fmc.Experiments.fig10 ~samples:(scale 8000) ctx)
      Fmc.Report.fig11
      (Fmc.Experiments.fig11 ~samples:(scale 4000) ctx)
      Fmc.Report.headline
      (Fmc.Experiments.headline ~samples:(scale 10_000) ctx)
  in
  let fast = Arg.(value & flag & info [ "fast" ] ~doc:"Reduced sample counts (smoke test).") in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate every figure and table of the paper's evaluation.")
    Term.(const run $ fast)

let () =
  (* The sample loop runs on every core, and each domain's minor
     collection stops all of them, promoting the others' in-flight
     samples: a tighter major-heap overhead keeps the peak where one
     domain had it (DESIGN.md §7, "On every core"). *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  let doc = "cross-level Monte Carlo fault-attack vulnerability evaluation" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit (Cmd.eval' (Cmd.group ~default (Cmd.info "faultmc" ~version:"1.0.0" ~doc)
    [ info_cmd; evaluate_cmd; characterize_cmd; sweep_cmd; harden_cmd; lint_cmd; sva_cmd;
      matrix_cmd; serve_cmd; worker_cmd; sched_cmd; submit_cmd; status_cmd;
      cancel_cmd; top_cmd; trace_cmd; dot_cmd; experiments_cmd ]))
