module Engine = Fmc.Engine
module Golden = Fmc.Golden
module Ssf = Fmc.Ssf
module Sampler = Fmc.Sampler
module System = Fmc_cpu.System
module Circuit = Fmc_cpu.Circuit
module Metrics = Fmc_obs.Metrics
module Obs = Fmc_obs.Obs

(* ------------------------------------------------------------------ *)
(* Parameter plumbing shared by the builders: defaults, typed parsing,
   unknown/duplicate-key rejection, canonical (sorted, non-default)
   parameter lists. *)

let ( let* ) = Result.bind

let check_keys ~valid params =
  let rec go seen = function
    | [] -> Ok ()
    | (k, _) :: rest ->
        if not (List.mem k valid) then
          Error
            (Printf.sprintf "unknown parameter %S (valid: %s)" k (String.concat ", " valid))
        else if List.mem k seen then Error (Printf.sprintf "duplicate parameter %S" k)
        else go (k :: seen) rest
  in
  go [] params

let int_param params key ~default ~min ~max =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= min && n <= max -> Ok n
      | Some n -> Error (Printf.sprintf "%s=%d out of range [%d, %d]" key n min max)
      | None -> Error (Printf.sprintf "bad integer %s=%S" key v))

(* Canonical parameter list: only values that differ from the default,
   rendered in decimal, sorted by key — so "seu-burst:bits=2" and plain
   "seu-burst" canonicalize (and fingerprint) identically. *)
let nondefault params = List.sort compare (List.filter_map (fun p -> p) params)

let int_nondefault key v ~default = if v = default then None else Some (key, string_of_int v)

(* ------------------------------------------------------------------ *)
(* Injection scaffolding shared by the synthetic models. *)

let masked_result te ~struck_cells (sample : Sampler.sample) =
  {
    Engine.sample;
    te;
    outcome = Engine.Masked;
    success = false;
    flips = [];
    dmem_diffs = [];
    direct = [||];
    latched = [||];
    struck_cells;
  }

(* Resume the RTL run to completion under the optional watchdog and
   judge success by the benchmark observables — the same resume phase
   [Engine.run_sample] ends with. *)
let resume_and_judge engine ?cycle_budget sys =
  let budget = (Engine.program engine).Fmc_isa.Programs.max_cycles + 100 in
  System.set_watchdog sys cycle_budget;
  ignore (System.run sys ~max_cycles:(max 1 (budget - System.cycle sys)));
  System.set_watchdog sys None;
  Engine.observables_differ engine sys

(* Exact register-error set and differing data words just past the
   injection window, against a fresh golden reference at the same cycle
   (as the native engine computes them). *)
let diffs_vs_golden engine sys at =
  let golden_ref = Engine.restore engine at in
  let golden_dmem = System.dmem golden_ref in
  let dmem_diffs = ref [] in
  Array.iteri
    (fun a v -> if v <> golden_dmem.(a) then dmem_diffs := (a, v) :: !dmem_diffs)
    (System.dmem sys);
  (Engine.state_bit_diffs (System.state sys) (System.state golden_ref), List.rev !dmem_diffs)

let classify engine ?cycle_budget sys te ~struck_cells ~direct ~latched ~at
    (sample : Sampler.sample) =
  let flips, dmem_diffs = diffs_vs_golden engine sys at in
  if flips = [] && dmem_diffs = [] then masked_result te ~struck_cells sample
  else begin
    let success = resume_and_judge engine ?cycle_budget sys in
    {
      Engine.sample;
      te;
      outcome = Engine.Resumed success;
      success;
      flips;
      dmem_diffs;
      direct;
      latched;
      struck_cells;
    }
  end

(* Per-model sample counters, resolved from the engine's observability
   handle (disabled handles cost one branch). Observation-only: the
   counters never touch the sample stream or the RNG. *)
let count_run ~metric engine =
  match (Engine.obs engine).Obs.metrics with
  | None -> ()
  | Some reg ->
      Metrics.inc
        (Metrics.counter reg ~help:"fault-model sample evaluations" "fmc_fault_runs_total");
      Metrics.inc
        (Metrics.counter reg ~help:"per-model sample evaluations"
           ("fmc_fault_" ^ metric ^ "_runs_total"))

let injected ~name ~params ~doc make_run =
  let stub = { Model.name; params; doc; inject = None } in
  let metric = Model.metric_name stub in
  {
    stub with
    Model.inject =
      Some
        {
          Ssf.inj_model = Model.canonical stub;
          inj_run =
            (fun engine ?cycle_budget _rng sample ->
              count_run ~metric engine;
              make_run engine ?cycle_budget sample);
          inj_causal = (fun _engine (r : Engine.run_result) -> r.Engine.flips);
          inj_prunable = false;
          inj_reads_rng = false;
        };
  }

(* ------------------------------------------------------------------ *)
(* disc-transient: the engine's own path, [Ssf.disc_transient]. *)

let disc_transient params =
  let* () = check_keys ~valid:[] params in
  Ok
    {
      Model.name = "disc-transient";
      params = [];
      doc = "radiation disc: direct SEUs + gate-level voltage transients (the paper's native model)";
      inject = Some Ssf.disc_transient;
    }

(* ------------------------------------------------------------------ *)
(* seu-burst: direct multi-bit state flips, no combinational transients. *)

let seu_burst params =
  let* () = check_keys ~valid:[ "bits" ] params in
  let* bits = int_param params "bits" ~default:2 ~min:1 ~max:64 in
  let run engine ?cycle_budget (sample : Sampler.sample) =
    let golden = Engine.golden engine in
    let te = Golden.target_cycle golden - sample.Sampler.t in
    if te < 1 then masked_result te ~struck_cells:0 sample
    else begin
      let net = (Engine.circuit engine).Circuit.net in
      let dffs, _gates, struck_cells =
        Engine.partition_disc engine sample.Sampler.center sample.Sampler.radius
      in
      let direct = List.filteri (fun i _ -> i < bits) dffs in
      if direct = [] then masked_result te ~struck_cells sample
      else begin
        let sys = Engine.restore engine te in
        List.iter (Engine.apply_flip sys net) direct;
        classify engine ?cycle_budget sys te ~struck_cells ~direct:(Array.of_list direct)
          ~latched:[||] ~at:te sample
      end
    end
  in
  Ok
    (injected ~name:"seu-burst"
       ~params:(nondefault [ int_nondefault "bits" bits ~default:2 ])
       ~doc:
         (Printf.sprintf
            "direct multi-bit SEU burst: up to %d struck flip-flops take state flips, no \
             transients"
            bits)
       run)

(* ------------------------------------------------------------------ *)
(* instr-skip: ISS-level skip/corrupt of the fetched instruction. *)

type skip_mode = Skip | Corrupt

let instr_skip params =
  let* () = check_keys ~valid:[ "mode"; "mask" ] params in
  let* mode =
    match List.assoc_opt "mode" params with
    | None | Some "skip" -> Ok Skip
    | Some "corrupt" -> Ok Corrupt
    | Some v -> Error (Printf.sprintf "bad mode=%S (expected skip|corrupt)" v)
  in
  let* mask = int_param params "mask" ~default:0xffff ~min:1 ~max:0xffff in
  let* () =
    if mode = Skip && List.mem_assoc "mask" params then
      Error "mask only applies to mode=corrupt"
    else Ok ()
  in
  let nop = Fmc_isa.Isa.encode Fmc_isa.Isa.Nop in
  let run engine ?cycle_budget (sample : Sampler.sample) =
    let golden = Engine.golden engine in
    let te = Golden.target_cycle golden - sample.Sampler.t in
    if te < 1 then masked_result te ~struck_cells:0 sample
    else begin
      let sys = Engine.restore engine te in
      System.set_fetch_override sys
        (Some
           (fun ~pc:_ word ->
             match mode with Skip -> nop | Corrupt -> (word lxor mask) land 0xffff));
      ignore (System.step sys);
      System.set_fetch_override sys None;
      classify engine ?cycle_budget sys te ~struck_cells:0 ~direct:[||] ~latched:[||]
        ~at:(te + 1) sample
    end
  in
  Ok
    (injected ~name:"instr-skip"
       ~params:
         (nondefault
            [
              (match mode with Skip -> None | Corrupt -> Some ("mode", "corrupt"));
              int_nondefault "mask" mask ~default:0xffff;
            ])
       ~doc:
         (match mode with
         | Skip -> "ISS-level instruction skip: the fetched instruction executes as NOP"
         | Corrupt ->
             Printf.sprintf
               "ISS-level instruction corruption: the fetched word is XORed with 0x%04x" mask)
       run)

(* ------------------------------------------------------------------ *)
(* double-strike: the native strike, repeated at the same location after
   a parameterized gap. *)

let double_strike params =
  let* () = check_keys ~valid:[ "gap" ] params in
  let* gap = int_param params "gap" ~default:2 ~min:1 ~max:64 in
  let run engine ?cycle_budget (sample : Sampler.sample) =
    let golden = Engine.golden engine in
    let te = Golden.target_cycle golden - sample.Sampler.t in
    if te < 1 then masked_result te ~struck_cells:0 sample
    else begin
      let net = (Engine.circuit engine).Circuit.net in
      let dffs, gates, struck_cells =
        Engine.partition_disc engine sample.Sampler.center sample.Sampler.radius
      in
      let sys = Engine.restore engine te in
      let strike () =
        List.iter (Engine.apply_flip sys net) dffs;
        let latched = Engine.gate_level_cycle engine sys sample gates in
        (* [gate_level_cycle] writes the fault-free-latched next state
           back; latched errors are applied as corrections, exactly as
           the native engine does. *)
        Array.iter (Engine.apply_flip sys net) latched;
        latched
      in
      let latched1 = strike () in
      System.run_to_cycle sys (te + gap);
      let latched2 = strike () in
      let latched =
        Array.of_list
          (List.sort_uniq compare (Array.to_list latched1 @ Array.to_list latched2))
      in
      classify engine ?cycle_budget sys te ~struck_cells ~direct:(Array.of_list dffs) ~latched
        ~at:(te + gap + 1) sample
    end
  in
  Ok
    (injected ~name:"double-strike"
       ~params:(nondefault [ int_nondefault "gap" gap ~default:2 ])
       ~doc:
         (Printf.sprintf
            "temporal double strike: the sampled disc strikes twice, %d cycle(s) apart" gap)
       run)
