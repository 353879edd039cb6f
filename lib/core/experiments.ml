module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Unroll = Fmc_netlist.Unroll
module Circuit = Fmc_cpu.Circuit
module Programs = Fmc_isa.Programs
module Pattern = Fmc_gatesim.Pattern
module Rng = Fmc_prelude.Rng
module Histogram = Fmc_prelude.Stats.Histogram

type context = {
  circuit : Circuit.t;
  precharac : Precharac.t;
  engines : (string, Engine.t) Hashtbl.t;
}

let context ?(seed = 2017) () =
  let circuit = Circuit.build () in
  let rng = Rng.create seed in
  let precharac = Precharac.run circuit ~rng in
  { circuit; precharac; engines = Hashtbl.create 4 }

let circuit ctx = ctx.circuit
let precharac ctx = ctx.precharac

let engine_for ctx (program : Programs.t) =
  match Hashtbl.find_opt ctx.engines program.Programs.name with
  | Some e -> e
  | None ->
      let e = Engine.create ~precharac:ctx.precharac program in
      Hashtbl.replace ctx.engines program.Programs.name e;
      e

let default_block ctx =
  let engine = engine_for ctx Programs.illegal_write in
  Attack.block_around (Engine.placement engine)
    ~roots:(Circuit.responding_signals ctx.circuit)
    ~fraction:0.5

let default_attack ctx =
  let engine = engine_for ctx Programs.illegal_write in
  Attack.default (Engine.placement engine) ~block:(default_block ctx)

(* ------------------------------------------------------------------ *)
(* Figure 4 *)

type fig4 = {
  lifetime_hist : (float * float) array;
  contamination_hist : (float * float) array;
  memory_fraction : float;
}

let fig4 ctx =
  let stats = Lifetime.all (Precharac.lifetimes ctx.precharac) in
  let lh = Histogram.create ~lo:0. ~hi:200. ~bins:20 in
  let ch = Histogram.create ~lo:0. ~hi:20. ~bins:20 in
  Array.iter
    (fun (s : Lifetime.stats) ->
      Histogram.add lh s.Lifetime.lifetime;
      Histogram.add ch s.Lifetime.contamination)
    stats;
  let points h = Array.mapi (fun i p -> (Histogram.bin_center h i, p)) (Histogram.probabilities h) in
  {
    lifetime_hist = points lh;
    contamination_hist = points ch;
    memory_fraction = Lifetime.memory_fraction (Precharac.lifetimes ctx.precharac);
  }

(* ------------------------------------------------------------------ *)
(* Figure 7 *)

type fig7 = {
  strikes : int;
  with_errors : int;
  single_bit : float;
  single_byte : float;
  multi_byte : float;
  full_byte : int;
  comb_only_patterns : int;
  seq_only_patterns : int;
  common_patterns : int;
}

let fig7 ?(strikes = 3000) ?(seed = 7) ctx =
  let engine = engine_for ctx Programs.illegal_write in
  let placement = Engine.placement engine in
  let net = ctx.circuit.Circuit.net in
  let block = default_block ctx in
  let comb_cells =
    Array.of_list
      (List.filter (fun c -> match N.kind net c with K.Gate _ -> true | _ -> false) (Array.to_list block))
  in
  let seq_cells =
    Array.of_list
      (List.filter (fun c -> match N.kind net c with K.Dff _ -> true | _ -> false) (Array.to_list block))
  in
  let rng = Rng.create seed in
  let sb = ref 0 and sby = ref 0 and mb = ref 0 and full = ref 0 and with_errors = ref 0 in
  let comb_keys = Hashtbl.create 256 and seq_keys = Hashtbl.create 256 in
  let attack = default_attack ctx in
  let one cells keys count_stats =
    let prep =
      Sampler.prepare Sampler.Random { attack with Attack.spatial = Attack.Uniform_cells cells }
        ctx.precharac ~placement
    in
    for _ = 1 to strikes do
      let sample = Sampler.draw prep rng in
      let latched, direct = Engine.gate_flips_only engine rng sample in
      let flips = Array.of_list (List.sort_uniq compare (Array.to_list latched @ Array.to_list direct)) in
      if Array.length flips > 0 then Hashtbl.replace keys (Pattern.key net ~flips) ();
      if count_stats then begin
        match Pattern.classify net ~flips with
        | None -> ()
        | Some cls ->
            incr with_errors;
            (match cls with
            | Pattern.Single_bit -> incr sb
            | Pattern.Single_byte ->
                incr sby;
                if Pattern.fills_whole_byte net ~flips then incr full
            | Pattern.Multi_byte -> incr mb)
      end
    done
  in
  (* Pattern-class statistics over strikes on the whole block (comb and seq
     mixed, like a real radiation event); the comb-vs-seq pattern-set
     comparison uses class-restricted strikes. *)
  let all_keys = Hashtbl.create 256 in
  one block all_keys true;
  one comb_cells comb_keys false;
  one seq_cells seq_keys false;
  let total = max 1 !with_errors in
  let inter = Hashtbl.fold (fun k () acc -> if Hashtbl.mem seq_keys k then acc + 1 else acc) comb_keys 0 in
  {
    strikes = 3 * strikes;
    with_errors = !with_errors;
    single_bit = float_of_int !sb /. float_of_int total;
    single_byte = float_of_int !sby /. float_of_int total;
    multi_byte = float_of_int !mb /. float_of_int total;
    full_byte = !full;
    comb_only_patterns = Hashtbl.length comb_keys - inter;
    seq_only_patterns = Hashtbl.length seq_keys - inter;
    common_patterns = inter;
  }

(* ------------------------------------------------------------------ *)
(* Figure 8 *)

type fig8 = {
  g_t : (int * float) list;
  per_depth : (int * int * int * int) list;
}

let fig8 ctx =
  let engine = engine_for ctx Programs.illegal_write in
  let placement = Engine.placement engine in
  let attack = default_attack ctx in
  let prep =
    Sampler.prepare
      ~static_vuln:(Engine.static_vulnerable engine)
      Sampler.default_importance attack ctx.precharac ~placement
  in
  let total_regs = Array.length (N.dffs ctx.circuit.Circuit.net) in
  let lifetimes = Precharac.lifetimes ctx.precharac in
  let per_depth =
    List.init (Precharac.depth ctx.precharac + 1) (fun d ->
        let level = Precharac.level ctx.precharac d in
        let cone = Array.length level.Unroll.registers in
        let comp =
          Array.length
            (Array.of_list
               (List.filter
                  (fun r -> not (Lifetime.memory_type lifetimes r))
                  (Array.to_list level.Unroll.registers)))
        in
        (d, total_regs, cone, comp))
  in
  { g_t = Sampler.temporal_pmf prep; per_depth }

(* ------------------------------------------------------------------ *)
(* Figure 9 *)

type fig9_row = {
  strategy : string;
  ssf : float;
  variance : float;
  successes : int;
  trace : (int * float) list;
}

type fig9 = { rows : fig9_row list; speedup_vs_random : (string * float) list }

let fig9 ?(samples = 10_000) ?(seed = 7) ?(benchmark = Programs.illegal_write) ctx =
  let engine = engine_for ctx benchmark in
  let placement = Engine.placement engine in
  let attack = default_attack ctx in
  let static_vuln = Engine.static_vulnerable engine in
  let rows =
    List.map
      (fun strategy ->
        let prep = Sampler.prepare ~static_vuln strategy attack ctx.precharac ~placement in
        let r = Ssf.estimate engine prep ~samples ~seed in
        {
          strategy = r.Ssf.strategy;
          ssf = r.Ssf.ssf;
          variance = r.Ssf.variance;
          successes = r.Ssf.successes;
          trace = r.Ssf.trace;
        })
      [ Sampler.Random; Sampler.Fanin_cone; Sampler.default_mixed ]
  in
  let random_var =
    match rows with { variance; _ } :: _ -> variance | [] -> assert false
  in
  let speedup_vs_random =
    List.map
      (fun row -> (row.strategy, if row.variance > 0. then random_var /. row.variance else infinity))
      rows
  in
  { rows; speedup_vs_random }

(* ------------------------------------------------------------------ *)
(* Figure 10 *)

type fig10 = {
  comb_masked : float;
  comb_mem_only : float;
  comb_resumed : float;
  reg_successes : int;
  reg_ssf : float;
  comb_successes : int;
  comb_ssf : float;
  samples_each : int;
}

let fig10 ?(samples = 8000) ?(seed = 11) ctx =
  let engine = engine_for ctx Programs.illegal_write in
  let placement = Engine.placement engine in
  let net = ctx.circuit.Circuit.net in
  let block = default_block ctx in
  let cells_of_kind p =
    Array.of_list (List.filter (fun c -> p (N.kind net c)) (Array.to_list block))
  in
  let comb_cells = cells_of_kind (function K.Gate _ -> true | _ -> false) in
  let seq_cells = cells_of_kind (function K.Dff _ -> true | _ -> false) in
  let attack = default_attack ctx in
  (* Disc strikes centered on one population with the effect restricted to
     that population: "attacks on combinational gates" vs "attacks on
     sequential elements", exactly the paper's separation. *)
  let run cells keep =
    let a = { attack with Attack.spatial = Attack.Uniform_cells cells } in
    let prep = Sampler.prepare Sampler.Random a ctx.precharac ~placement in
    let cell_filter c = keep (N.kind net c) in
    Ssf.estimate ~inject:(Ssf.disc_ablation ~cell_filter ()) engine prep ~samples ~seed
  in
  let comb = run comb_cells (function K.Gate _ -> true | _ -> false) in
  let seq = run seq_cells (function K.Dff _ -> true | _ -> false) in
  let f n = float_of_int n /. float_of_int samples in
  {
    comb_masked = f comb.Ssf.outcomes.Ssf.masked;
    comb_mem_only = f comb.Ssf.outcomes.Ssf.mem_only;
    comb_resumed = f comb.Ssf.outcomes.Ssf.resumed;
    reg_successes = seq.Ssf.successes;
    reg_ssf = seq.Ssf.ssf;
    comb_successes = comb.Ssf.successes;
    comb_ssf = comb.Ssf.ssf;
    samples_each = samples;
  }

(* ------------------------------------------------------------------ *)
(* Figure 11 *)

type fig11 = {
  temporal : (int * float * float) list;
  spatial : (string * float * float) list;
}

let fig11 ?(samples = 4000) ?(seed = 13) ctx =
  let attack = default_attack ctx in
  let block = default_block ctx in
  let ssf_of benchmark a =
    let engine = engine_for ctx benchmark in
    let prep = Sampler.prepare Sampler.Random a ctx.precharac ~placement:(Engine.placement engine) in
    (Ssf.estimate engine prep ~samples ~seed).Ssf.ssf
  in
  (* Temporal accuracy: the attacker aims at timing distance 1 (inject the
     cycle before the malicious access); poor accuracy widens the window
     symmetrically, so part of the shots land after the target cycle and
     are wasted. *)
  let ranges = [ 1; 2; 5; 10; 20; 50; 100 ] in
  let temporal_raw =
    List.map
      (fun w ->
        let lo = 1 - (w / 2) in
        let temporal = Dist.Uniform_int (lo, lo + w - 1) in
        let a = { attack with Attack.temporal } in
        (w, ssf_of Programs.illegal_write a, ssf_of Programs.illegal_read a))
      ranges
  in
  let wN, wrefw, wrefr = List.nth temporal_raw (List.length temporal_raw - 1) in
  ignore wN;
  let temporal =
    List.map
      (fun (w, sw, sr) ->
        (w, (if wrefw > 0. then sw /. wrefw else 0.), if wrefr > 0. then sr /. wrefr else 0.))
      temporal_raw
  in
  (* Spatial accuracy: from uniform over the block down to a delta at the
     attacker's best target cell (an analytically vulnerable register). *)
  let engine = engine_for ctx Programs.illegal_write in
  let placement = Engine.placement engine in
  let vuln = Engine.static_vulnerable engine in
  let target =
    match List.find_opt vuln (Array.to_list (N.dffs ctx.circuit.Circuit.net)) with
    | Some d -> d
    | None -> (N.dffs ctx.circuit.Circuit.net).(0)
  in
  let shrink fraction =
    Attack.Uniform_cells (Attack.block_around placement ~roots:[ target ] ~fraction)
  in
  let variants =
    [
      ("uniform", Attack.Uniform_cells block);
      ("1/4 block", shrink 0.125);
      ("1/16 block", shrink 0.03125);
      ("1/64 block", shrink 0.0078125);
      ("delta", Attack.Delta_cell target);
    ]
  in
  let spatial_raw =
    List.map
      (fun (label, spatial) ->
        let a = { attack with Attack.spatial } in
        (label, ssf_of Programs.illegal_write a, ssf_of Programs.illegal_read a))
      variants
  in
  let _, urw, urr = List.hd spatial_raw in
  let spatial =
    List.map
      (fun (label, sw, sr) ->
        (label, (if urw > 0. then sw /. urw else 0.), if urr > 0. then sr /. urr else 0.))
      spatial_raw
  in
  { temporal; spatial }

(* ------------------------------------------------------------------ *)
(* Headline *)

type headline = {
  critical : ((string * int) * float) list;
  critical_fraction : float;
  coverage : float;
  plans : (float * Harden.evaluation) list;
}

let headline ?(samples = 10_000) ?(seed = 7) ctx =
  let engine = engine_for ctx Programs.illegal_write in
  let placement = Engine.placement engine in
  let attack = default_attack ctx in
  let static_vuln = Engine.static_vulnerable engine in
  let prep = Sampler.prepare ~static_vuln Sampler.default_mixed attack ctx.precharac ~placement in
  let report = Ssf.estimate engine prep ~samples ~seed in
  let critical = Ssf.contribution_coverage report ~fraction:0.95 in
  let net = ctx.circuit.Circuit.net in
  (* Hardening plans of increasing coverage: the sweet spot sits where the
     plan covers the causal bits but not yet the co-flip noise. *)
  let plans =
    List.map
      (fun coverage ->
        let plan = Harden.default_plan net report ~coverage in
        (coverage, Harden.evaluate engine prep ~plan ~samples ~seed:(seed + 1)))
      [ 0.5; 0.75; 0.95 ]
  in
  let covered = List.fold_left (fun acc (_, w) -> acc +. w) 0. critical in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. report.Ssf.contributions in
  {
    critical;
    critical_fraction =
      float_of_int (List.length critical) /. float_of_int (Array.length (N.dffs net));
    coverage = (if total > 0. then covered /. total else 0.);
    plans;
  }
