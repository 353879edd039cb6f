module N = Fmc_netlist.Netlist
module Placement = Fmc_layout.Placement
module Unroll = Fmc_netlist.Unroll
module Rng = Fmc_prelude.Rng
module Wdist = Fmc_prelude.Wdist

type strategy =
  | Random
  | Fanin_cone
  | Importance of { alpha : float; beta : float; dead_weight : float; gamma : float }
  | Mixed of { alpha : float; beta : float; dead_weight : float; v_allocation : float }

let strategy_name = function
  | Random -> "random"
  | Fanin_cone -> "fanin-cone"
  | Importance _ -> "importance"
  | Mixed _ -> "mixed"

let default_importance = Importance { alpha = 8.; beta = 1.; dead_weight = 0.1; gamma = 60. }

let default_mixed = Mixed { alpha = 8.; beta = 1.; dead_weight = 0.1; v_allocation = 0.5 }

type stratum = All | Vulnerable | Rest

let stratum_name = function All -> "all" | Vulnerable -> "vulnerable" | Rest -> "rest"

let stratum_of_name = function
  | "all" -> Some All
  | "vulnerable" -> Some Vulnerable
  | "rest" -> Some Rest
  | _ -> None

type sample = {
  t : int;
  center : N.node;
  radius : float;
  width : float;
  time_frac : float;
  weight : float;
  stratum : stratum;
}

type cone_level = {
  candidates : N.node array;  (* Omega_t intersected with the target block, no repeats *)
  cell_dist : Wdist.t;  (* g_{P|T} over candidates *)
}

type cone_machinery = {
  support : int array;  (* temporal support with non-zero g_T *)
  g_t : Wdist.t;  (* over support indices *)
  levels : cone_level array;  (* per support index *)
}

type mode =
  | P_random
  | P_cone of cone_machinery
  | P_mixed of {
      v_cells : N.node array;  (* block cells whose disc can flip a vulnerable bit *)
      m_v : float;  (* f-mass of the vulnerable stratum *)
      rest : cone_machinery;
      v_alloc : float;
    }

type prepared = {
  strategy : strategy;
  attack : Attack.t;
  mode : mode;
  block_pmf : N.node -> float;
  f_t : int -> float;
}

(* Build the per-depth candidate/weight tables of a cone-restricted sampler
   over [eligible] block cells, scoring the cells of slice [t] with
   [cell_score t]. The slices are visited in [temporal_support] order. *)
let build_cone_machinery precharac ~temporal_support ~eligible ~cell_score =
  let per_t =
    Array.map
      (fun t ->
        let slice = Precharac.level precharac t in
        let candidates =
          Array.append slice.Unroll.gates slice.Unroll.registers
          |> Array.to_list
          |> List.filter (Hashtbl.mem eligible)
          |> Array.of_list
        in
        if Array.length candidates = 0 then (t, None, 0.)
        else begin
          let weights = Array.map (cell_score t) candidates in
          let omega = Array.fold_left ( +. ) 0. weights in
          if omega <= 0. then (t, None, 0.)
          else (t, Some { candidates; cell_dist = Wdist.create weights }, omega)
        end)
      temporal_support
  in
  let nonempty = Array.of_list (List.filter (fun (_, l, _) -> l <> None) (Array.to_list per_t)) in
  if Array.length nonempty = 0 then None
  else begin
    let support = Array.map (fun (t, _, _) -> t) nonempty in
    let omegas = Array.map (fun (_, _, w) -> w) nonempty in
    let levels = Array.map (fun (_, l, _) -> Option.get l) nonempty in
    Some { support; g_t = Wdist.create omegas; levels }
  end

let prepare ?(static_vuln = fun _ -> false) strategy attack precharac ~placement =
  Attack.validate attack;
  let block = Attack.spatial_cells attack.Attack.spatial in
  let block_set = Hashtbl.create (Array.length block) in
  Array.iter (fun c -> Hashtbl.replace block_set c ()) block;
  let f_t t = Dist.pmf_int attack.Attack.temporal t in
  let block_pmf = Attack.pmf_spatial attack.Attack.spatial in
  let temporal_support = Array.of_list (Dist.support_int attack.Attack.temporal) in
  let net = (Precharac.circuit precharac).Fmc_cpu.Circuit.net in
  (* A strike at center [g] radiates a disc: its success potential is that
     of the best cell it can cover, so importance scores are smoothed over
     the neighborhood reachable with the attack's largest radius. Without
     this, a disc centered on an uninteresting cell covering a critical
     neighbor would carry a huge corrective weight when it succeeds,
     blowing up the estimator variance. *)
  let max_radius = match attack.Attack.radius with Dist.Uniform_float (_, hi) -> hi in
  let pindex = lazy (Placement.index placement) in
  let neighborhood = Hashtbl.create 1024 in
  let neighbors_of cell =
    match Hashtbl.find_opt neighborhood cell with
    | Some ns -> ns
    | None ->
        let ns =
          if Placement.is_placed placement cell then
            Placement.within_indexed (Lazy.force pindex) ~center:cell ~radius:max_radius
          else [| cell |]
        in
        Hashtbl.replace neighborhood cell ns;
        ns
  in
  let importance_score ~alpha ~beta ~dead_weight ~gamma t =
    let correlation = Precharac.correlation_kernel precharac ~shift:t in
    fun cell ->
      let corr = correlation cell in
      let l = Precharac.gate_lifetime precharac cell in
      let alive = l >= beta *. float_of_int t in
      let vuln = if gamma > 0. && static_vuln cell then gamma else 0. in
      let base = 1. +. vuln +. (alpha *. corr *. if alive then 1. else 0.) in
      if alive then base else base *. dead_weight
  in
  (* Overlapping discs share cells, so a node's score at [t] is read by
     every candidate whose neighborhood covers it. Compute it once per t:
     the table is refilled with NaN, "not scored yet", each time
     [build_cone_machinery] moves to the next t. *)
  let scores = lazy (Float.Array.make (N.num_nodes net) nan) in
  let scored_once score_at t =
    let scores = Lazy.force scores and score = score_at t in
    Float.Array.fill scores 0 (Float.Array.length scores) nan;
    fun n ->
      let s = Float.Array.get scores n in
      if Float.is_nan s then begin
        let s = score n in
        Float.Array.set scores n s;
        s
      end
      else s
  in
  (* Two smoothing modes over the radiated neighborhood: [max] guarantees a
     disc covering a critical cell is never under-sampled (used when the
     score carries the static-vulnerability prior); [mean] preserves more
     discrimination for the diffuse correlation signal. *)
  let smoothed_max score_at t =
    let score = scored_once score_at t in
    fun cell ->
      let ns = neighbors_of cell and acc = ref 0. in
      for i = 0 to Array.length ns - 1 do
        acc := Float.max !acc (score ns.(i))
      done;
      !acc
  in
  let smoothed_mean score_at t =
    let score = scored_once score_at t in
    fun cell ->
      let ns = neighbors_of cell and acc = ref 0. in
      for i = 0 to Array.length ns - 1 do
        acc := !acc +. score ns.(i)
      done;
      !acc /. float_of_int (Array.length ns)
  in
  let mode =
    match strategy with
    | Random -> P_random
    | Fanin_cone -> begin
        match
          build_cone_machinery precharac ~temporal_support ~eligible:block_set
            ~cell_score:(fun _ _ -> 1.)
        with
        | Some m -> P_cone m
        | None -> invalid_arg "Sampler.prepare: empty sample space (target block misses every cone slice)"
      end
    | Importance { alpha; beta; dead_weight; gamma } -> begin
        let score = importance_score ~alpha ~beta ~dead_weight ~gamma in
        match
          build_cone_machinery precharac ~temporal_support ~eligible:block_set
            ~cell_score:(smoothed_max score)
        with
        | Some m -> P_cone m
        | None -> invalid_arg "Sampler.prepare: empty sample space (target block misses every cone slice)"
      end
    | Mixed { alpha; beta; dead_weight; v_allocation } ->
        if v_allocation <= 0. || v_allocation >= 1. then
          invalid_arg "Sampler.prepare: v_allocation must be in (0, 1)";
        (* Vulnerable stratum: block cells whose largest disc reaches an
           analytically vulnerable register bit. *)
        let v_cells =
          Array.of_list
            (List.filter
               (fun c -> Array.exists static_vuln (neighbors_of c))
               (Array.to_list block))
        in
        let m_v = Array.fold_left (fun acc c -> acc +. block_pmf c) 0. v_cells in
        if m_v <= 0. || m_v >= 1. then
          invalid_arg "Sampler.prepare: Mixed needs a non-trivial vulnerable stratum (got none or all)";
        let rest_set = Hashtbl.copy block_set in
        Array.iter (fun c -> Hashtbl.remove rest_set c) v_cells;
        (* Rest-stratum bonus: transients seeded close (in logic levels) to a
           vulnerable register's D input are the ones that can latch a
           decisive stale/flipped value — the dominant rest-stratum success
           channel. Mark the last few levels of those cones. *)
        let near_vuln = Hashtbl.create 128 in
        let rec mark node depth =
          if depth >= 0 && not (Hashtbl.mem near_vuln node) then begin
            match N.kind net node with
            | Fmc_netlist.Kind.Gate _ ->
                Hashtbl.replace near_vuln node ();
                Array.iter (fun f -> mark f (depth - 1)) (N.fanins net node)
            | _ -> ()
          end
        in
        Array.iter (fun d -> if static_vuln d then mark (N.dff_d net d) 6) (N.dffs net);
        let score t =
          let base_score = importance_score ~alpha ~beta ~dead_weight ~gamma:0. t in
          fun cell -> base_score cell +. if Hashtbl.mem near_vuln cell then 12. else 0.
        in
        let rest =
          match
            build_cone_machinery precharac ~temporal_support ~eligible:rest_set
              ~cell_score:(smoothed_mean score)
          with
          | Some m -> m
          | None -> invalid_arg "Sampler.prepare: Mixed rest stratum is empty"
        in
        P_mixed { v_cells; m_v; rest; v_alloc = v_allocation }
  in
  { strategy; attack; mode; block_pmf; f_t }

(* Draw from a cone machinery; [stratum_mass] conditions f on the stratum. *)
let draw_cone p (m : cone_machinery) rng ~stratum ~stratum_mass ~radius ~width ~time_frac =
  let idx = Wdist.sample m.g_t rng in
  let t = m.support.(idx) in
  let level = m.levels.(idx) in
  let ci = Wdist.sample level.cell_dist rng in
  let center = level.candidates.(ci) in
  let g_t = Wdist.pmf m.g_t idx in
  let g_cell = Wdist.pmf level.cell_dist ci in
  let f = p.f_t t *. p.block_pmf center /. stratum_mass in
  { t; center; radius; width; time_frac; weight = f /. (g_t *. g_cell); stratum }

let draw_raw p rng =
  let radius = Dist.sample_float p.attack.Attack.radius rng in
  let width = Dist.sample_float p.attack.Attack.width rng in
  let time_frac = Rng.float rng 1.0 in
  match p.mode with
  | P_random ->
      let t = Dist.sample_int p.attack.Attack.temporal rng in
      let cells = Attack.spatial_cells p.attack.Attack.spatial in
      let center = Rng.choose rng cells in
      { t; center; radius; width; time_frac; weight = 1.; stratum = All }
  | P_cone m -> draw_cone p m rng ~stratum:All ~stratum_mass:1. ~radius ~width ~time_frac
  | P_mixed { v_cells; m_v; rest; v_alloc } ->
      if Rng.float rng 1.0 < v_alloc then begin
        (* Within the vulnerable stratum: t from the nominal temporal
           distribution, center uniform over the stratum cells; the weight
           is f(t, c | V) / g(t, c). *)
        let t = Dist.sample_int p.attack.Attack.temporal rng in
        let center = Rng.choose rng v_cells in
        let f_cond = p.block_pmf center /. m_v in
        let g_cell = 1. /. float_of_int (Array.length v_cells) in
        { t; center; radius; width; time_frac; weight = f_cond /. g_cell; stratum = Vulnerable }
      end
      else draw_cone p rest rng ~stratum:Rest ~stratum_mass:(1. -. m_v) ~radius ~width ~time_frac

let draw ?(obs = Fmc_obs.Obs.disabled) p rng =
  (* The RNG stream is consumed entirely inside [draw_raw], so tracing the
     draw (or not) cannot perturb the sample sequence. *)
  match obs.Fmc_obs.Obs.tracer with
  | None -> draw_raw p rng
  | Some _ -> Fmc_obs.Obs.span obs ~cat:"sampler" "draw" (fun () -> draw_raw p rng)

let name p = strategy_name p.strategy

let strata p =
  match p.mode with
  | P_random | P_cone _ -> [ (All, 1.) ]
  | P_mixed { m_v; _ } -> [ (Vulnerable, m_v); (Rest, 1. -. m_v) ]

let temporal_pmf p =
  match p.mode with
  | P_random -> List.map (fun t -> (t, p.f_t t)) (Dist.support_int p.attack.Attack.temporal)
  | P_cone m -> Array.to_list (Array.mapi (fun i t -> (t, Wdist.pmf m.g_t i)) m.support)
  | P_mixed { rest; v_alloc; _ } ->
      (* Marginal of the realized draw distribution over both strata. *)
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun t -> Hashtbl.replace tbl t (v_alloc *. p.f_t t))
        (Dist.support_int p.attack.Attack.temporal);
      Array.iteri
        (fun i t ->
          let cur = try Hashtbl.find tbl t with Not_found -> 0. in
          Hashtbl.replace tbl t (cur +. ((1. -. v_alloc) *. Wdist.pmf rest.g_t i)))
        rest.support;
      Hashtbl.fold (fun t pr acc -> (t, pr) :: acc) tbl [] |> List.sort compare

let sample_space_size p =
  match p.mode with
  | P_random ->
      List.length (Dist.support_int p.attack.Attack.temporal)
      * Array.length (Attack.spatial_cells p.attack.Attack.spatial)
  | P_cone m -> Array.fold_left (fun acc l -> acc + Array.length l.candidates) 0 m.levels
  | P_mixed { v_cells; rest; _ } ->
      (List.length (Dist.support_int p.attack.Attack.temporal) * Array.length v_cells)
      + Array.fold_left (fun acc l -> acc + Array.length l.candidates) 0 rest.levels
