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

(* How a stratum draws (t, centre). *)
type plan =
  | Nominal of N.node array  (* t from the attack's f_T, the centre uniform over the cells *)
  | Cone of cone_machinery  (* t from g_T, the centre from g_{P|T} *)

(* A row of the stratum table: the stratum's exact f-mass and its share of
   the draws. *)
type row = { tag : stratum; mass : float; alloc : float; plan : plan }

type prepared = {
  strategy : strategy;
  attack : Attack.t;
  table : row list;  (* in pick order; the allocations sum to 1 *)
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
  if Array.length nonempty = 0 then
    invalid_arg "Sampler.prepare: empty sample space (no eligible block cell in any cone slice)";
  let support = Array.map (fun (t, _, _) -> t) nonempty in
  let omegas = Array.map (fun (_, _, w) -> w) nonempty in
  let levels = Array.map (fun (_, l, _) -> Option.get l) nonempty in
  { support; g_t = Wdist.create omegas; levels }

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
  let cone eligible cell_score =
    Cone (build_cone_machinery precharac ~temporal_support ~eligible ~cell_score)
  in
  let whole plan = [ { tag = All; mass = 1.; alloc = 1.; plan } ] in
  let table =
    match strategy with
    | Random -> whole (Nominal block)
    | Fanin_cone -> whole (cone block_set (fun _ _ -> 1.))
    | Importance { alpha; beta; dead_weight; gamma } ->
        let score = importance_score ~alpha ~beta ~dead_weight ~gamma in
        whole (cone block_set (smoothed_max score))
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
        let rest = cone rest_set (smoothed_mean score) in
        [
          { tag = Vulnerable; mass = m_v; alloc = v_allocation; plan = Nominal v_cells };
          { tag = Rest; mass = 1. -. m_v; alloc = 1. -. v_allocation; plan = rest };
        ]
  in
  { strategy; attack; table; block_pmf; f_t }

(* The one importance weight, f(t, c | s) / g(t, c | s), from the
   probabilities the draw read at its own indices. A [Nominal] stratum
   draws t from f_T, so it leaves f_T out of f and g alike ([g_t = 1.]):
   the factor cancels exactly, not merely to the last bit. *)
let weight p s ~t ~center ~g_t ~g_cell =
  let f_t = match s.plan with Nominal _ -> 1. | Cone _ -> p.f_t t in
  f_t *. p.block_pmf center /. s.mass /. (g_t *. g_cell)

(* The row whose cumulative allocation first exceeds [u]. *)
let rec pick u = function
  | [ s ] -> s
  | s :: rest -> if u < s.alloc then s else pick (u -. s.alloc) rest
  | [] -> invalid_arg "Sampler: empty stratum table"

let draw_raw p rng =
  let radius = Dist.sample_float p.attack.Attack.radius rng in
  let width = Dist.sample_float p.attack.Attack.width rng in
  let time_frac = Rng.float rng 1.0 in
  (* A lone stratum is picked without reading the stream. *)
  let s = match p.table with [ s ] -> s | table -> pick (Rng.float rng 1.0) table in
  let t, center, g_t, g_cell =
    match s.plan with
    | Nominal cells ->
        let t = Dist.sample_int p.attack.Attack.temporal rng in
        (t, Rng.choose rng cells, 1., 1. /. float_of_int (Array.length cells))
    | Cone m ->
        let i = Wdist.sample m.g_t rng in
        let level = m.levels.(i) in
        let ci = Wdist.sample level.cell_dist rng in
        let g_t = Wdist.pmf m.g_t i and g_cell = Wdist.pmf level.cell_dist ci in
        (m.support.(i), level.candidates.(ci), g_t, g_cell)
  in
  let weight = weight p s ~t ~center ~g_t ~g_cell in
  { t; center; radius; width; time_frac; weight; stratum = s.tag }

let draw ?(obs = Fmc_obs.Obs.disabled) p rng =
  (* The RNG stream is consumed entirely inside [draw_raw], so tracing the
     draw (or not) cannot perturb the sample sequence. *)
  match obs.Fmc_obs.Obs.tracer with
  | None -> draw_raw p rng
  | Some _ -> Fmc_obs.Obs.span obs ~cat:"sampler" "draw" (fun () -> draw_raw p rng)

let name p = strategy_name p.strategy

let strata p = List.map (fun s -> (s.tag, s.mass)) p.table

let temporal_pmf p =
  (* Each stratum's g_T(t | s), weighted by its share of the draws. *)
  let tbl = Hashtbl.create 64 in
  let add s t g =
    Hashtbl.replace tbl t (Option.value (Hashtbl.find_opt tbl t) ~default:0. +. (s.alloc *. g))
  in
  let f_support = Dist.support_int p.attack.Attack.temporal in
  List.iter
    (fun s ->
      match s.plan with
      | Nominal _ -> List.iter (fun t -> add s t (p.f_t t)) f_support
      | Cone m -> Array.iteri (fun i t -> add s t (Wdist.pmf m.g_t i)) m.support)
    p.table;
  List.sort compare (Hashtbl.fold (fun t g acc -> (t, g) :: acc) tbl [])

let density p stratum ~t ~center =
  match List.find_opt (fun s -> s.tag = stratum) p.table with
  | None -> invalid_arg "Sampler.density: not a stratum of this strategy"
  | Some { plan = Nominal cells; _ } ->
      if Array.mem center cells then p.f_t t *. (1. /. float_of_int (Array.length cells)) else 0.
  | Some { plan = Cone m; _ } -> (
      match Array.find_index (Int.equal t) m.support with
      | None -> 0.
      | Some i -> (
          let level = m.levels.(i) in
          match Array.find_index (Int.equal center) level.candidates with
          | None -> 0.
          | Some ci -> Wdist.pmf m.g_t i *. Wdist.pmf level.cell_dist ci))
