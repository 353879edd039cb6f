module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind

type config = {
  clock_period : float;
  setup_time : float;
  hold_time : float;
  delay_inv : float;
  delay_simple : float;
  delay_complex : float;
  attenuation : float;
  attenuation_threshold : float;
  min_width : float;
  max_pulses_per_net : int;
}

let gate_delay config = function
  | K.Not | K.Buf -> config.delay_inv
  | K.And | K.Or | K.Nand | K.Nor -> config.delay_simple
  | K.Xor | K.Xnor | K.Mux -> config.delay_complex

let default_config net =
  let base =
    {
      clock_period = 0.;
      setup_time = 30.;
      hold_time = 20.;
      delay_inv = 40.;
      delay_simple = 60.;
      delay_complex = 90.;
      attenuation = 20.;
      attenuation_threshold = 120.;
      min_width = 30.;
      max_pulses_per_net = 8;
    }
  in
  (* True critical path: longest accumulated gate delay over the topological
     order (a signed-off design meets timing with ~20% slack on top). *)
  let arrival = Array.make (N.num_nodes net) 0. in
  let critical = ref 0. in
  Array.iter
    (fun g ->
      match N.kind net g with
      | K.Gate gate ->
          let latest = Array.fold_left (fun acc f -> Float.max acc arrival.(f)) 0. (N.fanins net g) in
          arrival.(g) <- latest +. gate_delay base gate;
          if arrival.(g) > !critical then critical := arrival.(g)
      | K.Input | K.Const _ | K.Dff _ -> ())
    (N.gates net);
  { base with clock_period = (!critical *. 1.2) +. base.setup_time +. base.hold_time }

type strike = { node : N.node; time : float; width : float }

(* Per node, the shortest and longest sum of gate delays from its output
   to a sink [inject] checks; [lo]/[hi] are the latch window widened by
   [reach_margin]. *)
type reach = { dmin : float array; dmax : float array; lo : float; hi : float }

(* A pulse's start gains one gate delay at a time, while the bound sums
   the delays first: the margin absorbs the difference in rounding. *)
let reach_margin = 1e-3

let reach ?(watch = [||]) net config =
  let n = N.num_nodes net in
  let dmin = Array.make n infinity and dmax = Array.make n neg_infinity in
  let sink = Array.make n false in
  Array.iter (fun f -> sink.(N.dff_d net f) <- true) (N.dffs net);
  Array.iter (fun w -> sink.(w) <- true) watch;
  let gates = N.gates net in
  for i = Array.length gates - 1 downto 0 do
    let g = gates.(i) in
    if sink.(g) then begin
      dmin.(g) <- 0.;
      dmax.(g) <- 0.
    end;
    Array.iter
      (fun h ->
        match N.kind net h with
        | K.Gate gate ->
            let d = gate_delay config gate in
            dmin.(g) <- Float.min dmin.(g) (d +. dmin.(h));
            dmax.(g) <- Float.max dmax.(g) (d +. dmax.(h))
        | K.Input | K.Const _ | K.Dff _ -> ())
      (N.fanouts net g)
  done;
  (* A struck flip-flop is a direct upset, whatever the time. *)
  Array.iter
    (fun f ->
      dmin.(f) <- neg_infinity;
      dmax.(f) <- infinity)
    (N.dffs net);
  {
    dmin;
    dmax;
    lo = config.clock_period -. config.setup_time -. reach_margin;
    hi = config.clock_period +. config.hold_time +. reach_margin;
  }

let misses_window r node ~time ~width =
  time +. r.dmin.(node) >= r.hi || time +. r.dmax.(node) +. width <= r.lo

type pulse = { start : float; width : float }

type result = {
  latched : N.node array;
  direct : N.node array;
  seeded : int;
  reached_dff : int;
  watched_hits : N.node array;
}

(* Merge a pulse into a per-net list, coalescing overlaps and bounding the
   list length (drop the narrowest pulse when full). *)
let add_pulse config pulses p =
  let overlaps a b = a.start <= b.start +. b.width && b.start <= a.start +. a.width in
  let merged, rest =
    List.partition (fun existing -> overlaps existing p) pulses
  in
  let p =
    List.fold_left
      (fun acc e ->
        let start = Float.min acc.start e.start in
        let stop = Float.max (acc.start +. acc.width) (e.start +. e.width) in
        { start; width = stop -. start })
      p merged
  in
  let out = p :: rest in
  if List.length out <= config.max_pulses_per_net then out
  else begin
    let sorted = List.sort (fun a b -> compare b.width a.width) out in
    List.filteri (fun i _ -> i < config.max_pulses_per_net) sorted
  end

(* Does a pulse on fan-in [idx] of gate [g] propagate, given settled values? *)
let sensitized sim net g idx =
  let fanins = N.fanins net g in
  match N.kind net g with
  | K.Gate gate -> begin
      match gate with
      | K.Not | K.Buf -> true
      | K.Xor | K.Xnor -> true
      | K.And | K.Nand | K.Or | K.Nor -> begin
          match K.controlling_value gate with
          | Some c ->
              let blocked = ref false in
              Array.iteri
                (fun j f -> if j <> idx && Cycle_sim.value sim f = c then blocked := true)
                fanins;
              not !blocked
          | None -> true
        end
      | K.Mux ->
          let sel = Cycle_sim.value sim fanins.(0) in
          if idx = 0 then Cycle_sim.value sim fanins.(1) <> Cycle_sim.value sim fanins.(2)
          else if idx = 1 then not sel
          else sel
    end
  | _ -> false

let attenuate config p =
  if p.width >= config.attenuation_threshold then Some p
  else begin
    let width = p.width -. config.attenuation in
    if width < config.min_width then None else Some { p with width }
  end

(* Reusable propagation state: per-node pulse lists, the nodes that
   carry any (so a call clears only those), and the level-ordered
   worklist. *)
type scratch = {
  wl : Fmc_netlist.Worklist.t;
  pulses : pulse list array;
  touched : N.node array;  (* the first [ntouched] entries carry pulses *)
  mutable ntouched : int;
}

let scratch net =
  let n = N.num_nodes net in
  { wl = Fmc_netlist.Worklist.create net; pulses = Array.make n []; touched = Array.make n 0; ntouched = 0 }

(* Within one call a node's pulse list never shrinks back to empty, so a
   node is recorded in [touched] at most once. *)
let set_pulses s node ps =
  (match (s.pulses.(node), ps) with
  | [], _ :: _ ->
      s.touched.(s.ntouched) <- node;
      s.ntouched <- s.ntouched + 1
  | _ -> ());
  s.pulses.(node) <- ps

let inject ?scratch:s ?(watch = [||]) sim config ~strikes =
  let module W = Fmc_netlist.Worklist in
  let net = Cycle_sim.netlist sim in
  let s = match s with Some s -> s | None -> scratch net in
  (* Forget the previous call's pulses, also those of a call an exception
     cut short. *)
  for i = 0 to s.ntouched - 1 do
    s.pulses.(s.touched.(i)) <- []
  done;
  s.ntouched <- 0;
  W.reset s.wl;
  let direct = ref [] in
  let seeded = ref 0 in
  List.iter
    (fun { node; time; width } ->
      if width <= 0. then invalid_arg "Transient.inject: non-positive strike width";
      if time < 0. then invalid_arg "Transient.inject: negative strike time";
      match N.kind net node with
      | K.Dff _ -> direct := node :: !direct
      | K.Gate _ ->
          set_pulses s node (add_pulse config s.pulses.(node) { start = time; width });
          incr seeded
      | K.Input | K.Const _ -> ())
    strikes;
  for i = 0 to s.ntouched - 1 do
    W.push_fanouts s.wl s.touched.(i)
  done;
  (* Event-driven sweep in level order: a gate is visited only when a
     fan-in carries a pulse, after all its fan-ins are final, and adds the
     arriving pulses to its own (seeded) ones exactly as a full
     topological sweep would. Seeded pulses on a gate are treated as born
     at the gate output, so they are not re-delayed. *)
  let rec drain () =
    let g = W.pop s.wl in
    if g >= 0 then begin
      (match N.kind net g with
      | K.Gate gate ->
          Array.iteri
            (fun idx f ->
              match s.pulses.(f) with
              | [] -> ()
              | incoming ->
                  if sensitized sim net g idx then
                    List.iter
                      (fun p ->
                        match attenuate config p with
                        | None -> ()
                        | Some p ->
                            let p = { p with start = p.start +. gate_delay config gate } in
                            set_pulses s g (add_pulse config s.pulses.(g) p))
                      incoming)
            (N.fanins net g);
          (match s.pulses.(g) with [] -> () | _ -> W.push_fanouts s.wl g)
      | _ -> ());
      drain ()
    end
  in
  drain ();
  (* Latching-window check at every flip-flop's D input; only a node
     carrying pulses can feed one a pulse. *)
  let win_lo = config.clock_period -. config.setup_time in
  let win_hi = config.clock_period +. config.hold_time in
  let hits p = p.start < win_hi && p.start +. p.width > win_lo in
  let latched = ref [] in
  let reached = ref 0 in
  for i = 0 to s.ntouched - 1 do
    let node = s.touched.(i) in
    match s.pulses.(node) with
    | [] -> ()
    | ps ->
        Array.iter
          (fun d ->
            match N.kind net d with
            | K.Dff _ ->
                reached := !reached + List.length ps;
                if List.exists hits ps then latched := d :: !latched
            | _ -> ())
          (N.fanouts net node)
  done;
  let watched_hits =
    Array.to_list watch |> List.filter (fun node -> List.exists hits s.pulses.(node))
  in
  let sort_nodes l = Array.of_list (List.sort_uniq compare l) in
  {
    latched = sort_nodes !latched;
    direct = sort_nodes !direct;
    seeded = !seeded;
    reached_dff = !reached;
    watched_hits = sort_nodes watched_hits;
  }
