(** Gate-level voltage-transient (SET) injection and propagation
    (paper §3.2 and §5.3).

    A radiation strike deposits a voltage pulse at the output of every
    impacted gate. Pulses travel through the combinational netlist in
    topological order and are subject to the three classic masking effects:

    - {e logical masking} — a pulse dies at a gate whose other inputs hold a
      controlling value (for a mux: an unselected data input, or a select
      pulse when both data inputs agree);
    - {e electrical masking} — pulses narrower than
      [attenuation_threshold] lose [attenuation] of width per traversed
      gate and die below [min_width];
    - {e latching-window masking} — a pulse reaching a flip-flop's D input
      flips the stored bit only if it overlaps the setup/hold window around
      the next clock edge.

    A strike that lands on a flip-flop cell itself is a direct SEU and is
    reported in [direct] rather than simulated as a pulse.

    [inject] must be called after [Cycle_sim.eval_comb] so that settled
    fault-free values are available for the sensitization tests; it does not
    modify the simulator. *)

type config = {
  clock_period : float;  (** ps; the latch window sits at its end *)
  setup_time : float;
  hold_time : float;
  delay_inv : float;  (** Not/Buf propagation delay *)
  delay_simple : float;  (** And/Or/Nand/Nor *)
  delay_complex : float;  (** Xor/Xnor/Mux *)
  attenuation : float;  (** width lost per gate when below threshold *)
  attenuation_threshold : float;
  min_width : float;
  max_pulses_per_net : int;
}

val default_config : Fmc_netlist.Netlist.t -> config
(** Sizes [clock_period] so the longest combinational path meets timing with
    ~20% slack — i.e., the circuit "meets timing", as a signed-off design
    would. *)

val gate_delay : config -> Fmc_netlist.Kind.gate -> float

type strike = {
  node : Fmc_netlist.Netlist.node;
  time : float;  (** pulse start, within [\[0, clock_period)] *)
  width : float;
}

type reach
(** A static bound on when a strike's pulses can be at a latch sink: for
    every node, the shortest and longest sum of {!gate_delay}s from its
    output to a sink {!inject} checks (a flip-flop's D input driver or a
    watched node). Two float arrays, filled in one reverse-topological
    pass. *)

val reach : ?watch:Fmc_netlist.Netlist.node array -> Fmc_netlist.Netlist.t -> config -> reach
(** [watch] must be the nodes later passed to {!inject}. *)

val misses_window : reach -> Fmc_netlist.Netlist.node -> time:float -> width:float -> bool
(** [misses_window r node ~time ~width]: a strike on [node] at [time]
    with [width] can neither latch nor hit a watched node. For a gate
    that holds when its pulse, shifted by every path to a sink, lies
    wholly before or wholly after the latch window
    [\[clock_period - setup_time, clock_period + hold_time\]] (each side
    with a 1e-3 ps margin), or when no sink is reachable. It is false
    for a flip-flop (a direct upset) and true for an input or constant
    (which {!inject} ignores).

    Sound for any set of strikes, whatever the settled values: a pulse
    is born at the struck gate and only gains gate delays, attenuation
    and logical masking only narrow or drop pulses, and merging takes
    the union of overlapping pulses. So if [misses_window] holds for
    every strike, {!inject}'s [latched], [direct] and [watched_hits]
    are empty. *)

type result = {
  latched : Fmc_netlist.Netlist.node array;
      (** flip-flops whose D input latched a pulse, ascending id *)
  direct : Fmc_netlist.Netlist.node array;
      (** flip-flops struck directly, ascending id *)
  seeded : int;  (** pulses deposited on combinational gates *)
  reached_dff : int;  (** pulses that arrived at some D input (latched or not) *)
  watched_hits : Fmc_netlist.Netlist.node array;
      (** watched nodes with a pulse overlapping the latch window *)
}

type scratch
(** Reusable propagation state for one netlist: one per simulator
    instance, never shared across domains. *)

val scratch : Fmc_netlist.Netlist.t -> scratch

val inject :
  ?scratch:scratch ->
  ?watch:Fmc_netlist.Netlist.node array ->
  Cycle_sim.t ->
  config ->
  strikes:strike list ->
  result
(** Raises [Invalid_argument] on a strike with non-positive width or
    negative time. Strikes on inputs/constants are ignored (the paper's
    model only radiates cells).

    Propagation is event-driven: only gates with a pulse on some fan-in
    are visited, in logic-level order ({!Fmc_netlist.Worklist}), so the
    cost follows the struck fan-out rather than the netlist size. The
    result equals a full topological sweep's, because a gate's pulses
    depend only on its own seeded pulses and its fan-ins' final pulses,
    and a gate no pulse reaches keeps its seeded ones. Without [scratch]
    each call allocates its own; a caller that injects repeatedly passes
    one (the state of a call an exception interrupted is discarded by
    the next call).

    [watch] nodes model additional synchronous sample points outside the
    netlist's flip-flops — e.g. the write port of an external memory, which
    commits on the same clock edge: a watched node is reported in
    [watched_hits] when a pulse on it overlaps the setup/hold window, i.e.
    when the external element would capture the corrupted value. *)
