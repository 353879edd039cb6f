(** Sampling strategies over the attack-parameter space (paper §3.3, §4).

    - [Random]: draw directly from the attacker model [f_{T,P}]
      (plain Monte Carlo, the baseline of Fig. 9);
    - [Fanin_cone]: restrict the center-cell choice to the responding
      signals' cone slice [Omega_t] (pre-characterization step 1 only);
    - [Importance]: the paper's full two-step scheme,
      [g_T(t) = omega_t / sum omega] with
      [omega_t = sum_{g in Omega_t} (1 + alpha Corr_t(g, rs)
      delta(L(g) >= beta t))], then [g_{P|T}] proportional to the same
      per-cell weights.

    Radius, pulse width and intra-cycle strike time are technique
    variation, sampled identically under every strategy, so they cancel in
    the importance weights.

    A prepared strategy is a table of strata, each with its tag, exact
    [f]-mass [m_s], share of the draws and plan: [t] from [f_T] and the
    center uniform over a cell array ([Random]; [Mixed]'s vulnerable
    stratum), or [t] and center from the cone tables [g_T] and [g_{P|T}]
    (the other strategies; [Mixed]'s rest). Each draw's weight is
    [f(t, c | s) / g(t, c | s)], with [f(t, c | s) = f_T(t) f_P(c) / m_s] and
    [g] as {!density} gives it. A stratum that draws [t] from [f_T] leaves
    [f_T] out of both, so that factor cancels exactly. The estimator is
    unbiased for the part of [f] that the support covers, and no more: a
    disc centered outside [Omega_t] can still cover cells inside it. On the
    default write attack 167 of the 4,268 (t, center) pairs that can
    succeed lie outside [Fanin_cone]'s and [Importance]'s support, which
    puts their expectations 2.76% below the exact SSF (ROADMAP item 1c). *)

type strategy =
  | Random
  | Fanin_cone
  | Importance of { alpha : float; beta : float; dead_weight : float; gamma : float }
  | Mixed of { alpha : float; beta : float; dead_weight : float; v_allocation : float }
      (** the paper's full "Our" scheme: hybrid of importance Monte Carlo
          and the analytical pre-characterization, realized as a stratified
          estimator. Block cells whose disc can flip an analytically
          vulnerable register bit form the {e vulnerable} stratum (sampled
          with probability [v_allocation], uniformly within); the rest is
          sampled with the correlation/lifetime importance scheme. The
          estimator combines strata by their exact [f]-masses, so the
          near-deterministic analytical component contributes almost no
          variance. *)
      (** [alpha] scales the correlation bonus, [beta] the lifetime
          threshold [delta(L(g) >= beta t)] — both per the paper's formula.
          [dead_weight] (in (0, 1]) additionally scales down cells whose
          measured error lifetime cannot reach the target cycle
          ([L(g) < beta t]); the paper leaves those at baseline weight,
          but Observation 3 says their attacks fail, so sampling them
          rarely (with the exact [f/g] correction keeping the estimator
          unbiased) is a strict refinement. Set [dead_weight = 1.] for the
          paper's literal formula. [gamma] is the bonus for register bits
          the analytical pre-characterization marks as single-flip policy
          defeats ([Engine.static_vulnerable]); 0 disables the prior. *)

val strategy_name : strategy -> string

val default_importance : strategy
(** [Importance { alpha = 8.; beta = 1.; dead_weight = 0.1; gamma = 60. }]. *)

val default_mixed : strategy
(** [Mixed { alpha = 8.; beta = 1.; dead_weight = 0.1; v_allocation = 0.5 }]. *)

type stratum = All | Vulnerable | Rest

val stratum_name : stratum -> string
(** Stable lowercase name, shared by the checkpoint/wire codecs and the
    failure journal. *)

val stratum_of_name : string -> stratum option
(** Inverse of {!stratum_name}; [None] for an unknown name. *)

type sample = {
  t : int;  (** timing distance *)
  center : Fmc_netlist.Netlist.node;
  radius : float;
  width : float;  (** transient pulse width, ps *)
  time_frac : float;  (** strike start as a fraction of the clock period *)
  weight : float;  (** [f(t, c | s) / g(t, c | s)] within its stratum *)
  stratum : stratum;  (** [All] except under [Mixed] *)
}

type prepared

val prepare :
  ?static_vuln:(Fmc_netlist.Netlist.node -> bool) ->
  strategy ->
  Attack.t ->
  Precharac.t ->
  placement:Fmc_layout.Placement.t ->
  prepared
(** Builds the stratum table and its cone tables. Importance
    scores are smoothed over each center's radiated neighborhood (largest
    attack radius) so that a disc covering a critical cell is never
    under-sampled. Raises [Invalid_argument] if a cone stratum has an empty
    sample space (none of its block cells lies in any [Omega_t]). *)

val draw : ?obs:Fmc_obs.Obs.t -> prepared -> Fmc_prelude.Rng.t -> sample
(** [obs] (default {!Fmc_obs.Obs.disabled}) wraps the draw in a ["draw"]
    span when a tracer is attached; it never touches the RNG stream, so an
    instrumented run draws the identical sample sequence. *)

val name : prepared -> string
(** {!strategy_name} of the prepared strategy. *)

val strata : prepared -> (stratum * float) list
(** The strata and their exact [f]-masses: [\[(All, 1.)\]] except under
    [Mixed]. The estimator combines per-stratum means with these masses. *)

val temporal_pmf : prepared -> (int * float) list
(** The realized sampling distribution [g_T] over timing distances
    (Fig. 8a). For [Random] this is just [f_T]. *)

val density : prepared -> stratum -> t:int -> center:Fmc_netlist.Netlist.node -> float
(** [g(t, center | s)]: the probability that a draw within stratum [s] is
    that pair, 0 off its support. Raises [Invalid_argument] if [s] is not
    one of {!strata}. *)
