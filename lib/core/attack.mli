(** The attack model (paper §3.1–3.2).

    An attack sample is [(t, p)] with [p = \[g, r\]]: timing distance
    [t = Tt - Te], radiation center cell [g] and radius [r]. The nominal
    (attacker-intended) distribution [f_{T,P}] is the product of a temporal
    distribution, a spatial distribution over a target block of cells, and
    a radius distribution; the strike's pulse width and intra-cycle start
    time are additional technique-variation parameters, sampled identically
    under every strategy (they cancel in importance weights). *)

type spatial =
  | Uniform_cells of Fmc_netlist.Netlist.node array
      (** aim uniformly anywhere in a block of placed cells *)
  | Delta_cell of Fmc_netlist.Netlist.node  (** perfectly aimed *)

type t = {
  temporal : Dist.int_dist;  (** timing distance [t >= 0] *)
  spatial : spatial;
  radius : Dist.float_dist;
  width : Dist.float_dist;  (** transient pulse width, ps *)
}

val spatial_cells : spatial -> Fmc_netlist.Netlist.node array

val pmf_spatial : spatial -> Fmc_netlist.Netlist.node -> float
(** [f_P]-side probability of aiming at a given cell. Apply it to the
    [spatial] alone to get an O(1) lookup: the block's member set is built
    once, at that point. *)

val block_around :
  Fmc_layout.Placement.t ->
  roots:Fmc_netlist.Netlist.node list ->
  fraction:float ->
  Fmc_netlist.Netlist.node array
(** The cells nearest (in placement distance) to the centroid of [roots],
    covering [fraction] of all placed cells — the paper's "sub-block of
    around 1/8 of the MPU". Raises [Invalid_argument] if [fraction] is not
    in (0, 1\] or [roots] has no placed member. *)

val default : Fmc_layout.Placement.t -> block:Fmc_netlist.Netlist.node array -> t
(** Paper-like defaults: [t ~ U\[0, 49\]], uniform aim over [block],
    radius [U\[0.8, 2.2\]] placement units, width [U\[100, 350\]] ps. *)

val validate : t -> unit
(** Raises [Invalid_argument] on an empty temporal support or target block,
    or on a radius or width range that is ill-formed or reaches below 0. *)
