(** A first-class fault model: the physical attack scenario one Monte
    Carlo sample is evaluated under.

    The estimator ({!Fmc.Ssf}) stays model-agnostic — it draws the same
    spatial/temporal sample stream regardless — and a model supplies the
    per-sample injector ({!Fmc.Ssf.inject}) that turns a drawn sample
    into a run result. The native model, [disc-transient] (the paper's
    radiation disc inducing voltage transients), is no exception: it
    carries {!Fmc.Ssf.disc_transient}, the engine's own
    {!Fmc.Engine.run_sample} path, so a campaign under the default model
    is byte-identical to the pre-subsystem code.

    Whether a model reads the campaign's random stream is its
    injector's [inj_reads_rng]; no built-in model does, so each sample's
    outcome depends on the sample alone, which is what makes per-model
    campaigns deterministic, lets the sample loop evaluate a block on
    several domains, and keeps shard merging bit-exact. Whether
    {!Fmc_sva} masking certificates are sound for a model is its
    injector's [inj_prunable] — true only for the disc transient they
    were proved against. *)

type t = {
  name : string;  (** registry name, e.g. ["seu-burst"] *)
  params : (string * string) list;
      (** non-default parameters, sorted by key — what {!canonical}
          appends after the name *)
  doc : string;  (** one-line description for [--list-fault-models] *)
  inject : Fmc.Ssf.inject option;
      (** the per-sample injector, [Some] for every registered model.
          It stays an option only because the vendored benchmark tracer
          ([perfbench/tracer]) matches on it; use {!injector}. *)
}

val injector : t -> Fmc.Ssf.inject
(** The model's injector ({!Fmc.Ssf.disc_transient} for [disc-transient]). *)

val canonical : t -> string
(** The canonical model string: [name] alone when every parameter is at
    its default, else [name:k=v,...] with parameters sorted by key.
    This is the form recorded in campaign checkpoints, embedded in
    distributed-campaign fingerprints and accepted back by
    {!Registry.parse} — explicitly spelling a default parameter
    canonicalizes away, so equal configurations always fingerprint
    equally. *)

val metric_name : t -> string
(** The model's per-model metric component: the canonical string with
    every character outside [[A-Za-z0-9_]] mapped to ['_'] (the metrics
    registry accepts no other characters), e.g.
    ["seu_burst_bits_4"]. *)
