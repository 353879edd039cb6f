(** Machine-readable export of SSF reports (CSV for plotting the paper's
    figures with external tools, JSON for pipelines). No external
    dependencies — the JSON is hand-rendered (flat structure, numbers and
    strings only). *)

val trace_csv : Ssf.report -> string
(** ["samples,ssf\n"] rows — the convergence series of Fig. 9(a). *)

val contributions_csv : Ssf.report -> string
(** ["register,bit,weight\n"] rows, descending weight. *)

val report_json : Ssf.report -> string
(** The full report as a JSON object (trace, contributions, outcome
    breakdown including the campaign runner's [quarantined] bucket, and the
    conservative [ssf_upper_bound]). *)

val fig11_csv : Experiments.fig11 -> string
(** Both sweeps as one CSV with a [sweep] discriminator column. *)
