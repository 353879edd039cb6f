(** The fault-model registry: name → configured {!Model.t}.

    Model specs are ["name"] or ["name:k=v,..."] — the same canonical
    form {!Model.canonical} produces, so parsing a canonical string
    round-trips to an equal model. Parsing is total over the error type:
    an unrecognized name and a malformed/out-of-range parameter are
    distinguished so the CLI can exit with a precise message. *)

type error =
  | Unknown_model of string  (** the name before [':'] is not registered *)
  | Bad_params of { model : string; msg : string }
      (** the model exists but rejected its parameters *)

val error_message : error -> string
(** Human-readable one-liner, suitable for stderr. *)

val default : string
(** ["disc-transient"] — the model every pre-subsystem campaign ran. *)

val names : string list
(** Registered model names, registration order. *)

val parse : string -> (Model.t, error) result
(** Parse and configure ["name[:k=v,...]"]. Accepts every string
    {!Model.canonical} can produce and returns an equal model for it. *)

val parse_exn : string -> Model.t
(** {!parse}, raising [Invalid_argument] with {!error_message} on
    error — for trusted inputs (validated specs replayed from the
    scheduler's queue log or a checkpoint). *)

val valid : string -> bool
(** [valid spec] is [true] iff {!parse} succeeds — scheduler-side spec
    validation. *)

val list : unit -> (string * string) list
(** [(name, doc)] per registered model at default parameters, for
    [--list-fault-models]. *)
