(* Three-state circuit breaker over an injected clock. The campaign
   service keeps one per worker name: misbehaving transports (corrupt frames,
   protocol garbage, heartbeat gaps) trip it, and while it is open that
   worker's connections are refused with Retry_later so the campaign
   continues on healthy workers instead of burning the listener loop on
   a flapping peer. *)

type config = { failure_threshold : int; cooldown_s : float }

let default_config = { failure_threshold = 5; cooldown_s = 10. }

type state = Closed | Open | Half_open

type phase =
  | P_closed of { failures : int }
  | P_open of { until : float }
  | P_half_open of { probing : bool }

type t = { config : config; mutable phase : phase; mutable trips : int }

let create config =
  if config.failure_threshold <= 0 then invalid_arg "Breaker.create: non-positive threshold";
  if config.cooldown_s <= 0. then invalid_arg "Breaker.create: non-positive cooldown";
  { config; phase = P_closed { failures = 0 }; trips = 0 }

(* An open breaker whose cooldown elapsed becomes half-open lazily, on
   the next observation — there is no timer to fire. *)
let settle t ~now =
  match t.phase with
  | P_open { until } when now >= until -> t.phase <- P_half_open { probing = false }
  | _ -> ()

let state t ~now =
  settle t ~now;
  match t.phase with
  | P_closed _ -> Closed
  | P_open _ -> Open
  | P_half_open _ -> Half_open

let allow t ~now =
  settle t ~now;
  match t.phase with
  | P_closed _ -> true
  | P_open _ -> false
  | P_half_open { probing } ->
      if probing then false
      else begin
        t.phase <- P_half_open { probing = true };
        true
      end

let trip t ~now =
  t.phase <- P_open { until = now +. t.config.cooldown_s };
  t.trips <- t.trips + 1

let record_failure t ~now =
  settle t ~now;
  match t.phase with
  | P_closed { failures } ->
      let failures = failures + 1 in
      if failures >= t.config.failure_threshold then trip t ~now
      else t.phase <- P_closed { failures }
  | P_half_open _ -> trip t ~now
  | P_open _ -> ()

let record_success t ~now =
  settle t ~now;
  match t.phase with
  | P_closed _ -> t.phase <- P_closed { failures = 0 }
  | P_half_open _ -> t.phase <- P_closed { failures = 0 }
  | P_open _ -> ()

let cooldown_remaining t ~now =
  settle t ~now;
  match t.phase with P_open { until } -> Float.max 0. (until -. now) | _ -> 0.

let trips t = t.trips
