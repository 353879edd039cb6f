(* Shard lease table with epoch fencing.

   Every lease carries an epoch number that only ever grows for its
   shard: each new lease, of whatever kind, is issued under the next
   one. When a lease expires (no heartbeat before the deadline) it is
   dropped, and a completion arriving later from the presumed-dead
   worker fences on its stale epoch. Exactly one first or speculative
   completion is ever accepted per shard, which is what makes the
   merged report independent of worker deaths, duplicates and
   re-deliveries; an audit lease only ever runs on a done shard, so its
   completion can never be mistaken for the accepted result.

   The table is pure state over an injected clock (`now` parameters), so
   the fencing logic is unit-testable without timers. Thread safety is
   the caller's job (the service holds its mutex around calls). *)

type assignment = { shard : int; epoch : int; start : int; len : int }
type kind = First | Speculative | Audit

type lease = { kind : kind; epoch : int; worker : string; started : float; deadline : float }

(* Open: [accepted = None], [live = []]. Running: [accepted = None],
   first and speculative leases live. Done: [accepted = Some epoch], at
   most one audit lease live. *)
type shard = { mutable issued : int; mutable accepted : int option; mutable live : lease list }

type t = { plan : (int * int) array; ttl : float; shards : shard array; mutable done_count : int }

let create ~plan ~ttl =
  if ttl <= 0. then invalid_arg "Lease.create: non-positive ttl";
  if Array.length plan = 0 then invalid_arg "Lease.create: empty plan";
  {
    plan;
    ttl;
    shards = Array.map (fun _ -> { issued = 0; accepted = None; live = [] }) plan;
    done_count = 0;
  }

let total t = Array.length t.plan
let completed t = t.done_count
let finished t = t.done_count = total t
let in_flight t = Array.fold_left (fun n s -> if s.live = [] then n else n + 1) 0 t.shards
let valid t shard = shard >= 0 && shard < total t
let check t ~shard what = if not (valid t shard) then invalid_arg (what ^ ": bad shard")
let live s epoch = List.find_opt (fun (l : lease) -> l.epoch = epoch) s.live

let issue t i kind ~now ~worker =
  let s = t.shards.(i) in
  s.issued <- s.issued + 1;
  s.live <- { kind; epoch = s.issued; worker; started = now; deadline = now +. t.ttl } :: s.live;
  let start, len = t.plan.(i) in
  { shard = i; epoch = s.issued; start; len }

(* The lowest shard satisfying [p]. *)
let find t p =
  let rec go i = if i >= total t then None else if p i t.shards.(i) then Some i else go (i + 1) in
  go 0

let acquire t ~now ~worker =
  if finished t then `Finished
  else
    match find t (fun _ s -> s.accepted = None && s.live = []) with
    | None -> `Wait
    | Some i -> `Assign (issue t i First ~now ~worker)

let speculate t ~now ~worker ~older_than =
  let oldest = ref None in
  Array.iteri
    (fun i s ->
      match s with
      | { accepted = None; live = [ l ]; _ } when l.worker <> worker && now -. l.started > older_than
        -> (
          match !oldest with
          | Some (_, started) when started <= l.started -> ()
          | _ -> oldest := Some (i, l.started))
      | _ -> ())
    t.shards;
  Option.map (fun (i, _) -> issue t i Speculative ~now ~worker) !oldest

let audit t ~now ~worker ~due =
  find t (fun i s -> s.accepted <> None && s.live = [] && due i)
  |> Option.map (fun i -> issue t i Audit ~now ~worker)

let heartbeat t ~now ~shard ~epoch =
  if not (valid t shard) then `Stale
  else
    let s = t.shards.(shard) in
    match live s epoch with
    | None -> `Stale
    | Some l ->
        s.live <- List.map (fun x -> if x == l then { l with deadline = now +. t.ttl } else x) s.live;
        `Ok

let complete t ~shard ~epoch =
  if not (valid t shard) then `Unknown
  else
    let s = t.shards.(shard) in
    match live s epoch with
    | Some l ->
        (* A done shard's only live lease is its audit; a running shard's
           first valid completion is accepted and fences the others. *)
        s.live <- [];
        if l.kind <> Audit then begin
          s.accepted <- Some epoch;
          t.done_count <- t.done_count + 1
        end;
        `Accepted l
    | None -> if s.accepted = Some epoch then `Duplicate else `Stale

let sweep_expired t ~now =
  let expired = ref [] in
  Array.iteri
    (fun i s ->
      let dead, live = List.partition (fun l -> l.deadline < now) s.live in
      if dead <> [] then begin
        s.live <- live;
        List.iter (fun l -> expired := (i, l.worker) :: !expired) dead
      end)
    t.shards;
  List.rev !expired

let release t ~shard ~epoch =
  if valid t shard then
    let s = t.shards.(shard) in
    s.live <- List.filter (fun (l : lease) -> l.epoch <> epoch) s.live

let release_worker t ~worker =
  Array.iter (fun s -> s.live <- List.filter (fun l -> l.worker <> worker) s.live) t.shards

let reopen t ~shard =
  check t ~shard "Lease.reopen";
  let s = t.shards.(shard) in
  if s.accepted <> None then begin
    s.accepted <- None;
    s.live <- [];
    t.done_count <- t.done_count - 1
  end

let force_complete t ~shard =
  check t ~shard "Lease.force_complete";
  let s = t.shards.(shard) in
  if s.accepted = None then begin
    s.accepted <- Some s.issued;
    s.live <- [];
    t.done_count <- t.done_count + 1
  end
