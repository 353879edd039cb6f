(* Shard lease table with epoch fencing.

   Every shard moves through Unleased -> Leased -> Done. A lease carries
   an epoch number that only ever grows for its shard: when a lease
   expires (no heartbeat before the deadline) the shard returns to
   Unleased and the next assignment is issued under a bumped epoch, so a
   completion arriving later from the presumed-dead worker fences on the
   stale epoch and is rejected. Exactly one completion is ever accepted
   per shard, which is what makes the merged report independent of
   worker deaths and re-deliveries.

   The table is pure state over an injected clock (`now` parameters), so
   the fencing logic is unit-testable without timers. Thread safety is
   the caller's job (the service holds its mutex around calls). *)

type assignment = { shard : int; epoch : int; start : int; len : int }

type slot =
  | Unleased
  | Leased of {
      epoch : int;
      worker : string;
      deadline : float;
      spare : (int * string * float) option;
          (* speculative duplicate (epoch, worker, deadline): a second
             live lease on the same shard, under its own (higher) epoch.
             First valid completion wins; the other fences as stale. *)
    }
  | Done of { epoch : int }

type t = {
  plan : (int * int) array;
  ttl : float;
  slots : slot array;
  epochs : int array;  (* highest epoch ever issued per shard *)
  mutable done_count : int;
}

let create ~plan ~ttl =
  if ttl <= 0. then invalid_arg "Lease.create: non-positive ttl";
  if Array.length plan = 0 then invalid_arg "Lease.create: empty plan";
  {
    plan;
    ttl;
    slots = Array.make (Array.length plan) Unleased;
    epochs = Array.make (Array.length plan) 0;
    done_count = 0;
  }

let total t = Array.length t.plan
let completed t = t.done_count
let finished t = t.done_count = total t

let in_flight t =
  Array.fold_left (fun n -> function Leased _ -> n + 1 | _ -> n) 0 t.slots

let sweep_expired t ~now =
  let expired = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Leased l ->
          (* Expire the speculative duplicate independently of the
             primary; a live spare is promoted when the primary dies. *)
          let spare =
            match l.spare with
            | Some (_, w, d) when d < now ->
                expired := (i, w) :: !expired;
                None
            | s -> s
          in
          if l.deadline < now then begin
            expired := (i, l.worker) :: !expired;
            t.slots.(i) <-
              (match spare with
              | Some (epoch, worker, deadline) ->
                  Leased { epoch; worker; deadline; spare = None }
              | None -> Unleased)
          end
          else if spare != l.spare then t.slots.(i) <- Leased { l with spare }
      | _ -> ())
    t.slots;
  List.rev !expired

let acquire t ~now ~worker =
  if finished t then `Finished
  else begin
    let free = ref None in
    Array.iteri
      (fun i slot -> if !free = None && slot = Unleased then free := Some i)
      t.slots;
    match !free with
    | None -> `Wait
    | Some i ->
        let epoch = t.epochs.(i) + 1 in
        t.epochs.(i) <- epoch;
        t.slots.(i) <- Leased { epoch; worker; deadline = now +. t.ttl; spare = None };
        let start, len = t.plan.(i) in
        `Assign { shard = i; epoch; start; len }
  end

let heartbeat t ~now ~shard ~epoch =
  if shard < 0 || shard >= total t then `Stale
  else
    match t.slots.(shard) with
    | Leased l when l.epoch = epoch ->
        t.slots.(shard) <- Leased { l with deadline = now +. t.ttl };
        `Ok
    | Leased ({ spare = Some (e, w, _); _ } as l) when e = epoch ->
        t.slots.(shard) <- Leased { l with spare = Some (e, w, now +. t.ttl) };
        `Ok
    | _ -> `Stale

let complete t ~shard ~epoch =
  if shard < 0 || shard >= total t then `Unknown
  else
    match t.slots.(shard) with
    | Leased { epoch = e; _ } when e = epoch ->
        t.slots.(shard) <- Done { epoch };
        t.done_count <- t.done_count + 1;
        `Accepted
    | Leased { spare = Some (e, _, _); _ } when e = epoch ->
        (* The speculative duplicate finished first; the straggling
           primary now fences as stale. *)
        t.slots.(shard) <- Done { epoch };
        t.done_count <- t.done_count + 1;
        `Accepted
    | Done { epoch = e } when e = epoch -> `Duplicate
    | Done _ | Leased _ | Unleased -> `Stale

let force_complete t ~shard =
  if shard < 0 || shard >= total t then invalid_arg "Lease.force_complete: bad shard";
  (match t.slots.(shard) with
  | Done _ -> ()
  | Unleased | Leased _ ->
      t.slots.(shard) <- Done { epoch = t.epochs.(shard) };
      t.done_count <- t.done_count + 1)

let bump_epoch t ~shard =
  if shard < 0 || shard >= total t then invalid_arg "Lease.bump_epoch: bad shard";
  t.epochs.(shard) <- t.epochs.(shard) + 1;
  t.epochs.(shard)

let range t ~shard =
  if shard < 0 || shard >= total t then invalid_arg "Lease.range: bad shard";
  t.plan.(shard)

let reopen t ~shard =
  if shard < 0 || shard >= total t then invalid_arg "Lease.reopen: bad shard";
  match t.slots.(shard) with
  | Done _ ->
      t.slots.(shard) <- Unleased;
      t.done_count <- t.done_count - 1
  | Unleased | Leased _ -> ()

let release t ~shard ~epoch =
  if shard < 0 || shard >= total t then ()
  else
    match t.slots.(shard) with
    | Leased l when l.epoch = epoch ->
        t.slots.(shard) <-
          (match l.spare with
          | Some (epoch, worker, deadline) ->
              Leased { epoch; worker; deadline; spare = None }
          | None -> Unleased)
    | Leased ({ spare = Some (e, _, _); _ } as l) when e = epoch ->
        t.slots.(shard) <- Leased { l with spare = None }
    | _ -> ()

let release_worker t ~worker =
  let released = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Leased l ->
          let spare =
            match l.spare with Some (_, w, _) when w = worker -> None | s -> s
          in
          if l.worker = worker then begin
            released := i :: !released;
            t.slots.(i) <-
              (match spare with
              | Some (epoch, worker, deadline) ->
                  Leased { epoch; worker; deadline; spare = None }
              | None -> Unleased)
          end
          else if spare != l.spare then t.slots.(i) <- Leased { l with spare }
      | _ -> ())
    t.slots;
  List.rev !released

let speculate t ~now ~shard ~worker =
  if shard < 0 || shard >= total t then None
  else
    match t.slots.(shard) with
    | Leased l when l.spare = None && l.worker <> worker ->
        let epoch = t.epochs.(shard) + 1 in
        t.epochs.(shard) <- epoch;
        t.slots.(shard) <- Leased { l with spare = Some (epoch, worker, now +. t.ttl) };
        let start, len = t.plan.(shard) in
        Some { shard; epoch; start; len }
    | _ -> None
