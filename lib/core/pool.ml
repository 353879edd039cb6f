(* Persistent helper domains, spawned on first use and kept for the life
   of the process. One caller at a time holds the pool ([acquire]); a
   round hands every helper the same job, the caller runs its own share,
   and [run] returns once every helper has finished. Idle helpers block
   on [wake]. *)

type t = {
  gate : Mutex.t;  (* held by the one caller using the pool *)
  lock : Mutex.t;  (* guards the fields below *)
  wake : Condition.t;  (* a new round was posted *)
  idle : Condition.t;  (* the last helper finished the round *)
  mutable round : int;
  mutable job : int -> unit;
  mutable running : int;  (* helpers still in the round *)
  mutable spawned : int;
}

let pool =
  {
    gate = Mutex.create ();
    lock = Mutex.create ();
    wake = Condition.create ();
    idle = Condition.create ();
    round = 0;
    job = ignore;
    running = 0;
    spawned = 0;
  }

let acquire () = Mutex.try_lock pool.gate
let release () = Mutex.unlock pool.gate

let rec serve i seen =
  Mutex.lock pool.lock;
  while pool.round = seen do
    Condition.wait pool.wake pool.lock
  done;
  let round = pool.round and job = pool.job in
  Mutex.unlock pool.lock;
  (try job (i + 1) with _ -> ());
  Mutex.lock pool.lock;
  pool.running <- pool.running - 1;
  if pool.running = 0 then Condition.signal pool.idle;
  Mutex.unlock pool.lock;
  serve i round

let helpers n =
  (* Each domain has its own minor heap: the first helpers split the one
     domain's among all of them, so the minor heaps hold what one did. *)
  if pool.spawned = 0 && n > 0 then begin
    let gc = Gc.get () in
    Gc.set { gc with Gc.minor_heap_size = max 32_768 (gc.Gc.minor_heap_size / (n + 1)) }
  end;
  (try
     while pool.spawned < n do
       let i = pool.spawned and seen = pool.round in
       ignore (Domain.spawn (fun () -> serve i seen));
       pool.spawned <- i + 1
     done
   with Failure _ -> ());
  min n pool.spawned

let run ~helpers job =
  Mutex.lock pool.lock;
  pool.job <- (fun d -> if d <= helpers then job d);
  pool.running <- pool.spawned;
  pool.round <- pool.round + 1;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock pool.lock;
      while pool.running > 0 do
        Condition.wait pool.idle pool.lock
      done;
      Mutex.unlock pool.lock)
    (fun () -> job 0)
