type t = {
  net : Netlist.t;
  buckets : Netlist.node array array;  (* one stack per logic level *)
  len : int array;
  queued : int array;  (* epoch stamps: queued.(g) = epoch iff g was pushed this round *)
  mutable epoch : int;
  mutable lo : int;  (* no level below [lo] holds a pending node *)
}

let create net =
  let levels = Netlist.max_level net + 1 in
  {
    net;
    buckets = Array.make levels [||];
    len = Array.make levels 0;
    queued = Array.make (Netlist.num_nodes net) (-1);
    epoch = 0;
    lo = levels;
  }

let reset t =
  Array.fill t.len 0 (Array.length t.len) 0;
  t.lo <- Array.length t.len;
  t.epoch <- t.epoch + 1

let rearm t = t.epoch <- t.epoch + 1

let push t g =
  if t.queued.(g) <> t.epoch then begin
    t.queued.(g) <- t.epoch;
    let l = Netlist.level t.net g in
    let len = t.len.(l) in
    if len >= Array.length t.buckets.(l) then begin
      let grown = Array.make (max 8 (2 * len)) g in
      Array.blit t.buckets.(l) 0 grown 0 len;
      t.buckets.(l) <- grown
    end;
    t.buckets.(l).(len) <- g;
    t.len.(l) <- len + 1;
    if l < t.lo then t.lo <- l
  end

let push_fanouts t n =
  Array.iter
    (fun f -> match Netlist.kind t.net f with Kind.Gate _ -> push t f | _ -> ())
    (Netlist.fanouts t.net n)

let rec pop t =
  if t.lo >= Array.length t.len then -1
  else begin
    let l = t.lo in
    let len = t.len.(l) in
    if len = 0 then begin
      t.lo <- l + 1;
      pop t
    end
    else begin
      t.len.(l) <- len - 1;
      t.buckets.(l).(len - 1)
    end
  end
