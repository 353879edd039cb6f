module N = Fmc_netlist.Netlist
module K = Fmc_netlist.Kind
module Worklist = Fmc_netlist.Worklist

(* One byte per node, '\000' or '\001': a whole settled state loads or
   saves with one memmove (see [load_values]). The unchecked accessors
   serve node ids taken from the netlist itself, which always index
   [values]. *)
let byte b = Char.unsafe_chr (Bool.to_int b)
let[@inline] get values node = Bytes.unsafe_get values node <> '\000'
let[@inline] set values node b = Bytes.unsafe_set values node (byte b)

type t = {
  net : N.t;
  values : Bytes.t;  (* settled value per node after eval_comb *)
  dff_index : int array;  (* node id -> position in N.dffs, or -1 *)
  scratch : bool array;  (* fan-in value buffer reused across gates *)
}

let create net =
  let n = N.num_nodes net in
  let values = Bytes.make n '\000' in
  Array.iter
    (fun c -> Bytes.set values c (byte (match N.kind net c with K.Const b -> b | _ -> false)))
    (N.consts net);
  Array.iter (fun d -> Bytes.set values d (byte (N.dff_init net d))) (N.dffs net);
  let dff_index = Array.make n (-1) in
  Array.iteri (fun i d -> dff_index.(d) <- i) (N.dffs net);
  let max_arity =
    Array.fold_left (fun acc g -> max acc (Array.length (N.fanins net g))) 1 (N.gates net)
  in
  { net; values; dff_index; scratch = Array.make max_arity false }

let netlist t = t.net

let value t node = Bytes.get t.values node <> '\000'

let set_input t node b =
  (match N.kind t.net node with
  | K.Input -> ()
  | _ -> invalid_arg "Cycle_sim.set_input: not a primary input");
  Bytes.set t.values node (byte b)

let set_input_bus t nodes v =
  Array.iteri (fun i node -> set_input t node ((v lsr i) land 1 = 1)) nodes

(* A gate's value from its fan-ins' current values. *)
let[@inline] eval_gate t g =
  match N.kind t.net g with
  | K.Gate kind -> (
      let fanins = N.fanins t.net g in
      let n = Array.length fanins in
      for i = 0 to n - 1 do
        t.scratch.(i) <- get t.values fanins.(i)
      done;
      (* Inline the common cases; fall back to Kind.eval for the rest. *)
      match kind with
      | K.Not -> not t.scratch.(0)
      | K.Buf -> t.scratch.(0)
      | K.And when n = 2 -> t.scratch.(0) && t.scratch.(1)
      | K.Or when n = 2 -> t.scratch.(0) || t.scratch.(1)
      | K.Xor when n = 2 -> t.scratch.(0) <> t.scratch.(1)
      | K.Xnor when n = 2 -> t.scratch.(0) = t.scratch.(1)
      | K.Nand when n = 2 -> not (t.scratch.(0) && t.scratch.(1))
      | K.Nor when n = 2 -> not (t.scratch.(0) || t.scratch.(1))
      | K.Mux -> if t.scratch.(0) then t.scratch.(2) else t.scratch.(1)
      | kind -> K.eval kind (Array.sub t.scratch 0 n))
  | _ -> assert false

let eval_comb t =
  let gates = N.gates t.net in
  for i = 0 to Array.length gates - 1 do
    let g = gates.(i) in
    set t.values g (eval_gate t g)
  done

let drive t wl node b =
  (match N.kind t.net node with
  | K.Input | K.Dff _ -> ()
  | _ -> invalid_arg "Cycle_sim.drive: not a primary input or flip-flop");
  if value t node <> b then begin
    Bytes.set t.values node (byte b);
    Worklist.push_fanouts wl node
  end

let drive_bus t wl nodes v = Array.iteri (fun i node -> drive t wl node ((v lsr i) land 1 = 1)) nodes

let propagate t wl =
  let rec go () =
    let g = Worklist.pop wl in
    if g >= 0 then begin
      let v = eval_gate t g in
      if v <> get t.values g then begin
        set t.values g v;
        Worklist.push_fanouts wl g
      end;
      go ()
    end
  in
  go ()

let read_bus t nodes =
  let v = ref 0 in
  Array.iteri (fun i node -> if value t node then v := !v lor (1 lsl i)) nodes;
  !v

let latch t =
  let dffs = N.dffs t.net in
  let next = Array.map (fun d -> value t (N.dff_d t.net d)) dffs in
  Array.iteri (fun i d -> Bytes.set t.values d (byte next.(i))) dffs

let step t =
  eval_comb t;
  latch t

let flip t node =
  if t.dff_index.(node) < 0 then invalid_arg "Cycle_sim.flip: not a flip-flop";
  Bytes.set t.values node (byte (not (value t node)))

let read_group t name =
  let members = N.register_group t.net name in
  let v = ref 0 in
  Array.iteri (fun bit d -> if value t d then v := !v lor (1 lsl bit)) members;
  !v

let write_group t name v =
  let members = N.register_group t.net name in
  Array.iteri (fun bit d -> Bytes.set t.values d (byte ((v lsr bit) land 1 = 1))) members

let save_values t = Bytes.copy t.values

let load_values t v =
  if Bytes.length v <> Bytes.length t.values then
    invalid_arg "Cycle_sim.load_values: length mismatch";
  Bytes.blit v 0 t.values 0 (Bytes.length v)

let snapshot t = Array.map (fun d -> value t d) (N.dffs t.net)

let restore t bits =
  let dffs = N.dffs t.net in
  if Array.length bits <> Array.length dffs then
    invalid_arg "Cycle_sim.restore: snapshot length mismatch";
  Array.iteri (fun i d -> Bytes.set t.values d (byte bits.(i))) dffs

let reset t = Array.iter (fun d -> Bytes.set t.values d (byte (N.dff_init t.net d))) (N.dffs t.net)
