(* Deterministic fault-injection TCP/Unix-socket proxy.

   The proxy sits between workers and the campaign service and executes a
   declarative fault plan against the byte stream: every accepted
   connection gets two pump threads (client->upstream, upstream->client),
   each with its own RNG substream of the proxy seed, and every
   forwarded chunk runs the plan's clauses in order — delay, bit flip,
   truncation, duplication, severing, and periodic full partitions.

   Determinism scope (documented in DESIGN.md §11): the DECISION stream
   is replayable — connection k's direction d draws the same fault
   sequence for a given (seed, plan) — but TCP chunk boundaries and
   thread interleavings are timing-dependent, so the exact byte offsets
   faults land on can vary run to run. The invariant the chaos suite
   asserts is stronger anyway: whatever the faults hit, the merged
   campaign report is byte-identical to the fault-free reference,
   because the protocol layer (CRC frames, epoch fencing, reconnects)
   absorbs every injected failure. *)

open Fmc_prelude
module Obs = Fmc_obs.Obs
module Metrics = Fmc_obs.Metrics
module Clock = Fmc_obs.Clock
module Wire = Fmc_dist.Wire

type t = {
  listen_addr : Wire.addr;
  upstream : Wire.addr;
  plan : Plan.t;
  seed : int64;
  obs : Obs.t;
  on_event : string -> unit;
  listen_fd : Unix.file_descr;
  mutex : Mutex.t;
  counts : (string, int) Hashtbl.t;  (* fault keyword -> injections *)
  mutable conn_seq : int;
  mutable severs : (unit -> unit) list;  (* close-once per live connection *)
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  started : float;
  faults_mx : Metrics.counter option;
  conns_mx : Metrics.counter option;
}

exception Severed

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let count t ~conn_id ~dir fault detail =
  let name = Plan.fault_name fault in
  locked t (fun () ->
      Hashtbl.replace t.counts name (1 + Option.value (Hashtbl.find_opt t.counts name) ~default:0));
  Option.iter Metrics.inc t.faults_mx;
  t.on_event
    (Printf.sprintf "t=%.3f conn=%d dir=%s fault=%s%s"
       (Clock.now () -. t.started)
       conn_id dir name
       (if detail = "" then "" else " " ^ detail))

(* Is any partition window open at [now]? Evaluated per accept and per
   chunk; during an open window new connections are refused and live
   ones severed — a full bidirectional partition. *)
let in_partition t ~now =
  List.exists
    (function
      | Plan.Partition { every_s; open_s } ->
          Float.rem (now -. t.started) every_s < open_s
      | _ -> false)
    t.plan.Plan.faults

let partition_clause t =
  List.find_opt (function Plan.Partition _ -> true | _ -> false) t.plan.Plan.faults

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd buf ~len =
  let off = ref 0 in
  while !off < len do
    match Unix.write fd buf !off (len - !off) with
    | 0 -> raise Severed
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> raise Severed
  done

(* -- the lie fault -------------------------------------------------------
   Adversarial payload mutation: given a complete wire frame
   ([len u32][tag][crc u32][payload], Fmc_dist.Wire's v2 layout), rewrite
   a result frame's tally so it still parses and re-seal the CRC-32. The
   frame passes every transport check — only the audit layer's digests
   can tell it lied. The mutation flips the low bit of the last byte of
   the tally blob's first line ("samples N"): digits pair up under
   [lxor 1], so the payload stays wire- and tally-codec-valid while the
   decoded result differs. *)

let get_u32 buf off = Int32.to_int (Bytes.get_int32_be buf off) land 0xffffffff
let put_u32 buf off v = Bytes.set_int32_be buf off (Int32.of_int v)

let lie_rewrite frame =
  let word = get_u32 frame 0 in
  let tag = Bytes.get frame 4 in
  if tag <> 'j' || word < 4 then None
  else begin
    let payload = Bytes.sub_string frame 9 (word - 4) in
    (* Locate the "tally N" header line, then the line after it. *)
    let target =
      let rec find_header pos =
        if pos >= String.length payload then None
        else
          let line_end =
            match String.index_from_opt payload pos '\n' with
            | Some i -> i
            | None -> String.length payload
          in
          let line = String.sub payload pos (line_end - pos) in
          if String.length line > 6 && String.sub line 0 6 = "tally " then
            (* First blob line: (line_end+1) .. next '\n'. *)
            match String.index_from_opt payload (line_end + 1) '\n' with
            | Some e when e > line_end + 1 -> Some (e - 1)
            | _ -> None
          else if line_end >= String.length payload then None
          else find_header (line_end + 1)
      in
      find_header 0
    in
    match target with
    | None -> None
    | Some idx ->
        let mutated = Bytes.of_string payload in
        Bytes.set mutated idx (Char.chr (Char.code (Bytes.get mutated idx) lxor 1));
        let mutated = Bytes.unsafe_to_string mutated in
        let crc = Crc32.extend (Crc32.string (String.make 1 tag)) mutated in
        Bytes.blit_string mutated 0 frame 9 (String.length mutated);
        put_u32 frame 5 crc;
        Some idx
  end

(* One pump direction: read a chunk, run the plan over it, forward.
   With a [lie] clause in the plan the pump reassembles complete frames
   first (the mutation must land inside one frame's payload and re-seal
   its CRC); the other clauses then apply per frame instead of per raw
   chunk. An unframeable stream (v1 peer, garbage, oversized length
   word) falls back to raw forwarding for the rest of the connection. *)
let pump t ~conn_id ~dir ~sever rng src dst =
  let buf = Bytes.create 4096 in
  let forward fbuf len =
    (* Mutable per-chunk fault state threaded through the clauses. *)
    let len = ref len in
    let sever_after = ref false in
    let copies = ref 1 in
    let apply fault =
      match fault with
      | Plan.Delay { prob; min_s; max_s } ->
          if Rng.float rng 1.0 < prob then begin
            let d = min_s +. Rng.float rng (max_s -. min_s) in
            count t ~conn_id ~dir fault (Printf.sprintf "sleep=%.4f" d);
            Unix.sleepf d
          end
      | Plan.Bit_flip { prob } ->
          if !len > 0 && Rng.float rng 1.0 < prob then begin
            let byte = Rng.int rng !len in
            let bit = Rng.int rng 8 in
            Bytes.set fbuf byte (Char.chr (Char.code (Bytes.get fbuf byte) lxor (1 lsl bit)));
            count t ~conn_id ~dir fault (Printf.sprintf "byte=%d bit=%d" byte bit)
          end
      | Plan.Truncate { prob } ->
          if !len > 1 && Rng.float rng 1.0 < prob then begin
            let keep = 1 + Rng.int rng (!len - 1) in
            count t ~conn_id ~dir fault (Printf.sprintf "keep=%d of=%d" keep !len);
            len := keep;
            sever_after := true
          end
      | Plan.Duplicate { prob } ->
          if Rng.float rng 1.0 < prob then begin
            count t ~conn_id ~dir fault "";
            copies := 2
          end
      | Plan.Drop { prob } ->
          if Rng.float rng 1.0 < prob then begin
            count t ~conn_id ~dir fault "";
            raise Severed
          end
      | Plan.Partition _ ->
          if in_partition t ~now:(Clock.now ()) then begin
            count t ~conn_id ~dir fault "window";
            raise Severed
          end
      | Plan.Lie { prob } ->
          if !len > 9 && Rng.float rng 1.0 < prob then begin
            match lie_rewrite fbuf with
            | Some idx -> count t ~conn_id ~dir fault (Printf.sprintf "byte=%d" idx)
            | None -> ()
          end
    in
    List.iter apply t.plan.Plan.faults;
    for _ = 1 to !copies do
      write_all dst fbuf ~len:!len
    done;
    if !sever_after then raise Severed
  in
  let has_lie = List.exists (function Plan.Lie _ -> true | _ -> false) t.plan.Plan.faults in
  let rec raw_loop () =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        forward buf n;
        raw_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> raw_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  let framed_loop () =
    let pending = Buffer.create 8192 in
    let degraded = ref false in
    let flush_raw () =
      let data = Buffer.contents pending in
      Buffer.clear pending;
      if data <> "" then forward (Bytes.of_string data) (String.length data)
    in
    let rec drain () =
      if !degraded then flush_raw ()
      else
        let n = Buffer.length pending in
        if n >= 5 then begin
          let head = Bytes.of_string (Buffer.sub pending 0 (min n 5)) in
          let word = get_u32 head 0 in
          if word > Wire.max_frame + 4 then begin
            (* Not a v2 stream we can reframe; stop pretending. *)
            degraded := true;
            flush_raw ()
          end
          else if n >= 5 + word then begin
            let frame = Bytes.of_string (Buffer.sub pending 0 (5 + word)) in
            let rest = Buffer.sub pending (5 + word) (n - 5 - word) in
            Buffer.clear pending;
            Buffer.add_string pending rest;
            forward frame (Bytes.length frame);
            drain ()
          end
        end
    in
    let rec loop () =
      match Unix.read src buf 0 (Bytes.length buf) with
      | 0 -> flush_raw ()
      | n ->
          Buffer.add_subbytes pending buf 0 n;
          drain ();
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()
    in
    loop ()
  in
  let run = if has_lie then framed_loop else raw_loop in
  (try Obs.span t.obs ~cat:"chaos" ("pump." ^ dir) run with Severed -> ());
  sever ()

let handle_client t client =
  let conn_id =
    locked t (fun () ->
        t.conn_seq <- t.conn_seq + 1;
        t.conn_seq)
  in
  Option.iter Metrics.inc t.conns_mx;
  (* Accepts during an open partition window are refused outright. *)
  match partition_clause t with
  | Some fault when in_partition t ~now:(Clock.now ()) ->
      count t ~conn_id ~dir:"accept" fault "refused";
      close_quietly client
  | _ -> (
      match Wire.connect ~attempts:1 t.upstream with
      | exception _ ->
          t.on_event (Printf.sprintf "conn=%d upstream unreachable" conn_id);
          close_quietly client
      | server ->
          let closed = ref false in
          let cm = Mutex.create () in
          (* A close alone sends no FIN while the other pump is still
             blocked reading the socket; a shutdown ends the connection
             at both peers at once. *)
          let sever () =
            Mutex.lock cm;
            let first = not !closed in
            closed := true;
            Mutex.unlock cm;
            if first then begin
              List.iter
                (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
                [ client; server ];
              close_quietly client;
              close_quietly server
            end
          in
          locked t (fun () -> t.severs <- sever :: t.severs);
          let rng_up = Rng.substream ~seed:t.seed ~shard:(2 * conn_id) in
          let rng_down = Rng.substream ~seed:t.seed ~shard:((2 * conn_id) + 1) in
          ignore (Thread.create (fun () -> pump t ~conn_id ~dir:"up" ~sever rng_up client server) ());
          ignore
            (Thread.create (fun () -> pump t ~conn_id ~dir:"down" ~sever rng_down server client) ()))

let accept_loop t =
  while not (locked t (fun () -> t.stopping)) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [ _ ], _, _ -> (
        match Unix.accept t.listen_fd with
        | client, _ -> handle_client t client
        | exception Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> locked t (fun () -> t.stopping <- true)
  done

let start ?(obs = Obs.disabled) ?(on_event = fun _ -> ()) ~listen ~upstream ~plan ~seed () =
  let listen_fd = Wire.listen listen in
  let faults_mx, conns_mx =
    match obs.Obs.metrics with
    | None -> (None, None)
    | Some r ->
        ( Some (Metrics.counter r ~help:"chaos faults injected" "fmc_chaos_faults_total"),
          Some (Metrics.counter r ~help:"connections through the chaos proxy" "fmc_chaos_connections_total")
        )
  in
  let t =
    {
      listen_addr = listen;
      upstream;
      plan;
      seed;
      obs;
      on_event;
      listen_fd;
      mutex = Mutex.create ();
      counts = Hashtbl.create 8;
      conn_seq = 0;
      severs = [];
      stopping = false;
      accept_thread = None;
      started = Clock.now ();
      faults_mx;
      conns_mx;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let addr t = t.listen_addr

let fault_counts t =
  locked t (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let connections t = locked t (fun () -> t.conn_seq)

let stop t =
  let severs =
    locked t (fun () ->
        t.stopping <- true;
        let s = t.severs in
        t.severs <- [];
        s)
  in
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  close_quietly t.listen_fd;
  (match t.listen_addr with
  | Wire.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Wire.Tcp _ -> ());
  List.iter (fun sever -> sever ()) severs
