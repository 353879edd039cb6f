(* Fleet-level telemetry store: the campaign service's side of the
   telemetry piggyback. Absorbs each worker's latest metrics snapshot
   and its per-shard span summaries (rebased onto this process's
   timeline at absorb time via the batch's wall anchor), and renders the
   whole fleet as one Chrome trace_event JSON with one track (pid) per
   worker. Mutex-protected: connection handler threads absorb while the
   HTTP scrape thread renders. *)

type worker_entry = {
  mutable we_snapshot : Metrics.snapshot;
  mutable we_last_wall : float;
  mutable we_spans : (string * Span.event) list;  (* newest first, rebased *)
  mutable we_span_count : int;
  mutable we_trace_id : string;
}

type t = {
  mx : Mutex.t;
  base_wall : float;  (* wall instant of our own now_us = 0 *)
  max_spans : int;
  workers : (string, worker_entry) Hashtbl.t;
}

type worker_info = {
  wi_last_wall : float;
  wi_span_count : int;
  wi_trace_id : string;
  wi_snapshot : Metrics.snapshot;
}

let create ?(max_spans = 8192) () =
  if max_spans <= 0 then invalid_arg "Fleet.create: non-positive max_spans";
  {
    mx = Mutex.create ();
    base_wall = Clock.wall () -. (Clock.now_us () /. 1e6);
    max_spans;
    workers = Hashtbl.create 8;
  }

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

let entry_for t worker =
  match Hashtbl.find_opt t.workers worker with
  | Some e -> e
  | None ->
      let e =
        {
          we_snapshot = [];
          we_last_wall = 0.;
          we_spans = [];
          we_span_count = 0;
          we_trace_id = "";
        }
      in
      Hashtbl.replace t.workers worker e;
      e

let truncate n l =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go n l

let absorb t ~worker (tm : Telemetry.t) =
  locked t (fun () ->
      let e = entry_for t worker in
      e.we_last_wall <- Clock.wall ();
      if tm.Telemetry.tm_metrics <> [] then e.we_snapshot <- tm.Telemetry.tm_metrics;
      if tm.Telemetry.tm_trace_id <> "" then e.we_trace_id <- tm.Telemetry.tm_trace_id;
      match tm.Telemetry.tm_spans with
      | [] -> ()
      | spans ->
          let shift_us = (tm.Telemetry.tm_base_wall -. t.base_wall) *. 1e6 in
          let rebased =
            List.rev_map
              (fun { Telemetry.ss_span_id; ss_event = ev } ->
                (ss_span_id, { ev with Span.ev_ts_us = ev.Span.ev_ts_us +. shift_us }))
              spans
          in
          e.we_span_count <- e.we_span_count + List.length rebased;
          e.we_spans <- truncate t.max_spans (rebased @ e.we_spans))

let sorted_workers t =
  Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.workers []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let merged_snapshot t ~base =
  locked t (fun () ->
      List.fold_left
        (fun acc (_, e) ->
          (* a worker snapshot that clashes with ours (bucket or kind
             mismatch from a heterogeneous fleet) is skipped, not fatal:
             scraping is observation-only *)
          try Metrics.merge acc e.we_snapshot with Invalid_argument _ -> acc)
        base (sorted_workers t))

let workers t =
  locked t (fun () ->
      List.map
        (fun (name, e) ->
          ( name,
            {
              wi_last_wall = e.we_last_wall;
              wi_span_count = e.we_span_count;
              wi_trace_id = e.we_trace_id;
              wi_snapshot = e.we_snapshot;
            } ))
        (sorted_workers t))

let span_count t =
  locked t (fun () -> Hashtbl.fold (fun _ e n -> n + List.length e.we_spans) t.workers 0)

let trace_id t =
  locked t (fun () ->
      List.fold_left
        (fun acc (_, e) -> if acc = "" then e.we_trace_id else acc)
        "" (sorted_workers t))

(* ------------------------------------------------------------------ *)
(* Chrome trace_event stitching *)

let buf_event buf ~first ~pid ~trace_id ~span_id (ev : Span.event) =
  if not first then Buffer.add_char buf ',';
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f"
       (Jsonx.escape ev.Span.ev_name) (Jsonx.escape ev.Span.ev_cat) pid ev.Span.ev_tid
       ev.Span.ev_ts_us ev.Span.ev_dur_us);
  if span_id <> "" || trace_id <> "" then
    Buffer.add_string buf
      (Printf.sprintf ",\"args\":{\"trace_id\":\"%s\",\"span_id\":\"%s\"}"
         (Jsonx.escape trace_id) (Jsonx.escape span_id));
  Buffer.add_char buf '}'

let buf_process_name buf ~first ~pid label =
  if not first then Buffer.add_char buf ',';
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
       pid (Jsonx.escape label))

let to_chrome_json ?(own_label = "service") ?(own_events = []) t =
  locked t (fun () ->
      let ws = sorted_workers t in
      let trace =
        List.fold_left (fun acc (_, e) -> if acc = "" then e.we_trace_id else acc) "" ws
      in
      let buf = Buffer.create 8192 in
      Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",";
      if trace <> "" then
        Buffer.add_string buf (Printf.sprintf "\"traceId\":\"%s\"," (Jsonx.escape trace));
      Buffer.add_string buf "\"traceEvents\":[";
      let first = ref true in
      let emit f =
        f ~first:!first;
        first := false
      in
      emit (fun ~first -> buf_process_name buf ~first ~pid:1 own_label);
      List.iteri
        (fun i (name, _) ->
          emit (fun ~first -> buf_process_name buf ~first ~pid:(i + 2) ("worker " ^ name)))
        ws;
      List.iter
        (fun ev -> emit (fun ~first -> buf_event buf ~first ~pid:1 ~trace_id:trace ~span_id:"" ev))
        own_events;
      List.iteri
        (fun i (_, e) ->
          List.iter
            (fun (span_id, ev) ->
              emit (fun ~first ->
                  buf_event buf ~first ~pid:(i + 2) ~trace_id:e.we_trace_id ~span_id ev))
            (List.rev e.we_spans))
        ws;
      Buffer.add_string buf "]}";
      Buffer.contents buf)
