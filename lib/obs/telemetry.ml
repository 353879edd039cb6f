(* Line-oriented codec for the v4 piggyback payload: a metrics snapshot
   plus per-shard span summaries, attached by workers to heartbeat and
   shard-result messages. Floats travel as [%h] hex literals so merged
   values round-trip bit-exactly; free-form strings (metric help, span
   names) are percent-encoded so the payload stays one token per field.
   The codec is self-contained text — the dist protocol embeds it as an
   opaque line-counted blob and never looks inside. *)

module Record = Fmc_prelude.Record

type span_summary = { ss_span_id : string; ss_event : Span.event }

type t = {
  tm_trace_id : string;
  tm_base_wall : float;
  tm_metrics : Metrics.snapshot;
  tm_spans : span_summary list;
}

let empty = { tm_trace_id = ""; tm_base_wall = 0.; tm_metrics = []; tm_spans = [] }

let make ?(trace_id = "") ?(metrics = []) ?(spans = []) () =
  (* [base_wall] is the wall-clock instant of the sender's monotonic
     microsecond origin: receivers rebase span timestamps onto their own
     timeline as ts + (sender_base - receiver_base). *)
  let base_wall = Clock.wall () -. (Clock.now_us () /. 1e6) in
  { tm_trace_id = trace_id; tm_base_wall = base_wall; tm_metrics = metrics; tm_spans = spans }

(* ------------------------------------------------------------------ *)
(* token codecs *)

let pct_encode s =
  let must_escape = function
    | '%' | ' ' | '\n' | '\r' | '\t' -> true
    | _ -> false
  in
  if not (String.exists must_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if must_escape c then Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let pct_decode s =
  let n = String.length s in
  if not (String.contains s '%') then s
  else begin
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] <> '%' then Buffer.add_char b s.[!i]
       else if !i + 2 >= n then Record.fail "truncated %% escape in %S" s
       else
         match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
         | Some code ->
             Buffer.add_char b (Char.chr code);
             i := !i + 2
         | None -> Record.fail "bad %% escape in %S" s);
      incr i
    done;
    Buffer.contents b
  end

let float_tok = Record.hexf
let float_of = Record.float_of "float"
let int_of = Record.int_of "int"

(* "-" stands for the empty string in fixed-position fields (a bare
   empty token would be ambiguous at the end of a line); a literal "-"
   is pct-escaped by the caller before it gets here. *)
let opt_tok s = if s = "" then "-" else s
let opt_of tok = if tok = "-" then "" else tok

let join_floats a =
  if Array.length a = 0 then "-"
  else String.concat "," (Array.to_list (Array.map float_tok a))

let floats_of tok =
  if tok = "-" then [||]
  else Array.of_list (List.map float_of (String.split_on_char ',' tok))

let join_ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let ints_of tok = Array.of_list (List.map int_of (String.split_on_char ',' tok))

(* ------------------------------------------------------------------ *)
(* encode *)

let metric_line name help value =
  let help = pct_encode help in
  match value with
  | Metrics.Counter v -> Printf.sprintf "c %s %s %s" name (float_tok v) help
  | Metrics.Gauge v -> Printf.sprintf "g %s %s %s" name (float_tok v) help
  | Metrics.Histo h ->
      Printf.sprintf "h %s %s %d %s %s %s" name (float_tok h.Metrics.sum)
        h.Metrics.count (join_floats h.Metrics.buckets) (join_ints h.Metrics.counts)
        help

let span_line { ss_span_id; ss_event = ev } =
  Printf.sprintf "s %s %d %s %s %s %s"
    (opt_tok ss_span_id)
    ev.Span.ev_tid (float_tok ev.Span.ev_ts_us) (float_tok ev.Span.ev_dur_us)
    (pct_encode ev.Span.ev_name)
    (opt_tok (pct_encode ev.Span.ev_cat))

let encode t =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "trace %s\n" (opt_tok t.tm_trace_id));
  Buffer.add_string b (Printf.sprintf "base %s\n" (float_tok t.tm_base_wall));
  Record.add_section b "metrics"
    (List.map (fun (name, (help, value)) -> metric_line name help value) t.tm_metrics);
  Record.add_section b "spans" (List.map span_line t.tm_spans);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* decode *)

let fields line = String.split_on_char ' ' line

let metric_of_line line =
  match fields line with
  | [ "c"; name; v; help ] -> (name, (pct_decode help, Metrics.Counter (float_of v)))
  | [ "g"; name; v; help ] -> (name, (pct_decode help, Metrics.Gauge (float_of v)))
  | [ "h"; name; sum; count; bounds; counts; help ] ->
      let buckets = floats_of bounds and counts = ints_of counts in
      if Array.length counts <> Array.length buckets + 1 then
        Record.fail "histogram %s: %d counts for %d buckets" name (Array.length counts)
          (Array.length buckets);
      ( name,
        ( pct_decode help,
          Metrics.Histo
            { Metrics.buckets; counts; sum = float_of sum; count = int_of count } ) )
  | _ -> Record.fail "bad metric line %S" line

let span_of_line line =
  match fields line with
  | [ "s"; id; tid; ts; dur; name; cat ] ->
      {
        ss_span_id = opt_of id;
        ss_event =
          {
            Span.ev_name = pct_decode name;
            ev_cat = pct_decode (opt_of cat);
            ev_tid = int_of tid;
            ev_ts_us = float_of ts;
            ev_dur_us = float_of dur;
          };
      }
  | _ -> Record.fail "bad span line %S" line

let decode =
  Record.parse (fun c ->
      let tm_trace_id = opt_of (Record.rest c "trace") in
      let tm_base_wall = float_of (Record.rest c "base") in
      let tm_metrics = Record.section c "metrics" metric_of_line in
      let tm_spans = Record.section c "spans" span_of_line in
      Record.finish c;
      { tm_trace_id; tm_base_wall; tm_metrics; tm_spans })
