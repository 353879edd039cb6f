module Jsonx = Fmc_obs.Jsonx

let buf_csv header rows render =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render r ^ "\n")) rows;
  Buffer.contents buf

let trace_csv (r : Ssf.report) =
  buf_csv "samples,ssf" r.Ssf.trace (fun (n, e) -> Printf.sprintf "%d,%.8f" n e)

let contributions_csv (r : Ssf.report) =
  buf_csv "register,bit,weight" r.Ssf.contributions (fun ((group, bit), w) ->
      Printf.sprintf "%s,%d,%.8f" group bit w)

let report_json (r : Ssf.report) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{";
  Buffer.add_string buf (Printf.sprintf "\"strategy\":\"%s\"," (Jsonx.escape r.Ssf.strategy));
  Buffer.add_string buf (Printf.sprintf "\"samples\":%d," r.Ssf.n);
  Buffer.add_string buf (Printf.sprintf "\"ssf\":%.8f," r.Ssf.ssf);
  Buffer.add_string buf (Printf.sprintf "\"ssf_upper_bound\":%.8f," r.Ssf.ssf_upper);
  Buffer.add_string buf (Printf.sprintf "\"variance\":%.8e," r.Ssf.variance);
  Buffer.add_string buf (Printf.sprintf "\"successes\":%d," r.Ssf.successes);
  Buffer.add_string buf (Printf.sprintf "\"effective_samples\":%.2f," r.Ssf.ess);
  Buffer.add_string buf
    (Printf.sprintf
       "\"outcomes\":{\"masked\":%d,\"analytical\":%d,\"resumed\":%d,\"quarantined\":%d,\"quarantined_crashed\":%d,\"quarantined_timed_out\":%d},"
       r.Ssf.outcomes.Ssf.masked r.Ssf.outcomes.Ssf.mem_only r.Ssf.outcomes.Ssf.resumed
       r.Ssf.outcomes.Ssf.quarantined r.Ssf.outcomes.Ssf.q_crashed
       r.Ssf.outcomes.Ssf.q_timed_out);
  Buffer.add_string buf
    (Printf.sprintf "\"success_by_direct\":%d,\"success_by_comb\":%d," r.Ssf.success_by_direct
       r.Ssf.success_by_comb);
  Buffer.add_string buf "\"trace\":[";
  List.iteri
    (fun i (n, e) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "[%d,%.8f]" n e))
    r.Ssf.trace;
  Buffer.add_string buf "],\"contributions\":[";
  List.iteri
    (fun i ((group, bit), w) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"register\":\"%s\",\"bit\":%d,\"weight\":%.8f}" (Jsonx.escape group) bit w))
    r.Ssf.contributions;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let fig11_csv (f : Experiments.fig11) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "sweep,point,normalized_ssf_write,normalized_ssf_read\n";
  List.iter
    (fun (w, sw, sr) ->
      Buffer.add_string buf (Printf.sprintf "temporal,%d,%.6f,%.6f\n" w sw sr))
    f.Experiments.temporal;
  List.iter
    (fun (label, sw, sr) ->
      Buffer.add_string buf (Printf.sprintf "spatial,%s,%.6f,%.6f\n" label sw sr))
    f.Experiments.spatial;
  Buffer.contents buf
