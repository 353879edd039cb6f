module Jsonx = Fmc_obs.Jsonx

type severity = Info | Warning | Error

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let severity_compare a b = compare (severity_rank a) (severity_rank b)

let severity_to_string = function Info -> "info" | Warning -> "warn" | Error -> "error"

let severity_of_string s =
  match String.lowercase_ascii s with
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

type t = {
  pass : string;
  severity : severity;
  message : string;
  nodes : Fmc_netlist.Netlist.node list;
  groups : string list;
  data : (string * float) list;
}

let make ~pass ~severity ?(nodes = []) ?(groups = []) ?(data = []) message =
  { pass; severity; message; nodes; groups; data }

let max_severity = function
  | [] -> None
  | d :: ds ->
      Some
        (List.fold_left
           (fun acc d -> if severity_compare d.severity acc > 0 then d.severity else acc)
           d.severity ds)

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let pp ppf d =
  Format.fprintf ppf "%-5s %-22s %s" (severity_to_string d.severity) d.pass d.message;
  if d.nodes <> [] then
    Format.fprintf ppf " [nodes: %s]"
      (String.concat ", " (List.map string_of_int d.nodes));
  if d.groups <> [] then Format.fprintf ppf " [groups: %s]" (String.concat ", " d.groups)

let to_json d =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"pass\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\"" (Jsonx.escape d.pass)
       (severity_to_string d.severity) (Jsonx.escape d.message));
  Buffer.add_string buf ",\"nodes\":[";
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int n))
    d.nodes;
  Buffer.add_string buf "],\"groups\":[";
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\"" (Jsonx.escape g)))
    d.groups;
  Buffer.add_char buf ']';
  if d.data <> [] then begin
    Buffer.add_string buf ",\"data\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%.8g" (Jsonx.escape k) v))
      d.data;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf
