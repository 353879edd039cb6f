(* Minimal embedded HTTP/1.0 server for the scrape endpoint. Zero
   dependencies beyond Unix + threads: one accept thread, one short-lived
   thread per connection, socket send/receive deadlines so a stalled
   scraper can never wedge the service, [Connection: close] always.
   Deliberately tiny — GET/HEAD on a fixed route table is everything a
   Prometheus scrape or `faultmc top` poll needs. *)

type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body = { status; content_type = "text/plain; charset=utf-8"; body }
let json ?(status = 200) body = { status; content_type = "application/json"; body }

type route = string * (unit -> response)

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let parse_request line =
  match String.split_on_char ' ' (String.trim line) with
  | [ meth; target; proto ]
    when String.length proto >= 5 && String.sub proto 0 5 = "HTTP/" ->
      if meth = "" || target = "" || target.[0] <> '/' then
        Error (Printf.sprintf "malformed request target %S" target)
      else
        let path =
          match String.index_opt target '?' with
          | Some q -> String.sub target 0 q
          | None -> target
        in
        Ok (meth, path)
  | _ -> Error (Printf.sprintf "malformed request line %S" line)

(* ------------------------------------------------------------------ *)
(* server *)

type t = {
  sock : Unix.file_descr;
  port : int;
  running : bool Atomic.t;
  thread : Thread.t;
}

let default_max_request_bytes = 8192

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring fd s !pos (n - !pos)
  done

let header_end s =
  (* index just past the blank line ending the header block *)
  let n = String.length s in
  let rec find i =
    if i >= n then None
    else if i + 3 < n && String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
    else if i + 1 < n && String.sub s i 2 = "\n\n" then Some (i + 2)
    else find (i + 1)
  in
  find 0

(* Read the full header block (requests are tiny; we never need a
   body) so the close after our response does not race unread data.
   Misbehaving clients get a typed outcome instead of a silent drop:
   a header block over [max_bytes] is [`Too_large] (431) and a socket
   that stalls past the receive deadline is [`Timed_out] (408) — both
   are counted as rejections by the caller. *)
let read_head ~max_bytes fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf > max_bytes then `Too_large
    else
      let contents = Buffer.contents buf in
      if header_end contents <> None then `Head contents
      else
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> if Buffer.length buf = 0 then `Empty else `Head (Buffer.contents buf)
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
          ->
            (* SO_RCVTIMEO fired mid-header: the peer is stalling. *)
            `Timed_out
  in
  go ()

let respond fd ~head_only { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (reason status) content_type (String.length body)
  in
  write_all fd (if head_only then head else head ^ body)

let handle_client routes deadline_s max_bytes rejected fd =
  let reject status msg =
    Option.iter Metrics.inc rejected;
    respond fd ~head_only:false (text ~status msg)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline_s;
      match read_head ~max_bytes fd with
      | `Empty -> ()
      | `Too_large ->
          reject 431 (Printf.sprintf "request header block exceeds %d bytes\n" max_bytes)
      | `Timed_out -> reject 408 "request header not received within the read deadline\n"
      | `Head raw -> (
          let line = match String.index_opt raw '\n' with
            | Some i -> String.sub raw 0 i
            | None -> raw
          in
          match parse_request line with
          | Error msg -> reject 400 (msg ^ "\n")
          | Ok (meth, path) when meth = "GET" || meth = "HEAD" -> (
              let head_only = meth = "HEAD" in
              match List.assoc_opt path routes with
              | None -> respond fd ~head_only (text ~status:404 "not found\n")
              | Some handler ->
                  let resp =
                    try handler ()
                    with e -> text ~status:500 (Printexc.to_string e ^ "\n")
                  in
                  respond fd ~head_only resp)
          | Ok (meth, _) ->
              respond fd ~head_only:false
                (text ~status:405 (Printf.sprintf "method %s not allowed\n" meth))))

let accept_loop sock running routes deadline_s max_bytes rejected () =
  while Atomic.get running do
    match Unix.select [ sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept sock with
        | fd, _ ->
            ignore
              (Thread.create
                 (fun () -> try handle_client routes deadline_s max_bytes rejected fd with _ -> ())
                 ())
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

let start ?(bind_addr = "0.0.0.0") ?(io_deadline_s = 10.)
    ?(max_request_bytes = default_max_request_bytes) ?registry ~port ~routes () =
  if io_deadline_s <= 0. then invalid_arg "Httpd.start: non-positive io_deadline_s";
  if max_request_bytes <= 0 then invalid_arg "Httpd.start: non-positive max_request_bytes";
  let rejected =
    Option.map
      (fun r ->
        Metrics.counter r ~help:"HTTP requests rejected (malformed, oversized, or stalled)"
          "fmc_obs_http_rejected_total")
      registry
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string bind_addr, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let running = Atomic.make true in
  let thread =
    Thread.create (accept_loop sock running routes io_deadline_s max_request_bytes rejected) ()
  in
  { sock; port; running; thread }

let port t = t.port

let stop t =
  if Atomic.exchange t.running false then begin
    Thread.join t.thread;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* client *)

let get ?(deadline_s = 10.) ~host ~port ~path () =
  let ( let* ) = Result.bind in
  let* addr =
    match Unix.inet_addr_of_string host with
    | a -> Ok a
    | exception Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> Ok a
        | _ -> Error (Printf.sprintf "cannot resolve %s" host)
        | exception Unix.Unix_error _ -> Error (Printf.sprintf "cannot resolve %s" host))
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.setsockopt_float sock Unix.SO_RCVTIMEO deadline_s;
        Unix.setsockopt_float sock Unix.SO_SNDTIMEO deadline_s;
        Unix.connect sock (Unix.ADDR_INET (addr, port));
        write_all sock
          (Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\nConnection: close\r\n\r\n" path host);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 8192 in
        let rec drain () =
          match Unix.read sock chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              if Buffer.length buf < 64 * 1024 * 1024 then drain ()
        in
        drain ();
        let raw = Buffer.contents buf in
        let* code =
          match String.index_opt raw '\n' with
          | None -> Error "empty reply"
          | Some i -> (
              match String.split_on_char ' ' (String.trim (String.sub raw 0 i)) with
              | proto :: code :: _
                when String.length proto >= 5 && String.sub proto 0 5 = "HTTP/" -> (
                  match int_of_string_opt code with
                  | Some c -> Ok c
                  | None -> Error (Printf.sprintf "bad status %S" code))
              | _ -> Error (Printf.sprintf "bad status line %S" (String.sub raw 0 i)))
        in
        let body =
          match header_end raw with
          | Some i -> String.sub raw i (String.length raw - i)
          | None -> ""
        in
        Ok (code, body)
      with
      | Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | Failure msg -> Error msg)
