(* Byte-level transport for the distributed campaign service: address
   parsing/listening/connecting plus the CRC-protected length-prefixed
   frame codec. Everything above this layer deals in (tag, payload)
   pairs; everything below is Unix.

   Failure taxonomy (all typed, nothing escapes as a bare Unix error
   from the frame codec's own checks):
     Closed          — peer EOF (mid-frame counts)
     Protocol_error  — the bytes violate the framing: bad length word,
                       CRC mismatch, short frame
     Timeout         — a read/write deadline expired (SO_RCVTIMEO /
                       SO_SNDTIMEO on the socket) *)

module Crc32 = Fmc_prelude.Crc32

exception Closed
exception Protocol_error of string
exception Timeout

(* A peer severed mid-write (which the chaos proxy does on purpose and
   flaky networks do by accident) must surface as EPIPE — mapped to
   Closed below — not as a process-killing SIGPIPE. Linking this module
   implies owning sockets, so claiming the disposition here is safe. *)
let () =
  if Sys.os_type = "Unix" then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

(* v2 frame layout:

     [4-byte BE word = 4 + |payload|][1 tag byte][4-byte BE CRC32][payload]

   The leading word counts everything after the tag byte (checksum
   included), so a reader always consumes exactly the bytes the sender
   wrote — even when the checksum turns out wrong — and stream framing
   survives payload corruption. The CRC covers tag ++ payload.

   The cap is far above any legitimate message (the largest frames carry
   tally snapshots, tens of kilobytes) and exists so a corrupt or
   hostile length word cannot make us allocate gigabytes. *)
let max_frame = 64 * 1024 * 1024

type conn = {
  fd : Unix.file_descr;
  on_sent : int -> unit;
  on_recv : int -> unit;
}

let ignore_count (_ : int) = ()

let set_deadline fd s =
  if s > 0. then begin
    (* Unix sockets on some platforms reject these options; a transport
       without deadlines is degraded, not broken. *)
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s with Unix.Unix_error _ -> ()
  end

let conn ?(on_sent = ignore_count) ?(on_recv = ignore_count) ?(deadline_s = 0.) fd =
  set_deadline fd deadline_s;
  { fd; on_sent; on_recv }

let rec write_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)
  end

let rec read_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.read fd buf off len with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout
      | Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed
      | Unix.Unix_error (Unix.EINTR, _, _) -> -1
    in
    if n = 0 then raise Closed;
    if n < 0 then read_all fd buf off len else read_all fd buf (off + n) (len - n)
  end

let put_u32 buf off v = Bytes.set_int32_be buf off (Int32.of_int v)
let get_u32 buf off = Int32.to_int (Bytes.get_int32_be buf off) land 0xffffffff

let frame_crc ~tag payload = Crc32.extend (Crc32.string (String.make 1 tag)) payload

let write_frame t ~tag payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Wire.write_frame: oversized frame";
  let buf = Bytes.create (9 + len) in
  put_u32 buf 0 (4 + len);
  Bytes.set buf 4 tag;
  put_u32 buf 5 (frame_crc ~tag payload);
  Bytes.blit_string payload 0 buf 9 len;
  write_all t.fd buf 0 (Bytes.length buf);
  t.on_sent (Bytes.length buf)

let read_frame_raw t =
  let header = Bytes.create 5 in
  read_all t.fd header 0 5;
  let word = get_u32 header 0 in
  if word > max_frame + 4 then
    raise (Protocol_error (Printf.sprintf "frame length %d exceeds the %d-byte cap" word max_frame));
  let tag = Bytes.get header 4 in
  let body = Bytes.create word in
  read_all t.fd body 0 word;
  t.on_recv (5 + word);
  if word < 4 then
    (* Too short to carry a checksum: garbage. *)
    `Corrupt (tag, Bytes.unsafe_to_string body)
  else begin
    let claimed = get_u32 body 0 in
    let actual = Crc32.extend_sub (Crc32.string (String.make 1 tag)) body ~pos:4 ~len:(word - 4) in
    if claimed = actual then `Ok (tag, Bytes.sub_string body 4 (word - 4))
    else `Corrupt (tag, Bytes.unsafe_to_string body)
  end

let read_frame t =
  match read_frame_raw t with
  | `Ok (tag, payload) -> (tag, payload)
  | `Corrupt (tag, _) ->
      raise (Protocol_error (Printf.sprintf "frame checksum mismatch (tag %C)" tag))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* -- addresses ---------------------------------------------------------- *)

type addr = Tcp of string * int | Unix_path of string

let parse_addr s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad address %S: expected HOST:PORT or unix:PATH" s)
  | Some i ->
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      if scheme = "unix" then
        if rest = "" then Error "bad address: empty unix socket path"
        else Ok (Unix_path rest)
      else begin
        match int_of_string_opt rest with
        | Some port when port > 0 && port < 65536 -> Ok (Tcp (scheme, port))
        | _ -> Error (Printf.sprintf "bad address %S: invalid port %S" s rest)
      end

let addr_to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_path path -> "unix:" ^ path

let sockaddr_of = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      Unix.ADDR_INET (ip, port)

let listen addr =
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
  Unix.bind sock (sockaddr_of addr);
  Unix.listen sock 16;
  sock

let connect ?(attempts = 1) ?(delay_s = 0.5) addr =
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let rec go n =
    let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect sock (sockaddr_of addr) with
    | () -> sock
    | exception e ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if n >= attempts then raise e
        else begin
          Unix.sleepf delay_s;
          go (n + 1)
        end
  in
  go 1
