(* Deterministic ids, never drawn from the campaign RNG substreams: the
   trace id hashes the campaign fingerprint alone, span ids add the shard
   index. A restarted service (same fingerprint) stamps the same ids,
   so traces stitch across restarts. MD5 ([Digest]) is fine here — this
   is an identifier, not a credential. *)

let hex_of ~len s = String.sub (Digest.to_hex (Digest.string s)) 0 len
let trace_id ~fingerprint = hex_of ~len:32 ("fmc-trace\x00" ^ fingerprint)

let span_id ~fingerprint ~shard =
  if shard < 0 then invalid_arg "Traceid.span_id: negative shard";
  hex_of ~len:16 (Printf.sprintf "fmc-span\x00%s\x00%d" fingerprint shard)

let is_hex s =
  s <> ""
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let valid_trace_id s = String.length s = 32 && is_hex s
let valid_span_id s = String.length s = 16 && is_hex s
