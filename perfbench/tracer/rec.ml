(* In-memory span recorder for the traced pass.

   One record per call into the program: name, enclosing span, start,
   duration and the minor-heap words allocated inside the call. Records
   live in preallocated arrays and are written out once, at the end, so
   recording allocates nothing and costs two clock reads per span. Self
   times, percentiles and the closure check are computed from the dump
   by perfbench/harness.py. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

type buf = {
  mutable len : int;
  mutable ids : int array;
  mutable parents : int array;
  mutable starts : int array;
  mutable durs : int array;
  mutable words : Float.Array.t;
}

let b =
  {
    len = 0;
    ids = Array.make 4096 0;
    parents = Array.make 4096 0;
    starts = Array.make 4096 0;
    durs = Array.make 4096 0;
    words = Float.Array.make 4096 0.;
  }

let grow () =
  let cap = 2 * Array.length b.ids in
  let ints a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  let floats a =
    let a' = Float.Array.make cap 0. in
    Float.Array.blit a 0 a' 0 b.len;
    a'
  in
  b.ids <- ints b.ids;
  b.parents <- ints b.parents;
  b.starts <- ints b.starts;
  b.durs <- ints b.durs;
  b.words <- floats b.words

let interned : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref [||]

let id_of name =
  match Hashtbl.find_opt interned name with
  | Some i -> i
  | None ->
      let i = Array.length !names in
      Hashtbl.add interned name i;
      names := Array.append !names [| name |];
      i

let open_spans = ref []

(* Spans nest: a span opened inside another records it as its parent,
   which is what self time is computed from. *)
let span name f =
  if b.len = Array.length b.ids then grow ();
  let slot = b.len in
  b.len <- slot + 1;
  b.ids.(slot) <- id_of name;
  b.parents.(slot) <- (match !open_spans with p :: _ -> p | [] -> -1);
  open_spans := slot :: !open_spans;
  let t0 = now_ns () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let t1 = now_ns () in
  open_spans := List.tl !open_spans;
  b.starts.(slot) <- t0;
  b.durs.(slot) <- t1 - t0;
  Float.Array.set b.words slot (w1 -. w0);
  r

(* A position in the record buffer. *)
let mark () = b.len

(* Drop the records made since [mark]; the spans must be closed. *)
let truncate mark = b.len <- mark

(* Minor words allocated inside the top-level spans recorded since
   [since]: the program's own allocation, not the recorder's. *)
let top_level_words ~since =
  let w = ref 0. in
  for i = since to b.len - 1 do
    if b.parents.(i) < 0 then w := !w +. Float.Array.get b.words i
  done;
  !w

(* One line per span: "span <slot> <parent> <name> <start_us> <dur_us>". *)
let dump oc =
  for i = 0 to b.len - 1 do
    Printf.fprintf oc "span %d %d %s %.3f %.3f\n" i b.parents.(i) !names.(b.ids.(i))
      (float_of_int b.starts.(i) /. 1e3)
      (float_of_int b.durs.(i) /. 1e3)
  done
