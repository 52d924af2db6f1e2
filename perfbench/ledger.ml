(* Benchmark-side spans around calls into the library: monotonic
   nanoseconds and allocated words (minor + direct-major, i.e.
   [Gc.allocated_bytes] in words) per call, kept as self cost net of
   nested spans and of the probes' own calibrated cost.

   Allocation counts minor and direct-major words, not minor words
   alone: arrays larger than [Max_young_wosize] (a query's size-N
   [visited] array) are allocated directly in the major heap and never
   show up in the minor count. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* The minor part comes from [Gc.minor_words], not from [Gc.counters]:
   on OCaml 5.1 the latter's minor count jumps by most of the minor heap
   at each minor collection, so a short span that straddles one would be
   charged for words nobody allocated.  Its major and promoted counts
   are continuous. *)
let words () =
  let _, pro, ma = Gc.counters () in
  int_of_float (Gc.minor_words () +. ma -. pro)

type layer = {
  name : string;
  mutable ns : int;  (** self time, probe cost removed *)
  mutable words : int;  (** self allocation, probe cost removed *)
  mutable calls : int;
}

let layer name = { name; ns = 0; words = 0; calls = 0 }

let reset l =
  l.ns <- 0;
  l.words <- 0;
  l.calls <- 0

(* Time and words the innermost open span has spent inside child spans,
   each child counted with its full footprint (its own probe cost
   included), so the parent's self cost excludes both. *)
let child_ns = ref 0
let child_words = ref 0

(* Calibrated probe cost: [inner_*] is what an empty span measures for
   itself, [outer_*] what it costs the enclosing code. *)
let inner_ns = ref 0
let outer_ns = ref 0
let inner_words = ref 0
let outer_words = ref 0
let spans = ref 0

let close l t0 w0 saved_ns saved_words =
  let t1 = now () in
  let w1 = words () in
  let dt = t1 - t0 and dw = w1 - w0 in
  l.ns <- l.ns + (dt - !inner_ns - !child_ns);
  l.words <- l.words + (dw - !inner_words - !child_words);
  l.calls <- l.calls + 1;
  incr spans;
  child_ns := saved_ns + dt - !inner_ns + !outer_ns;
  child_words := saved_words + dw - !inner_words + !outer_words

let span l f =
  let saved_ns = !child_ns and saved_words = !child_words in
  child_ns := 0;
  child_words := 0;
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  close l t0 w0 saved_ns saved_words;
  r

(* Closure-free forms for the per-message calls. *)
let span2 l f a b =
  let saved_ns = !child_ns and saved_words = !child_words in
  child_ns := 0;
  child_words := 0;
  let w0 = words () in
  let t0 = now () in
  let r = f a b in
  close l t0 w0 saved_ns saved_words;
  r

let span3 l f a b c =
  let saved_ns = !child_ns and saved_words = !child_words in
  child_ns := 0;
  child_words := 0;
  let w0 = words () in
  let t0 = now () in
  let r = f a b c in
  close l t0 w0 saved_ns saved_words;
  r

let median_int a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Measure the probe against itself: the median over many empty spans
   of what a span reports (inner) and of what it costs its caller
   (outer).  Word counts are exact; times are medians of batches. *)
let calibrate () =
  inner_ns := 0;
  outer_ns := 0;
  inner_words := 0;
  outer_words := 0;
  let l = layer "calibration" in
  let batch = 1000 in
  let inner = Array.make 51 0 and outer = Array.make 51 0 in
  let inner_w = Array.make 51 0 and outer_w = Array.make 51 0 in
  for k = 0 to 50 do
    reset l;
    child_ns := 0;
    child_words := 0;
    let w0 = words () in
    let t0 = now () in
    for _ = 1 to batch do
      span2 l (fun () () -> ()) () ()
    done;
    let t1 = now () in
    let w1 = words () in
    inner.(k) <- l.ns / batch;
    inner_w.(k) <- l.words / batch;
    outer.(k) <- (t1 - t0) / batch;
    outer_w.(k) <- (w1 - w0) / batch
  done;
  inner_ns := median_int inner;
  inner_words := median_int inner_w;
  outer_ns := median_int outer;
  outer_words := median_int outer_w;
  child_ns := 0;
  child_words := 0;
  spans := 0
