(* The workload-independent half of the benchmark: clock, percentile
   rule, metric names, outside-in spans, the closed op loop and the
   result line.  Nothing here knows about the simulator, so the
   self-tests can drive it with synthetic ops. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

(* Allocation since process start, in words: minor + major - promoted,
   so a block promoted from the minor heap is not counted twice.  The
   minor count comes from [Gc.minor_words], which includes the current
   minor heap; the one in [Gc.counters] only advances at collections. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* What one [alloc_words] call itself allocates, subtracted from every
   measured span so an empty span reads 0 words. *)
let probe_words =
  let w0 = alloc_words () in
  let w1 = alloc_words () in
  w1 -. w0

let words_since w0 = alloc_words () -. w0 -. probe_words

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentile rule: nearest rank.  The q-quantile of n sorted samples is
   the sample of 1-based rank ceil(q * n), so n - rank samples lie
   beyond it.  With the loop's minimum of 100 ops, p90 has at least 10
   samples beyond it. *)
let rank ~q n = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n -. 1e-9))))
let samples_beyond ~q n = n - rank ~q n

let percentile ~q sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  sorted.(rank ~q n - 1)

let min_ops = 100

(* Metric and workload names: what the result line and BENCHMARK.json
   accept. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* FNV-1a, truncated to OCaml's 63-bit ints: a digest of every
   simulated result a run produced, folded in op order. *)
let fnv_offset = 0x0bf29ce484222325
let fnv_prime = 0x100000001b3

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime land max_int) s;
  !h

(* Spans taken around the public library calls the benchmark makes.
   Off by default; the traced run turns them on.  Each named span
   accumulates calls, wall time and allocated words. *)
type span = { mutable calls : int; mutable wall_ns : int; mutable words : float }

let tracing = ref false
let spans : (string, span) Hashtbl.t = Hashtbl.create 16

let span_stats name =
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
      let s = { calls = 0; wall_ns = 0; words = 0.0 } in
      Hashtbl.replace spans name s;
      s

let span name f =
  if not !tracing then f ()
  else begin
    let s = span_stats name in
    let w0 = alloc_words () and t0 = now_ns () in
    let r = f () in
    s.wall_ns <- s.wall_ns + (now_ns () - t0);
    s.words <- s.words +. words_since w0;
    s.calls <- s.calls + 1;
    r
  end

(* Workload-level counts (gateway stats, boot rounds, ...), summed
   while tracing. *)
let counts : (string, float ref) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !tracing then
    match Hashtbl.find_opt counts name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace counts name (ref v)

let counted name = match Hashtbl.find_opt counts name with Some r -> !r | None -> 0.0

let reset_spans () =
  Hashtbl.reset spans;
  Hashtbl.reset counts

(* What one closed-loop op returns: [ok] is the op's check of its own
   output; [fingerprint] renders the simulated results for the digest
   and is called outside the op's timing. *)
type outcome = { ok : bool; fingerprint : unit -> string }

(* Per-op times are kept outside the OCaml heap, so neither the GC's
   marking work nor the heap high-water mark grows with the op count. *)
type samples = {
  mutable buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
}

let samples () = { buf = Bigarray.Array1.create Float64 C_layout 4096; len = 0 }

let push s x =
  let open Bigarray in
  if s.len = Array1.dim s.buf then begin
    let b = Array1.create Float64 C_layout (2 * s.len) in
    Array1.blit s.buf (Array1.sub b 0 s.len);
    s.buf <- b
  end;
  s.buf.{s.len} <- x;
  s.len <- s.len + 1

type loop_result = {
  attempted : int;
  failed : int;
  op_ms : float array;  (** per-op wall, sorted ascending *)
  op_s : float;  (** summed op wall *)
  words : float;  (** words allocated inside ops *)
  top_heap_words : int;  (** heap high-water mark when the loop ended *)
  digest : int;
}

(* Run ops 0, 1, 2, ... until [seconds] have passed and at least
   [min_ops] have run.  Only the op itself is timed and allocation-
   counted; rendering its fingerprint for the digest is not.  An op that
   raises counts as failed. *)
let loop ?(min_ops = min_ops) ~seconds (op : int -> outcome) =
  let times = samples () and failed = ref 0 and digest = ref fnv_offset in
  let op_ns = ref 0 and words = ref 0.0 in
  let t0 = now_s () in
  let rec go i =
    if i >= min_ops && now_s () -. t0 >= seconds then i
    else begin
      let w0 = alloc_words () and s = now_ns () in
      let r = try op i with _ -> { ok = false; fingerprint = (fun () -> "raised") } in
      let dt = now_ns () - s in
      words := !words +. words_since w0;
      op_ns := !op_ns + dt;
      push times (float_of_int dt *. 1e-6);
      if not r.ok then incr failed;
      digest := fnv_string !digest (r.fingerprint ());
      go (i + 1)
    end
  in
  let n = go 0 in
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let op_ms = Array.init n (fun i -> times.buf.{i}) in
  Array.sort compare op_ms;
  { attempted = n; failed = !failed; op_ms; op_s = float_of_int !op_ns *. 1e-9;
    words = !words; top_heap_words; digest = !digest }

let failed_ratio r =
  if r.attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int r.attempted

(* A fixed pure-OCaml loop (integer LCG + array stores): ns per
   iteration, printed beside the results so wall figures can be read
   against the machine that produced them. *)
let calibrate () =
  let a = Array.make 1024 0 in
  let iters = 4_000_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let x = ref 1 in
    let t0 = now_ns () in
    for i = 1 to iters do
      x := (!x * 1103515245 + 12345) land 0x3fffffff;
      a.(!x land 1023) <- i
    done;
    let ns = float_of_int (now_ns () - t0) /. float_of_int iters in
    if ns < !best then best := ns;
    ignore (Sys.opaque_identity a)
  done;
  !best

(* The result line.  Values keep all their digits. *)
type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0.0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
