(* perfbench: host-time benchmark of the simulator.

     dune exec perfbench/main.exe -- --workload fault_sweep --seed 1 \
       --seconds 10 --trace 0

   --trace 0 measures the end-to-end metrics with every observer off.
   --trace 1 measures the per-layer metrics: each op runs twice, once
   bare and once with spans, the engine profiler and a metrics registry
   attached, which also gives the tracing overhead.  The last stdout
   line is the JSON result; the lines before it are the human tables. *)

open Perfbench

let start_ns = Harness.now_ns ()

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: fault_sweep coherence_crash campus_capacity boot_storm";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg r v = match int_of_string_opt v with Some n -> r := Some n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> int_arg seed v; go rest
    | "--seconds" :: v :: rest -> int_arg seconds v; go rest
    | "--trace" :: v :: rest -> int_arg trace v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace
    when seconds >= 1 && (trace = 0 || trace = 1) -> (
      match Workloads.find name with
      | Some w -> (w, seed, float_of_int seconds, trace = 1)
      | None -> usage ())
  | _ -> usage ()

let setups = 9

(* Set up [setups] times and keep the last instance; the first set-up is
   timed from process start.  Returns the median set-up time, the
   instance, and whether every set-up's reference probe matched the
   recorded digest. *)
let set_up (w : Workloads.t) ~seed =
  let rec go k times ref_ok inst =
    if k = setups then (Harness.median_of times, Option.get inst, ref_ok)
    else begin
      let t0 = if k = 0 then start_ns else Harness.now_ns () in
      let inst = w.setup ~seed in
      let dt = float_of_int (Harness.now_ns () - t0) *. 1e-9 in
      go (k + 1) (dt :: times) (ref_ok && inst.reference = w.expected) (Some inst)
    end
  in
  go 0 [] true None

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %16.6f %s\n" n v u) rows

let report_common (w : Workloads.t) ~seed ~ref_ok (inst : Workloads.instance)
    (r : Harness.loop_result) =
  Printf.printf "workload %s seed %d: %d ops, %d failed (failed_op_ratio %.6f)\n" w.name
    seed r.attempted r.failed (Harness.failed_ratio r);
  Printf.printf "results digest %016x over %d ops; reference probe %016x, recorded %016x: %s\n"
    r.digest r.attempted inst.reference w.expected
    (if ref_ok then "match" else "MISMATCH")

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let untraced (w : Workloads.t) ~seed ~seconds =
  let setup_s, inst, ref_ok = set_up w ~seed in
  let r = Harness.loop ~seconds inst.op in
  let n = float_of_int r.attempted in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ops_per_s", n /. r.op_s);
      ("op_ms_p50", Harness.percentile ~q:0.5 r.op_ms);
      ("op_ms_p90", Harness.percentile ~q:0.9 r.op_ms);
      ("alloc_mb_per_op", mb_of_words r.words /. n);
      ("peak_heap_mb", mb_of_words (float_of_int r.top_heap_words));
    ]
  in
  report_common w ~seed ~ref_ok inst r;
  let metrics =
    List.map
      (fun (m : Catalog.e2e) ->
        { Harness.name = m.name; unit_ = m.unit_; value = List.assoc m.name e2e })
      Catalog.end_to_end
  in
  print_table
    (Printf.sprintf "end-to-end (host time, tracing off; p90 has %d samples beyond it)"
       (Harness.samples_beyond ~q:0.9 r.attempted))
    (List.map (fun (m : Harness.metric) -> (m.name, m.value, m.unit_)) metrics
    @ [ (fst Catalog.failed_op_ratio, Harness.failed_ratio r, snd Catalog.failed_op_ratio) ]);
  Printf.printf "calibration_ns_per_iter %.4f\n" (Harness.calibrate ());
  print_endline
    (Harness.result_line ~correct:(ref_ok && r.failed = 0) ~attempted:r.attempted
       ~failed:r.failed metrics)

(* Sum a counter over every host of a metrics registry; for a histogram,
   its (sum, count). *)
let registry_sum json name =
  match json with
  | Vobs.Json.Obj hosts ->
      List.fold_left
        (fun (s, c) (_, h) ->
          match Vobs.Json.member name h with
          | Some (Vobs.Json.Int v) -> (s +. float_of_int v, c)
          | Some (Vobs.Json.Obj _ as hist) -> (
              match (Vobs.Json.member "sum" hist, Vobs.Json.member "count" hist) with
              | Some (Vobs.Json.Float fs), Some (Vobs.Json.Int n) -> (s +. fs, c + n)
              | _ -> (s, c))
          | _ -> (s, c))
        (0.0, 0) hosts
  | _ -> (0.0, 0)

let traced (w : Workloads.t) ~seed ~seconds =
  Harness.tracing := true;
  let _, inst, ref_ok = set_up w ~seed in
  let enumerate = Harness.span_stats "vcheck.enumerate" in
  let enumerate_s =
    float_of_int enumerate.wall_ns *. 1e-9 /. float_of_int (max 1 enumerate.calls)
  in
  Harness.reset_spans ();
  Harness.tracing := false;
  let spawn_us, spawn_words = Workloads.spawn_probe () in
  let tb_us, tb_words = Workloads.testbed_probe () in
  Vsim.Profile.set_clock Harness.now_s;
  let prof = Vsim.Profile.create () and reg = Vobs.Metrics.create () in
  let engines = ref 0 in
  let hook e =
    incr engines;
    ignore (Vsim.Engine.enable_profiling ~profile:prof e);
    Vobs.Metrics.attach reg e
  in
  let bare_ns = ref 0 and traced_ns = ref 0 and agree = ref true in
  let minor = ref 0 and major = ref 0 in
  let op i =
    let t0 = Harness.now_ns () in
    let bare = inst.op i in
    let t1 = Harness.now_ns () in
    Harness.tracing := true;
    Vsim.Engine.set_create_hook (Some hook);
    let g0 = Gc.quick_stat () in
    let t2 = Harness.now_ns () in
    let obs =
      Fun.protect
        ~finally:(fun () ->
          Vsim.Engine.set_create_hook None;
          Harness.tracing := false)
        (fun () -> inst.op i)
    in
    let t3 = Harness.now_ns () in
    let g1 = Gc.quick_stat () in
    bare_ns := !bare_ns + (t1 - t0);
    traced_ns := !traced_ns + (t3 - t2);
    minor := !minor + (g1.minor_collections - g0.minor_collections);
    major := !major + (g1.major_collections - g0.major_collections);
    let fp = bare.fingerprint () in
    if fp <> obs.fingerprint () then agree := false;
    { Harness.ok = bare.ok && obs.ok; fingerprint = (fun () -> fp) }
  in
  let r = Harness.loop ~seconds op in
  report_common w ~seed ~ref_ok inst r;
  let n = float_of_int r.attempted in
  let per_op x = x /. n in
  let traced_s = float_of_int !traced_ns *. 1e-9 in
  let entries = Vsim.Profile.entries prof in
  (* Fires and callback wall of the event kinds [pred] selects. *)
  let kind pred =
    List.fold_left
      (fun (f, w) (k, (e : Vsim.Profile.entry)) ->
        if pred k then (f +. float_of_int e.fires, w +. e.wall_s) else (f, w))
      (0.0, 0.0) entries
  in
  let kind_fires pred = fst (kind pred) and kind_wall pred = snd (kind pred) in
  let is k = fun k' -> k' = k in
  let is_rto k = String.length k > 11 && String.sub k 0 11 = "kernel.rto_" in
  let json = Vobs.Metrics.to_json reg in
  let reg_count name = fst (registry_sum json name) in
  let events = float_of_int (Vsim.Profile.events prof) in
  let callbacks = Vsim.Profile.wall_total_s prof in
  let judge = Harness.span_stats "vcheck.judge" and run = Harness.span_stats "vcheck.run" in
  let judge_s = float_of_int judge.wall_ns *. 1e-9 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let tx = reg_count "packets_tx" and retx = reg_count "retransmits" in
  let hits = reg_count "cache_hits" and misses = reg_count "cache_misses" in
  let qwait_sum, qwait_n = registry_sum json "disk_queue_wait_ns" in
  let per_call (s : Harness.span) scale =
    ratio (float_of_int s.wall_ns *. scale) (float_of_int s.calls)
  in
  let values =
    [
      ("vsim.events_per_op", per_op events);
      ("vsim.ns_per_event", ratio (callbacks *. 1e9) events);
      ( "vsim.proc_s_per_op",
        per_op (kind_wall (fun k -> k = "proc.start" || k = "proc.sleep")) );
      ("vsim.engines_per_op", per_op (float_of_int !engines));
      ("vsim.callback_share", ratio callbacks traced_s);
      ("vsim.untracked_share", ratio (traced_s -. callbacks -. judge_s) traced_s);
      ("vhw.cpu_grants_per_op", per_op (kind_fires (is "cpu.grant")));
      ("vhw.cpu_grant_s_per_op", per_op (kind_wall (is "cpu.grant")));
      ("vnet.deliver_fires_per_op", per_op (kind_fires (is "net.deliver")));
      ("vnet.deliver_s_per_op", per_op (kind_wall (is "net.deliver")));
      ("vnet.tx_done_s_per_op", per_op (kind_wall (is "net.tx_done")));
      ("vnet.packet_drops_per_op", per_op (reg_count "packet_drops"));
      ("vnet.collisions_per_op", per_op (reg_count "collisions"));
      ("vnet.nic_busy_waits_per_op", per_op (reg_count "nic_busy_waits"));
      ("vnet.gw_forward_s_per_op", per_op (kind_wall (is "net.gw_forward")));
      ("vnet.gw_forwarded_per_op", per_op (Harness.counted "vnet.gw_forwarded"));
      ( "vnet.gw_suppressed_ratio",
        ratio (Harness.counted "vnet.gw_suppressed") (Harness.counted "vnet.gw_received") );
      ("vnet.gw_queue_drops_per_op", per_op (Harness.counted "vnet.gw_queue_drops"));
      ("vkernel.packets_tx_per_op", per_op tx);
      ("vkernel.retransmits_per_op", per_op retx);
      ("vkernel.useful_tx_ratio", ratio (tx -. retx) tx);
      ("vkernel.rto_fires_per_op", per_op (kind_fires is_rto));
      ("vkernel.rto_s_per_op", per_op (kind_wall is_rto));
      ("vkernel.ipc_failures_per_op", per_op (reg_count "ipc_failures"));
      ("vkernel.spawn_us", spawn_us);
      ("vkernel.spawn_words", spawn_words);
      ("vfs.disk_ios_per_op", per_op (reg_count "disk_ios"));
      ("vfs.disk_complete_s_per_op", per_op (kind_wall (is "disk.complete")));
      ("vfs.disk_queue_wait_sim_ms", ratio (qwait_sum /. 1e6) (float_of_int qwait_n));
      ("vfs.fs_requests_per_op", per_op (reg_count "fs_requests"));
      ("vfs.cache_hit_rate", ratio hits (hits +. misses));
      ("vfs.cache_writebacks_per_op", per_op (reg_count "cache_writebacks"));
      ("vcheck.enumerate_s", enumerate_s);
      ("vcheck.run_ms_per_schedule", per_call run 1e-6);
      ("vcheck.judge_ms_per_schedule", per_call judge 1e-6);
      ("vcheck.judge_words_per_schedule", ratio judge.words (float_of_int judge.calls));
      ("vcheck.judge_share", ratio judge_s traced_s);
      ("vworkload.boot_rounds_per_op", per_op (Harness.counted "vworkload.boot_rounds"));
      ( "vworkload.boot_resent_pages_per_op",
        per_op (Harness.counted "vworkload.boot_resent_pages") );
      ( "vworkload.capacity_req_per_sim_s",
        per_op (Harness.counted "vworkload.capacity_req_per_sim_s") );
      ("vworkload.testbed_create_us", tb_us);
      ("vworkload.testbed_create_words", tb_words);
      ("gc.minor_collections_per_op", per_op (float_of_int !minor));
      ("gc.major_collections_per_op", per_op (float_of_int !major));
    ]
  in
  let all =
    List.map
      (fun (m : Catalog.layer) -> (m, List.assoc m.lname values))
      Catalog.per_layer
  in
  print_table "per-layer (traced run; * = printed here only, not in the result line)"
    (List.map
       (fun ((m : Catalog.layer), v) -> ((if m.in_json then "" else "*") ^ m.lname, v, m.lunit))
       all);
  let bare_s = float_of_int !bare_ns *. 1e-9 in
  Printf.printf
    "trace_overhead_ratio %.4f (traced %.3f s / untraced %.3f s over the same %d ops)\n"
    (ratio traced_s bare_s) traced_s bare_s r.attempted;
  Printf.printf "traced and untraced results %s\n" (if !agree then "agree" else "DIFFER");
  Printf.printf "calibration_ns_per_iter %.4f\n" (Harness.calibrate ());
  let metrics =
    List.filter_map
      (fun ((m : Catalog.layer), v) ->
        if m.in_json then Some { Harness.name = m.lname; unit_ = m.lunit; value = v } else None)
      all
  in
  print_endline
    (Harness.result_line ~correct:(ref_ok && !agree && r.failed = 0) ~attempted:r.attempted
       ~failed:r.failed metrics)

let () =
  let w, seed, seconds, trace = parse_args () in
  if trace then traced w ~seed ~seconds else untraced w ~seed ~seconds
