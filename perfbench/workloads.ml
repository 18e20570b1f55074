(* The four workloads.  Each is a closed loop over one public entry point
   of the simulator; the benchmark generates every input (schedule order,
   engine seeds) from the workload seed and hands the program nothing
   else.  See NOTES.md for why each was chosen. *)

open Vcheck

type instance = {
  op : int -> Harness.outcome;
  reference : int;  (** digest of the fixed reference probe *)
}

type t = {
  name : string;
  listed : bool;  (** listed in BENCHMARK.json *)
  expected : int;  (** reference digest recorded at the defining commit *)
  setup : seed:int -> instance;
}

(* splitmix-style mixing: op i's engine seed from the workload seed. *)
let derive seed i =
  let x = ref ((seed * 0x1e3779b97f4a7c15) + (i * 0x3f58476d1ce4e5b9)) in
  x := (!x lxor (!x lsr 31)) * 0x14d049bb133111eb;
  x := !x lxor (!x lsr 29);
  Int64.of_int (!x land 0x3fffffffffff)

let permutation ~seed n =
  let st = Random.State.make [| seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let probe_digest f inputs =
  List.fold_left
    (fun h x -> Harness.fnv_string h ((f x : Harness.outcome).fingerprint ()))
    Harness.fnv_offset inputs

(* Every [n / k]-th index: a reference probe spread over the whole
   enumeration. *)
let spread ~k n = List.init k (fun j -> j * n / k)

(* A sweep: enumerate once, then op i runs schedule perm.(i mod n). *)
let sweep ~baseline ~enumerate ~run ~judge ~render ~seed =
  let frames =
    let r = run [] in
    if judge r <> [] then failwith "unfaulted baseline violates";
    baseline r
  in
  let scheds =
    Harness.span "vcheck.enumerate" (fun () -> Array.of_seq (enumerate ~frames))
  in
  let n = Array.length scheds in
  let one s : Harness.outcome =
    let r = Harness.span "vcheck.run" (fun () -> run s) in
    let vs = Harness.span "vcheck.judge" (fun () -> judge r) in
    {
      ok = vs = [];
      fingerprint =
        (fun () -> Schedule.to_string s ^ "\n" ^ render r ^ string_of_int (List.length vs));
    }
  in
  let reference = probe_digest (fun j -> one scheds.(j)) (spread ~k:32 n) in
  let perm = permutation ~seed n in
  { op = (fun i -> one scheds.(perm.(i mod n))); reference }

let fault_sweep =
  {
    name = "fault_sweep";
    listed = true;
    expected = 0x08879d4c9b5bc62f;
    setup =
      sweep
        ~baseline:(fun r -> r.Workload.frames)
        ~enumerate:(fun ~frames ->
          Schedule.enumerate ~depth:2 ~frames ~actions:Schedule.default_actions)
        ~run:(fun s -> Workload.run ~fault:(Schedule.to_fault s) ())
        ~judge:Checker.violations_of
        ~render:(Format.asprintf "%a" Checker.pp_report);
  }

let coherence_crash =
  {
    name = "coherence_crash";
    listed = true;
    expected = 0x328356a5a1bd1a74;
    setup =
      sweep
        ~baseline:(fun r -> r.Shared_workload.frames)
        ~enumerate:(fun ~frames -> Schedule.enumerate_crash ~depth:2 ~frames ())
        ~run:(fun s -> Shared_workload.run ~fault:(Schedule.to_fault s) ())
        ~judge:Checker.shared_violations_of
        ~render:(Format.asprintf "%a" Checker.pp_shared_report);
  }

(* Section 7 capacity: 30 clients, 4-worker server, 20 simulated s. *)
let capacity_clients = 30
let capacity_think_s = 0.320

(* Little's law for the closed loop, X = N / (Z + R), held to this
   relative tolerance.  The rig measures X from the first to the last
   post-warm-up completion, a window that runs past the 20 s horizon
   while clients drain, so X reads low: over 1000 derived seeds
   X (Z + R) / N - 1 ranged from -11.2% to +1.8%, mean -3.8%. *)
let little_tolerance = 0.15

let capacity_ok (x, mean_ms, cpu, net) =
  let predicted = float_of_int capacity_clients /. (capacity_think_s +. (mean_ms /. 1000.0)) in
  let in01 u = u >= 0.0 && u <= 1.0 in
  in01 cpu && in01 net && x > 0.0
  && Float.abs ((x /. predicted) -. 1.0) <= little_tolerance

let campus_capacity =
  let one seed : Harness.outcome =
    let ((x, _, _, _) as r) =
      Vworkload.Rigs.capacity ~duration:(Vsim.Time.sec 20)
        ~think_mean:(Vsim.Time.of_float_ms (capacity_think_s *. 1000.0))
        ~workers:4 ~seed ~clients:capacity_clients ()
    in
    Harness.count "vworkload.capacity_req_per_sim_s" x;
    {
      ok = capacity_ok r;
      fingerprint =
        (fun () ->
          let x, m, c, n = r in
          Printf.sprintf "%Ld %h %h %h %h" seed x m c n);
    }
  in
  {
    name = "campus_capacity";
    listed = true;
    expected = 0x210fbbdb413d4c85;
    setup =
      (fun ~seed ->
        let reference = probe_digest (fun s -> one (Int64.of_int s)) [ 1; 2 ] in
        { op = (fun i -> one (derive seed i)); reference });
  }

let boot_clients = 200

let boot_storm =
  let one seed : Harness.outcome =
    let r =
      Vworkload.Boot.run ~seed
        ~segments:(Vworkload.Boot.default_segments ~clients:boot_clients)
        ()
    in
    let g = r.Vworkload.Boot.gateway in
    Harness.count "vworkload.boot_rounds" (float_of_int r.rounds);
    Harness.count "vworkload.boot_resent_pages" (float_of_int r.resent_pages);
    Harness.count "vnet.gw_forwarded" (float_of_int (g.forwarded + g.rebroadcast));
    Harness.count "vnet.gw_received" (float_of_int g.received);
    Harness.count "vnet.gw_suppressed" (float_of_int g.suppressed);
    Harness.count "vnet.gw_queue_drops" (float_of_int g.queue_drops);
    {
      ok = r.completed;
      fingerprint =
        (fun () ->
          Printf.sprintf "%Ld %b %d %d %d %d %d %d %d %d %d %d %d %d %d %d" seed
            r.completed r.rounds r.joins r.statuses r.resent_pages r.elapsed_ns
            r.server_cpu_ns r.wire_bytes r.events
            (Array.fold_left ( + ) 0 r.per_client_pages)
            g.received g.forwarded g.rebroadcast g.suppressed g.queue_drops);
    }
  in
  {
    name = "boot_storm";
    listed = false;
    expected = 0x2a288b33734a4ee3;
    setup =
      (fun ~seed ->
        let reference =
          probe_digest (fun s -> one (Int64.of_int s)) [ 1; 2; 3; 4; 5; 6 ]
        in
        { op = (fun i -> one (derive seed i)); reference });
  }

let all = [ fault_sweep; coherence_crash; campus_capacity; boot_storm ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Set-up probes timed from outside: one kernel process spawn under the
   default config, and the checker's 3-host testbed. *)
let probe ~reps f =
  let times = ref [] and words = ref 0.0 in
  for _ = 1 to reps do
    let w0 = Harness.alloc_words () and t0 = Harness.now_ns () in
    ignore (Sys.opaque_identity (f ()));
    times := float_of_int (Harness.now_ns () - t0) /. 1000.0 :: !times;
    words := !words +. Harness.words_since w0
  done;
  (Harness.median_of !times, !words /. float_of_int reps)

let spawn_probe () =
  let tb = Vworkload.Testbed.create ~hosts:1 () in
  let k = (Vworkload.Testbed.host tb 1).Vworkload.Testbed.kernel in
  probe ~reps:64 (fun () -> Vkernel.Kernel.spawn k (fun _ -> ()))

let testbed_probe () =
  probe ~reps:64 (fun () ->
      Vworkload.Testbed.create ~hosts:3 ~kernel_config:Workload.fast_config ())
