(* The vcheck protocol checker: schedule language, enumeration, the
   scripted workload's invariants, and the shrinker. *)

module Schedule = Vcheck.Schedule
module Checker = Vcheck.Checker
module Workload = Vcheck.Workload
module Fault = Vnet.Fault

let schedule = Alcotest.testable Schedule.pp ( = )

let test_baseline_clean () =
  let r = Workload.run () in
  Alcotest.(check bool) "completed" true r.Workload.completed;
  Alcotest.(check int) "all ops ran" Workload.op_count
    (List.length r.Workload.ops);
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun (v : Checker.violation) -> v.Checker.invariant)
       (Checker.violations_of r))

let test_baseline_deterministic () =
  let digest r = Format.asprintf "%a" Checker.pp_report r in
  Alcotest.(check string) "two runs, one digest"
    (digest (Workload.run ()))
    (digest (Workload.run ()))

let test_depth1_drop_sweep_clean () =
  match Checker.sweep ~depth:1 ~actions:[ Fault.Drop ] Checker.fault with
  | Error _ -> Alcotest.fail "baseline violated"
  | Ok res ->
      Alcotest.(check bool) "covered every frame" true
        (res.Checker.schedules_run = res.Checker.baseline_frames);
      Alcotest.(check bool) "no violation found" true
        (res.Checker.failure = None)

let test_schedule_round_trip () =
  let s =
    Schedule.
      [
        { frame = 3; action = Net Fault.Drop };
        { frame = 7; action = Net Fault.Duplicate };
        { frame = 9; action = Net (Fault.Delay (Vsim.Time.ms 15)) };
        { frame = 12; action = Net Fault.Reorder };
      ]
  in
  match Schedule.of_string (Schedule.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok s' -> Alcotest.check schedule "round trip" s s'

let test_schedule_parse_errors () =
  let bad =
    [
      "drop3"; "drop@0"; "explode@4"; "delay@2"; "delay@2+0us"; "crash@0";
      "crash@"; "crash@x"; "restart@2"; "restart@2+0us"; "restart@2+xus";
      "restart@0+50000us";
    ]
  in
  List.iter
    (fun str ->
      match Schedule.of_string str with
      | Ok _ -> Alcotest.failf "%S parsed" str
      | Error _ -> ())
    bad

let test_crash_schedule_round_trip () =
  let s =
    Schedule.
      [
        { frame = 2; action = Net Fault.Drop };
        { frame = 4; action = Crash };
        { frame = 9; action = Restart (Vsim.Time.ms 50) };
      ]
  in
  Alcotest.(check string) "printed form" "drop@2 crash@4 restart@9+50000us"
    (Schedule.to_string s);
  match Schedule.of_string (Schedule.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok s' -> Alcotest.check schedule "round trip" s s'

let test_crash_enumeration_shape () =
  let actions = Fault.[ Drop; Duplicate ] in
  let all =
    Schedule.enumerate_crash ~depth:2 ~frames:4 ~actions () |> List.of_seq
  in
  (* 4 crash points, then 4 x 3 other frames x 2 actions pairs. *)
  Alcotest.(check int) "count" (4 + (4 * 3 * 2)) (List.length all);
  let keys = List.map Schedule.to_string all in
  Alcotest.(check int) "duplicate-free"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun s ->
      Alcotest.(check int) "exactly one crash entry" 1
        (List.length
           (List.filter
              (fun e ->
                match e.Schedule.action with
                | Schedule.Restart _ | Schedule.Crash -> true
                | Schedule.Net _ -> false)
              s));
      match s with
      | [ a; b ] ->
          Alcotest.(check bool) "pairs strictly increasing" true
            (a.Schedule.frame < b.Schedule.frame)
      | _ -> ())
    all

let test_repro_file_round_trip () =
  let s =
    Schedule.
      [ { frame = 13; action = Net Fault.Drop }; { frame = 21; action = Net Fault.Drop } ]
  in
  let vs = [ { Checker.invariant = "op-result"; detail = "move-from failed" } ] in
  match Schedule.of_string (Checker.repro_file_contents s vs) with
  | Error e -> Alcotest.fail e
  | Ok s' -> Alcotest.check schedule "comments stripped, schedule kept" s s'

let test_enumeration_shape () =
  let actions = Fault.[ Drop; Duplicate ] in
  let all =
    Schedule.enumerate ~depth:2 ~frames:5 ~actions |> List.of_seq
  in
  (* 5 frames x 2 actions singletons, then C(5,2) x 2^2 pairs. *)
  Alcotest.(check int) "count" ((5 * 2) + (10 * 4)) (List.length all);
  let keys = List.map Schedule.to_string all in
  Alcotest.(check int) "duplicate-free"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (function
      | [ a; b ] ->
          Alcotest.(check bool) "pairs strictly increasing" true
            (a.Schedule.frame < b.Schedule.frame)
      | _ -> ())
    all

let test_shrinker_minimizes () =
  (* Synthetic oracle: a violation iff the schedule still contains both
     drop@5 and dup@9.  The shrinker must strip the two bystanders. *)
  let culprits =
    Schedule.
      [ { frame = 5; action = Net Fault.Drop }; { frame = 9; action = Net Fault.Duplicate } ]
  in
  let runs = ref 0 in
  let run s =
    incr runs;
    if List.for_all (fun c -> List.mem c s) culprits then
      [ { Checker.invariant = "synthetic"; detail = "both culprits present" } ]
    else []
  in
  let noisy =
    Schedule.
      [
        { frame = 2; action = Net Fault.Reorder };
        { frame = 5; action = Net Fault.Drop };
        { frame = 7; action = Net (Fault.Delay 1000) };
        { frame = 9; action = Net Fault.Duplicate };
      ]
  in
  Alcotest.check schedule "minimal reproducer" culprits
    (Checker.shrink ~run noisy);
  Alcotest.(check bool) "bounded work" true (!runs <= 20)

let test_injected_violation_caught () =
  (* Starve the run of events: the termination invariant must fire, and a
     schedule replayed under the same budget reports it identically. *)
  let vs = Checker.run_schedule ~max_events:100 Checker.fault [] in
  Alcotest.(check bool) "termination violation" true
    (List.exists
       (fun (v : Checker.violation) -> v.Checker.invariant = "termination")
       vs);
  match Checker.sweep ~max_events:100 Checker.fault with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sweep accepted a non-terminating baseline"

(* Unsupported depths and limits are rejected with a typed error before
   anything is enumerated; the sweep itself refuses them up front. *)
let test_sweep_rejects_bad_params () =
  let rejected sc ~depth ~limit =
    Result.is_error (Checker.validate sc ~depth ~limit)
  in
  Alcotest.(check bool) "depth 0" true
    (rejected Checker.fault ~depth:0 ~limit:600);
  Alcotest.(check bool) "failover depth 3" true
    (rejected Checker.failover ~depth:3 ~limit:600);
  Alcotest.(check bool) "limit 0" true
    (rejected Checker.crash ~depth:2 ~limit:0);
  List.iter
    (fun (_, sc) ->
      List.iter
        (fun depth ->
          Alcotest.(check bool)
            (Printf.sprintf "%s accepts depth %d" (Vcheck.Scenario.name sc)
               depth)
            false
            (rejected sc ~depth ~limit:1))
        (Vcheck.Scenario.depths sc))
    Checker.modes;
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "sweep refuses limit 0" true
    (raises (fun () -> Checker.sweep ~limit:0 Checker.fault));
  Alcotest.(check bool) "sweep refuses depth 3" true
    (raises (fun () -> Checker.sweep ~depth:3 ~limit:1 Checker.failover))

(* Every declared depth is one the scenario's enumerator produces. *)
let test_declared_depths_enumerate () =
  List.iter
    (fun (_, Vcheck.Scenario.T s) ->
      List.iter
        (fun depth ->
          Alcotest.(check bool)
            (Printf.sprintf "%s depth %d" s.name depth)
            true
            (Seq.length
               (s.enumerate ~depth ~frames:3 ~actions:Schedule.default_actions)
            > 0))
        s.depths)
    Checker.modes

(* Each accepted flag combination names its own registry entry;
   --failover absorbs --crash, and any other mix is a conflict. *)
let test_registry_resolves_modes () =
  let name flags =
    match Checker.resolve flags with
    | Ok sc -> Vcheck.Scenario.name sc
    | Error e -> Alcotest.fail e
  in
  let accepted =
    [
      [];
      [ "--crash" ];
      [ "--shared" ];
      [ "--shared"; "--crash" ];
      [ "--inet" ];
      [ "--crash"; "--inet" ];
      [ "--failover" ];
    ]
  in
  let names = List.map name accepted in
  Alcotest.(check int) "seven distinct entries" 7
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "one per registry mode"
    (List.map (fun (_, sc) -> Vcheck.Scenario.name sc) Checker.modes)
    names;
  Alcotest.(check string) "--failover --crash" "failover"
    (name [ "--failover"; "--crash" ]);
  List.iter
    (fun flags ->
      Alcotest.(check bool) (String.concat " " flags) true
        (Result.is_error (Checker.resolve flags)))
    [
      [ "--shared"; "--inet" ];
      [ "--failover"; "--shared" ];
      [ "--inet"; "--failover"; "--crash" ];
    ]

let suite =
  [
    Alcotest.test_case "baseline clean" `Quick test_baseline_clean;
    Alcotest.test_case "baseline deterministic" `Quick
      test_baseline_deterministic;
    Alcotest.test_case "depth-1 drop sweep clean" `Slow
      test_depth1_drop_sweep_clean;
    Alcotest.test_case "schedule round trip" `Quick test_schedule_round_trip;
    Alcotest.test_case "schedule parse errors" `Quick
      test_schedule_parse_errors;
    Alcotest.test_case "crash schedule round trip" `Quick
      test_crash_schedule_round_trip;
    Alcotest.test_case "crash enumeration shape" `Quick
      test_crash_enumeration_shape;
    Alcotest.test_case "repro file round trip" `Quick
      test_repro_file_round_trip;
    Alcotest.test_case "enumeration shape" `Quick test_enumeration_shape;
    Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
    Alcotest.test_case "injected violation caught" `Quick
      test_injected_violation_caught;
    Alcotest.test_case "sweep rejects bad depth and limit" `Quick
      test_sweep_rejects_bad_params;
    Alcotest.test_case "declared depths enumerate" `Quick
      test_declared_depths_enumerate;
    Alcotest.test_case "registry resolves each mode" `Quick
      test_registry_resolves_modes;
  ]
