(* Self-tests of the benchmark's own rules: the percentile rule, metric
   names, failure counting, and agreement with BENCHMARK.json. *)

open Perfbench

let failures = ref 0

let check what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

let percentile_rule () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100 is 50" (Harness.percentile ~q:0.5 xs = 50.0);
  check "p90 of 1..100 is 90" (Harness.percentile ~q:0.9 xs = 90.0);
  check "p90 at the minimum op count leaves 10 samples beyond it"
    (Harness.samples_beyond ~q:0.9 Harness.min_ops >= 10);
  check "p90 of 7 samples is the largest" (Harness.rank ~q:0.9 7 = 7);
  check "one sample is every percentile" (Harness.percentile ~q:0.9 [| 3.0 |] = 3.0);
  check "median of an even list averages the middle pair"
    (Harness.median_of [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let names () =
  let all =
    List.map (fun (m : Catalog.e2e) -> m.name) Catalog.end_to_end
    @ List.map (fun (m : Catalog.layer) -> m.lname) Catalog.per_layer
    @ List.map (fun (w : Workloads.t) -> w.name) Workloads.all
    @ [ fst Catalog.failed_op_ratio ]
  in
  List.iter (fun n -> check ("valid name " ^ n) (Harness.valid_name n)) all;
  check "names are unique" (List.length (List.sort_uniq compare all) = List.length all);
  List.iter
    (fun n -> check (Printf.sprintf "invalid name %S rejected" n) (not (Harness.valid_name n)))
    [ ""; "a b"; "_x"; "x/y"; "ops:s"; String.make 65 'a' ]

let injected_failures () =
  let op i : Harness.outcome =
    if i = 7 then failwith "injected";
    { ok = i mod 5 <> 2; fingerprint = (fun () -> string_of_int i) }
  in
  let r = Harness.loop ~min_ops:20 ~seconds:0.0 op in
  check "loop runs at least min_ops" (r.attempted = 20);
  (* i mod 5 = 2 at 2, 7 (which also raises), 12, 17 *)
  check "failed and raising ops are counted" (r.failed = 4);
  check "failed_op_ratio" (Harness.failed_ratio r = 0.2);
  let line = Harness.result_line ~correct:false ~attempted:r.attempted ~failed:r.failed [] in
  match Vobs.Json.parse line with
  | Ok j ->
      check "result line carries failed"
        (Vobs.Json.member "failed" j = Some (Vobs.Json.Int 4))
  | Error e -> check ("result line parses: " ^ e) false

let better = function Catalog.Lower -> "lower" | Catalog.Higher -> "higher"

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match Vobs.Json.parse text with Ok j -> j | Error e -> failwith e in
  let list k = match Vobs.Json.member k j with Some (Vobs.Json.List l) -> l | _ -> [] in
  let str k o = match Vobs.Json.member k o with Some (Vobs.Json.Str s) -> s | _ -> "" in
  let num k o =
    match Vobs.Json.member k o with
    | Some (Vobs.Json.Float f) -> f
    | Some (Vobs.Json.Int i) -> float_of_int i
    | _ -> nan
  in
  check "BENCHMARK.json workloads are the listed ones"
    (List.map (str "name") (list "workloads")
    = List.filter_map
        (fun (w : Workloads.t) -> if w.listed then Some w.name else None)
        Workloads.all);
  check "BENCHMARK.json end_to_end matches the catalog"
    (List.map (fun o -> (str "name" o, str "unit" o, str "better" o, num "bound" o))
       (list "end_to_end")
    = List.map
        (fun (m : Catalog.e2e) -> (m.name, m.unit_, better m.better, m.bound))
        Catalog.end_to_end);
  check "BENCHMARK.json per_layer matches the catalog"
    (List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (list "per_layer")
    = List.filter_map
        (fun (m : Catalog.layer) ->
          if m.in_json then Some (m.lname, m.lunit, better m.lbetter) else None)
        Catalog.per_layer)

let () =
  percentile_rule ();
  names ();
  injected_failures ();
  benchmark_json ();
  if !failures > 0 then exit 1;
  print_endline "perfbench self-tests: ok"
