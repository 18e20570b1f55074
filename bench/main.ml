(* The benchmark harness: regenerates every table and measured claim of
   the paper's evaluation (Tables 4-1, 5-1, 5-2, 6-1, 6-2, 6-3 and the
   measured statements of Sections 5.4, 6.1, 7 and 8), plus baseline and
   ablation comparisons.  Every experiment also records its headline
   numbers as catalog cells (lib/obs/catalog.ml); the harness can write
   them out as a BENCH_*.json catalog and diff a fresh run against a
   committed baseline — the CI regression gate — and can rewrite the
   tables of EXPERIMENTS.md from the same rows.  See doc/BENCHMARKS.md.

   Usage:
     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- table_6_3    # a single experiment
     dune exec bench/main.exe -- all --json-out BENCH_2026-08-08.json
     dune exec bench/main.exe -- compare --baseline BENCH_2026-08-08.json \
         [--tolerance 0.5] [--wall-tolerance 50] [--json-out fresh.json]
     dune exec bench/main.exe -- doc EXPERIMENTS.md
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- all --domains 4   # fan grids across domains
     dune exec bench/main.exe -- --bechamel   # Bechamel timing of each
                                              # experiment harness *)

let experiments =
  [
    ("table_4_1", Experiments.table_4_1);
    ("table_5_1", Experiments.table_5_1);
    ("table_5_2", Experiments.table_5_2);
    ("section_5_4", Experiments.section_5_4);
    ("table_6_1", Experiments.table_6_1);
    ("section_6_1_segments", Experiments.section_6_1_segments);
    ("table_6_2", Experiments.table_6_2);
    ("section_6_crossover", Experiments.section_6_crossover);
    ("table_6_3", Experiments.table_6_3);
    ("section_7_capacity", Experiments.section_7_capacity);
    ("section_7_exec", Experiments.section_7_exec);
    ("section_7_multi_server", Experiments.section_7_multi_server);
    ("section_8_10mb", Experiments.section_8_10mb);
    ("cache_crossover", Experiments.cache_crossover);
    ("baseline_comparison", Experiments.baseline_comparison);
    ("ablations", Experiments.ablations);
    ("span_decomposition", Experiments.span_decomposition);
    ("loss_sweep", Experiments.loss_sweep);
    ("server_scaling", Experiments.server_scaling);
    ("check_sweep", Experiments.check_sweep);
    ("journal_overhead", Experiments.journal_overhead);
    ("lease_coherence", Experiments.lease_coherence);
    ("gateway_penalty", Experiments.gateway_penalty);
    ("boot_storm", Experiments.boot_storm);
    ("profile", Experiments.profile);
  ]

(* Run one experiment with a fresh metrics registry attached to every
   engine it creates on the main domain, then stamp a digest onto the
   catalog cells it recorded.  Engines created inside grid jobs are
   captured by per-job registries whichever domain the job runs on
   (Experiments.grid replaces the create hook for the job's duration)
   and reduced to per-job digests returned in grid order — so the
   stamped digest is a pure function of the experiment and seed,
   byte-identical for any --domains value.  Two runs of the same
   experiment at the same seed produce the same digest; a digest change
   flags that the run's full metric set shifted even where the headline
   numbers stayed inside tolerance. *)
let run_experiment (name, f) =
  let before = Report.cell_count () in
  ignore (Experiments.take_job_digests ());
  let reg = Vobs.Metrics.create () in
  Experiments.with_create_hook
    (Experiments.chained (Vobs.Metrics.attach reg))
    (fun () -> Report.run ~bench:name f);
  let digest =
    Vobs.Catalog.digest_string
      (String.concat "|"
         (Vobs.Json.to_string (Vobs.Metrics.to_json reg)
         :: Experiments.take_job_digests ()))
  in
  Report.stamp_digest ~since:before digest

let run_all () =
  Format.printf
    "Reproduction of: Cheriton & Zwaenepoel, \"The Distributed V Kernel \
     and its Performance for Diskless Workstations\" (SOSP 1983)@.";
  Format.printf
    "All times are simulated; every table prints sim (paper) pairs.@.";
  List.iter run_experiment experiments

let current_catalog () = Vobs.Catalog.of_cells (Report.cells ())

let save_catalog file =
  Vobs.Catalog.save file (current_catalog ());
  Format.eprintf "wrote %d catalog cells to %s@."
    (Report.cell_count ()) file

(* The baseline is loaded before any experiment runs, so a bad path
   fails at once. *)
let compare_cmd ~baseline ~tolerance ~wall_tolerance ~json_out =
  let base =
    match Vobs.Catalog.load baseline with
    | Ok base -> base
    | Error e ->
        Format.eprintf "cannot load baseline %s: %s@." baseline e;
        exit 2
  in
  run_all ();
  Option.iter save_catalog json_out;
  let report =
    Vobs.Catalog.compare ?tolerance_pct:tolerance
      ?wall_tolerance_pct:wall_tolerance ~baseline:base
      ~current:(current_catalog ()) ()
  in
  Format.printf "@.%a@." Vobs.Catalog.pp_report report;
  if not (Vobs.Catalog.report_ok report) then exit 1

(* Rewrite FILE in place: the body of each block from a line
   "<!-- bench:NAME -->" to the line "<!-- /bench:NAME -->" becomes the
   markdown form of the tables experiment NAME prints. *)
let doc_cmd file =
  let fail fmt =
    Format.kasprintf (fun s -> Format.eprintf "%s: %s@." file s; exit 2) fmt
  in
  let opening l = Scanf.sscanf_opt l "<!-- bench:%s -->%!" Fun.id in
  let rec rewrite acc = function
    | [] -> List.rev acc
    | l :: rest -> (
        match opening l with
        | None -> rewrite (l :: acc) rest
        | Some name ->
            let close = "<!-- /bench:" ^ name ^ " -->" in
            let rec after_close = function
              | [] -> fail "%s is never closed" l
              | l :: rest -> if l = close then rest else after_close rest
            in
            let f =
              match List.assoc_opt name experiments with
              | Some f -> f
              | None -> fail "unknown experiment %S" name
            in
            let tables = Report.tables (fun () -> run_experiment (name, f)) in
            let block = l ^ "\n\n" ^ String.concat "\n" tables ^ "\n" ^ close in
            rewrite (block :: acc) (after_close rest))
  in
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin file In_channel.input_all)
  in
  let out = String.concat "\n" (rewrite [] lines) in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc out)

(* One Bechamel test per table: measures the wall-clock cost of each
   experiment harness itself (the simulator's own performance). *)
let bechamel () =
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"experiments"
      (List.map
         (fun (name, f) ->
           Test.make ~name
             (Staged.stage (fun () ->
                  Report.quietly (fun () -> Report.run ~bench:name f))))
         experiments)
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:10 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  Format.printf "@.Bechamel: wall-clock cost of each experiment harness@.@.";
  let est ols =
    match Analyze.OLS.estimates ols with
    | Some (e :: _) -> Printf.sprintf "%.1f ms" (e /. 1e6)
    | Some [] | None -> "n/a"
  in
  Report.table ~header:[ "experiment"; "time/run" ]
    (Hashtbl.fold (fun name ols rows -> (name, est ols) :: rows) results []
    |> List.sort compare
    |> List.map (fun (name, t) ->
           Report.row [] [ Report.text name; Report.text t ]))

type opts = {
  json_out : string option;
  baseline : string option;
  tolerance : float option;
  wall_tolerance : float option;
}

let usage () =
  Format.eprintf
    "usage: bench [all | NAME...] [--json-out FILE] [--domains N]@.       \
     bench compare --baseline FILE [--tolerance PCT] [--wall-tolerance \
     PCT] [--json-out FILE]@.       bench doc FILE@.       bench --list \
     | --bechamel@.";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let pct flag v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 -> f
    | Some _ | None ->
        Format.eprintf "%s: expected a non-negative percentage, got %S@."
          flag v;
        exit 2
  in
  let rec parse names o = function
    | [] -> (List.rev names, o)
    | "--json-out" :: f :: rest -> parse names { o with json_out = Some f } rest
    | "--baseline" :: f :: rest -> parse names { o with baseline = Some f } rest
    | "--tolerance" :: v :: rest ->
        parse names { o with tolerance = Some (pct "--tolerance" v) } rest
    | "--wall-tolerance" :: v :: rest ->
        parse names
          { o with wall_tolerance = Some (pct "--wall-tolerance" v) }
          rest
    | "--domains" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> Experiments.set_domains n
        | Some _ | None ->
            Format.eprintf "--domains: expected a positive integer, got %S@." v;
            exit 2);
        parse names o rest
    | a :: _ when String.length a > 2 && String.sub a 0 2 = "--"
                  && a <> "--list" && a <> "--bechamel" ->
        Format.eprintf "unknown or incomplete option %s@." a;
        usage ()
    | a :: rest -> parse (a :: names) o rest
  in
  let names, o =
    parse [] { json_out = None; baseline = None; tolerance = None;
               wall_tolerance = None }
      args
  in
  match names with
  | [ "--list" ] ->
      List.iter (fun (name, _) -> print_endline name) experiments
  | [ "--bechamel" ] -> bechamel ()
  | [ "doc"; file ] -> doc_cmd file
  | "doc" :: _ -> usage ()
  | [ "compare" ] -> (
      match o.baseline with
      | None ->
          Format.eprintf "compare requires --baseline FILE@.";
          usage ()
      | Some baseline ->
          compare_cmd ~baseline ~tolerance:o.tolerance
            ~wall_tolerance:o.wall_tolerance ~json_out:o.json_out)
  | [] | [ "all" ] ->
      run_all ();
      Option.iter save_catalog o.json_out
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment (name, f)
          | None ->
              Format.eprintf
                "unknown experiment %S (use --list to see them)@." name;
              exit 1)
        names;
      Option.iter save_catalog o.json_out
