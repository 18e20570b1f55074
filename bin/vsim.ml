(* vsim: run individual V kernel experiments with custom parameters.

   Examples:
     vsim ipc --mhz 8                    # remote Send-Receive-Reply
     vsim ipc --local --mhz 10
     vsim penalty --bytes 512 --net 10
     vsim move --bytes 4096 --from
     vsim page --write --basic
     vsim load --unit 16384 --net 10
     vsim seq --latency 15
     vsim capacity --clients 5,10,20 --domains 4
     vsim fault --drop 0.1 --timeout 20
     vsim check --domains 4 --json

   Every subcommand shares the Spec flags: --seed, --domains, and the
   observability set (--trace-out/--trace-topics/--metrics/--metrics-out/
   --profile). *)

open Cmdliner
module Spec = Vsim_cli.Spec

(* A bad input: say why on stderr and exit 2. *)
let usage_error cmd fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "vsim %s: %s@." cmd m;
      exit 2)
    fmt

(* --- validated flags ------------------------------------------------- *)

(* A flag whose value [parse] must accept.  Anything else, malformed or
   out of range, is a usage error like every other bad input: it exits 2
   while the command line is parsed, before any simulation starts. *)
let checked ~want parse pp cmd name ?docv ~doc default =
  let parse s =
    match parse s with
    | Some v -> Ok v
    | None -> usage_error cmd "--%s needs %s, got %S" name want s
  in
  Arg.(value & opt (conv (parse, pp)) default & info [ name ] ?docv ~doc)

let int_in ?want ~lo ~hi =
  let want =
    match want with
    | Some w -> w
    | None when hi = max_int -> Printf.sprintf "an integer of at least %d" lo
    | None -> Printf.sprintf "an integer in %d..%d" lo hi
  in
  checked ~want
    (fun s ->
      match int_of_string_opt s with
      | Some n when lo <= n && n <= hi -> Some n
      | Some _ | None -> None)
    Format.pp_print_int

let positive_int = int_in ~lo:1 ~hi:max_int
let count = int_in ~lo:0 ~hi:max_int

(* Milliseconds, as every duration flag is given. *)
let duration_ms = int_in ~want:"a duration of 0 ms or more" ~lo:0 ~hi:max_int

let probability =
  checked ~want:"a probability in [0, 1]"
    (fun s ->
      match float_of_string_opt s with
      | Some p when p >= 0.0 && p <= 1.0 -> Some p
      | Some _ | None -> None)
    Format.pp_print_float

(* A byte range of a process's address space. *)
let byte_count =
  int_in ~lo:0 ~hi:Vkernel.Kernel.default_config.Vkernel.Kernel.default_mem_size

let model_of_mhz = function
  | 8 -> Vhw.Cost_model.sun_8mhz
  | 10 -> Vhw.Cost_model.sun_10mhz
  | mhz -> Vhw.Cost_model.scale Vhw.Cost_model.sun_10mhz ~mhz

let medium_of_net = function
  | 3 -> Vnet.Medium.config_3mb
  | 10 -> Vnet.Medium.config_10mb
  | _ -> invalid_arg "--net must be 3 or 10"

let mhz_arg cmd =
  int_in ~want:"a clock rate of at least 1 MHz" ~lo:1 ~hi:max_int cmd "mhz"
    ~docv:"MHZ"
    ~doc:"Processor speed: 8 and 10 are the paper's calibrated SUNs; \
          other values cycle-scale the 10 MHz model."
    10

let net_arg cmd =
  checked ~want:"3 or 10"
    (fun s -> match s with "3" -> Some 3 | "10" -> Some 10 | _ -> None)
    Format.pp_print_int cmd "net" ~docv:"MBITS"
    ~doc:"Ethernet: 3 (experimental 2.94 Mb/s) or 10." 3

let local_arg =
  Arg.(value & flag & info [ "local" ] ~doc:"Same-workstation operation.")

let trials_arg cmd = positive_int cmd "trials" ~doc:"Measurement trials." 100

let pp_cols (c : Vworkload.Rigs.cols) =
  Format.printf "elapsed      %a ms@." Vsim.Time.pp_ms c.Vworkload.Rigs.elapsed;
  Format.printf "client cpu   %a ms@." Vsim.Time.pp_ms c.Vworkload.Rigs.client_cpu;
  Format.printf "server cpu   %a ms@." Vsim.Time.pp_ms c.Vworkload.Rigs.server_cpu

(* --- ipc ------------------------------------------------------------ *)

let ipc_cmd =
  let run spec mhz net local trials =
    Spec.with_obs spec @@ fun () ->
    let seed = spec.Spec.seed in
    let cpu_model = model_of_mhz mhz in
    if local then
      Format.printf "local Send-Receive-Reply: %a ms@." Vsim.Time.pp_ms
        (Vworkload.Rigs.srr_local ~trials ~cpu_model ?seed ())
    else
      pp_cols
        (Vworkload.Rigs.srr_remote ~trials ~cpu_model
           ~medium_config:(medium_of_net net) ?seed ())
  in
  Cmd.v (Cmd.info "ipc" ~doc:"Send-Receive-Reply message exchange")
    Term.(const run $ Spec.term $ mhz_arg "ipc" $ net_arg "ipc" $ local_arg
          $ trials_arg "ipc")

(* --- penalty --------------------------------------------------------- *)

let penalty_cmd =
  let bytes =
    (* One datagram is one frame. *)
    int_in ~lo:0
      ~hi:
        (min Vnet.Medium.config_3mb.Vnet.Medium.max_payload
           Vnet.Medium.config_10mb.Vnet.Medium.max_payload)
      "penalty" "bytes" ~doc:"Datagram size." 1024
  in
  let run spec mhz net n trials =
    Spec.with_obs spec @@ fun () ->
    let cpu_model = model_of_mhz mhz and medium_config = medium_of_net net in
    let measured =
      Vworkload.Rigs.measure_penalty ~trials ?seed:spec.Spec.seed ~cpu_model
        ~medium_config n
    in
    let analytic = Vworkload.Rigs.penalty_ns ~cpu_model ~medium_config n in
    Format.printf "network penalty P(%d): measured %a ms, analytic %a ms@." n
      Vsim.Time.pp_ms measured Vsim.Time.pp_ms analytic
  in
  Cmd.v
    (Cmd.info "penalty"
       ~doc:"Network penalty: one-way memory-to-memory datagram time")
    Term.(const run $ Spec.term $ mhz_arg "penalty" $ net_arg "penalty" $ bytes
          $ trials_arg "penalty")

(* --- move ------------------------------------------------------------ *)

let move_cmd =
  let bytes = byte_count "move" "bytes" ~doc:"Transfer size." 1024 in
  let from_flag =
    Arg.(value & flag & info [ "from" ] ~doc:"MoveFrom instead of MoveTo.")
  in
  let run spec mhz net local count from_ =
    Spec.with_obs spec @@ fun () ->
    let seed = spec.Spec.seed in
    let cpu_model = model_of_mhz mhz in
    let to_remote = not from_ in
    if local then
      Format.printf "local Move%s %d bytes: %a ms@."
        (if to_remote then "To" else "From")
        count Vsim.Time.pp_ms
        (Vworkload.Rigs.move_local ~cpu_model ~count ~to_remote ?seed ())
    else
      pp_cols
        (Vworkload.Rigs.move_remote ~cpu_model
           ~medium_config:(medium_of_net net) ~count ~to_remote ?seed ())
  in
  Cmd.v (Cmd.info "move" ~doc:"MoveTo/MoveFrom bulk data transfer")
    Term.(const run $ Spec.term $ mhz_arg "move" $ net_arg "move" $ local_arg
          $ bytes $ from_flag)

(* --- page ------------------------------------------------------------ *)

let page_cmd =
  let write_flag =
    Arg.(value & flag & info [ "write" ] ~doc:"Page write instead of read.")
  in
  let basic_flag =
    Arg.(value & flag
         & info [ "basic" ]
             ~doc:"Thoth-style MoveTo/MoveFrom path (4 packets) instead of \
                   the segment path (2 packets).")
  in
  let cache_blocks_arg =
    count "page" "cache-blocks"
      ~doc:"Client block-cache capacity in blocks; 0 disables the cache \
            and uses the plain per-protocol stubs."
      0
  in
  let cache_policy_arg =
    checked ~want:"wt or wb" Vfs.Cache.policy_of_string
      (fun ppf p -> Format.pp_print_string ppf (Vfs.Cache.policy_to_string p))
      "page" "cache-policy"
      ~doc:"Cache write policy: wt (write-through) or wb (write-back)."
      Vfs.Cache.Write_through
  in
  let pp_cache_stats = function
    | Some s ->
        Format.printf
          "cache        %d hits, %d misses, %d evictions, %d write-backs, \
           %d invalidations@."
          s.Vfs.Cache.hits s.Vfs.Cache.misses s.Vfs.Cache.evictions
          s.Vfs.Cache.writebacks s.Vfs.Cache.invalidations
    | None -> ()
  in
  let workers_arg =
    positive_int "page" "workers"
      ~doc:"File-server worker processes (1 = the classic single Receive \
            loop)."
      1
  in
  let run spec mhz net local write basic cache_blocks policy workers =
    Spec.with_obs spec @@ fun () ->
    let seed = spec.Spec.seed in
    let cpu_model = model_of_mhz mhz
    and medium_config = medium_of_net net in
    if cache_blocks = 0 then
      pp_cols
        (Vworkload.Rigs.page_op ~cpu_model ~medium_config ~workers ?seed
           ~client_host:(if local then 1 else 2)
           ~write ~basic ())
    else if write then begin
      let per_write, flush_ns, stats =
        Vworkload.Rigs.cached_write ~cpu_model ~medium_config ?seed
          ~cache_blocks ~policy ()
      in
      Format.printf "per write    %a ms (%s)@." Vsim.Time.pp_ms per_write
        (Vfs.Cache.policy_to_string policy);
      Format.printf "flush total  %a ms@." Vsim.Time.pp_ms flush_ns;
      pp_cache_stats stats
    end
    else begin
      let r =
        Vworkload.Rigs.cached_read ~cpu_model ~medium_config ?seed
          ~cache_blocks ~policy ()
      in
      Format.printf "cold read    %a ms@." Vsim.Time.pp_ms
        r.Vworkload.Rigs.cold_ns;
      Format.printf "warm read    %a ms@." Vsim.Time.pp_ms
        r.Vworkload.Rigs.warm_ns;
      pp_cache_stats r.Vworkload.Rigs.cache_stats
    end
  in
  Cmd.v
    (Cmd.info "page"
       ~doc:"512-byte page access against a file server, optionally \
             through a client block cache")
    Term.(const run $ Spec.term $ mhz_arg "page" $ net_arg "page" $ local_arg
          $ write_flag $ basic_flag $ cache_blocks_arg $ cache_policy_arg
          $ workers_arg)

(* --- load ------------------------------------------------------------ *)

let load_cmd =
  let unit_arg =
    positive_int "load" "unit" ~doc:"MoveTo transfer unit in bytes." 4096
  in
  let run spec mhz net local transfer_unit =
    Spec.with_obs spec @@ fun () ->
    let c =
      Vworkload.Rigs.program_load ~cpu_model:(model_of_mhz mhz)
        ~medium_config:(medium_of_net net) ?seed:spec.Spec.seed ~transfer_unit
        ~client_host:(if local then 1 else 2)
        ()
    in
    pp_cols c;
    Format.printf "data rate    %.0f KB/s@."
      (65536.0 /. 1024.0 /. Vsim.Time.to_float_s c.Vworkload.Rigs.elapsed)
  in
  Cmd.v (Cmd.info "load" ~doc:"64-kilobyte program load")
    Term.(const run $ Spec.term $ mhz_arg "load" $ net_arg "load" $ local_arg
          $ unit_arg)

(* --- seq ------------------------------------------------------------- *)

let seq_cmd =
  let latency =
    duration_ms "seq" "latency" ~doc:"Server disk latency in ms." 15
  in
  let pages =
    int_in ~lo:1 ~hi:(Vfs.Fs.max_file_size / Vfs.Fs.block_size) "seq" "pages"
      ~doc:"File length in pages." 30
  in
  let run spec mhz latency npages =
    Spec.with_obs spec @@ fun () ->
    Format.printf "sequential read, %d ms disk: %a ms/page@." latency
      Vsim.Time.pp_ms
      (Vworkload.Rigs.sequential_read ~cpu_model:(model_of_mhz mhz) ~npages
         ?seed:spec.Spec.seed
         ~disk_latency_ns:(Vsim.Time.ms latency) ())
  in
  Cmd.v
    (Cmd.info "seq"
       ~doc:"Sequential file read against a read-ahead file server")
    Term.(const run $ Spec.term $ mhz_arg "seq" $ latency $ pages)

(* --- capacity --------------------------------------------------------- *)

let capacity_cmd =
  let clients =
    (* One host is the file server. *)
    let most = Vworkload.Testbed.max_hosts - 1 in
    checked
      ~want:(Printf.sprintf "counts in 1..%d" most)
      (fun s ->
        let ns = List.map int_of_string_opt (String.split_on_char ',' s) in
        if List.for_all (function Some n -> 1 <= n && n <= most | None -> false) ns
        then Some (List.map Option.get ns)
        else None)
      Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_char ppf ',') pp_print_int)
      "capacity" "clients" ~docv:"LIST"
      ~doc:"Diskless workstation counts: a single value or a \
            comma-separated sweep (e.g. 5,10,20), one closed-loop run per \
            value, fanned out over --domains."
      [ 10 ]
  in
  let think =
    duration_ms "capacity" "think" ~doc:"Mean think time between requests, ms."
      320
  in
  let duration =
    positive_int "capacity" "duration" ~doc:"Simulated seconds (at least 1)." 4
  in
  let workers =
    positive_int "capacity" "workers"
      ~doc:"File-server worker processes, at least 1 (1 = the classic \
            single Receive loop)."
      1
  in
  let run spec mhz clients think duration workers =
    Spec.with_obs spec @@ fun () ->
    let rows =
      Vworkload.Rigs.capacity_sweep ~cpu_model:(model_of_mhz mhz)
        ~duration:(Vsim.Time.sec duration)
        ~think_mean:(Vsim.Time.ms think) ~workers ?seed:spec.Spec.seed
        ~domains:spec.Spec.domains ~clients ()
    in
    List.iter
      (fun (clients, (thr, mean, cpu, net)) ->
        (* The mean of no samples is nan. *)
        if Float.is_nan mean then
          Format.printf
            "%d workstations: no request completed after the warm-up@."
            clients
        else
          Format.printf
            "%d workstations: %.1f req/s, mean %.2f ms, server cpu %.0f%%, \
             network %.1f%%@."
            clients thr mean (100.0 *. cpu) (100.0 *. net))
      rows;
    if List.exists (fun (_, (_, mean, _, _)) -> Float.is_nan mean) rows then
      usage_error "capacity"
        "a run completed no request after the warm-up; lengthen --duration"
  in
  Cmd.v
    (Cmd.info "capacity" ~doc:"File-server capacity under multi-client load")
    Term.(const run $ Spec.term $ mhz_arg "capacity" $ clients $ think
          $ duration $ workers)

(* --- fault ------------------------------------------------------------ *)

let fault_cmd =
  let drop = probability "fault" "drop" ~doc:"Frame drop probability." 0.0 in
  let corrupt =
    probability "fault" "corrupt" ~doc:"Frame corruption probability." 0.0
  in
  let bug =
    Arg.(value & flag
         & info [ "bug" ] ~doc:"The 3 Mb interface hardware bug (1/2000).")
  in
  let timeout =
    duration_ms "fault" "timeout" ~doc:"Retransmission timeout T in ms." 200
  in
  let rto_mode =
    let modes =
      [ ("fixed", Vkernel.Kernel.Fixed); ("adaptive", Vkernel.Kernel.Adaptive) ]
    in
    Arg.(value & opt (enum modes) Vkernel.Kernel.Fixed
         & info [ "rto-mode" ]
             ~doc:"Retransmission timer: $(b,fixed) uses T verbatim; \
                   $(b,adaptive) estimates per-destination RTT \
                   (Jacobson/Karn) with exponential backoff.")
  in
  let run spec mhz net drop corrupt bug timeout rto_mode trials =
    Spec.with_obs spec @@ fun () ->
    let fault =
      if bug then Vnet.Fault.hardware_bug
      else
        { Vnet.Fault.none with Vnet.Fault.drop_prob = drop;
          corrupt_prob = corrupt }
    in
    let kernel_config =
      { Vkernel.Kernel.default_config with
        Vkernel.Kernel.retransmit_timeout_ns = Vsim.Time.ms timeout;
        rto_mode }
    in
    pp_cols
      (Vworkload.Rigs.srr_remote ~trials ~cpu_model:(model_of_mhz mhz)
         ~medium_config:(medium_of_net net) ~fault ~kernel_config
         ?seed:spec.Spec.seed ())
  in
  Cmd.v
    (Cmd.info "fault" ~doc:"Message exchange under network faults")
    Term.(const run $ Spec.term $ mhz_arg "fault" $ net_arg "fault" $ drop
          $ corrupt $ bug $ timeout $ rto_mode $ trials_arg "fault")

(* --- check: systematic fault-schedule exploration --------------------- *)

let check_cmd =
  let depth =
    Arg.(value & opt int 2
         & info [ "depth" ] ~docv:"N"
             ~doc:"Maximum scheduled faults per run (1 or 2).")
  in
  let limit =
    Arg.(value & opt int 600
         & info [ "limit" ] ~docv:"N"
             ~doc:"Stop after exploring $(docv) schedules.")
  in
  let repro =
    Arg.(value & opt (some file) None
         & info [ "repro" ] ~docv:"FILE"
             ~doc:"Replay the single schedule in $(docv) (as emitted on a \
                   violation) instead of sweeping.")
  in
  let emit =
    Arg.(value & opt string "vcheck.repro"
         & info [ "emit-repro" ] ~docv:"FILE"
             ~doc:"Where to write the minimized reproducer on violation.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the sweep report as one line of JSON on stdout \
                   instead of the human-readable summary.  The JSON is \
                   deterministic and byte-identical for any --domains \
                   value.")
  in
  (* Mode flags: each combination names one Checker.modes entry. *)
  let mode name doc = Arg.(value & flag & info [ name ] ~doc) in
  let crash =
    mode "crash"
      "Sweep host crash points instead of network faults: \
        crash + restart the file-server host at every baseline \
        frame (depth 1), paired with one network fault at every \
        other frame at depth 2, over the journaled-recovery \
        workload.  Replays of schedules containing crash/restart \
        entries select this workload automatically."
  in
  let shared =
    mode "shared"
      "Sweep the two-client shared-file coherence workload \
        instead: both clients cache through the lease/callback \
        protocol of doc/LEASES.md, and every read must observe \
        the latest acknowledged write (no stale reads), with \
        reopen-under-lease costing zero server requests.  \
        Composes with --crash to script file-server crash + \
        restart points instead of network faults, and with \
        --repro to replay a schedule against this workload."
  in
  let inet =
    mode "inet"
      "Sweep the cross-segment internetwork workload instead: \
        a client on a 3 Mb segment reaching an echo service and \
        a file server on a 10 Mb segment through a \
        store-and-forward gateway (doc/INTERNETWORK.md).  \
        Network faults act on the client's segment; with \
        --crash the schedule crashes + restarts the GATEWAY, \
        partitioning the segments until it returns.  Composes \
        with --repro."
  in
  let failover =
    mode "failover"
      "Sweep the sharded-service failover workload instead: \
        crash-STOP the shard-A primary at every baseline frame \
        (paired with one network fault at depth 2) and demand \
        the standby replica takes the shard over with no \
        acknowledged write lost (doc/INTERNETWORK.md).  \
        Failover is crash-only, so --crash is implied.  Composes \
        with --repro."
  in
  let print_violations vs =
    List.iter
      (fun v ->
        Format.printf "  violation -- %a@." Vcheck.Checker.pp_violation v)
      vs
  in
  let run spec depth limit repro emit json crash shared inet failover =
    Spec.with_obs spec @@ fun () ->
    let seed = spec.Spec.seed in
    let fail msg = usage_error "check" "%s" msg in
    let scenario ~crash =
      List.filter_map
        (fun (on, flag) -> if on then Some flag else None)
        [
          (crash, "--crash");
          (shared, "--shared");
          (inet, "--inet");
          (failover, "--failover");
        ]
      |> Vcheck.Checker.resolve
      |> Result.fold ~ok:Fun.id ~error:fail
    in
    match repro with
    | Some path -> (
        let text = In_channel.with_open_text path In_channel.input_all in
        match Vcheck.Schedule.of_string text with
        | Error e -> fail e
        | Ok s -> (
            let fault = Vcheck.Schedule.to_fault s in
            (* Crash entries select the crash variant of the workload. *)
            let has_crash = fault.Vnet.Fault.host_events <> [] in
            let (Vcheck.Scenario.T sc) = scenario ~crash:(crash || has_crash) in
            Format.printf "replaying schedule: %a@." Vcheck.Schedule.pp s;
            let report = sc.run ~fault ?seed () in
            Format.printf "@[<v>%a@]@." sc.pp report;
            match sc.violations report with
            | [] -> Format.printf "no invariant violations@."
            | vs ->
                print_violations vs;
                exit 1))
    | None -> (
        let sc = scenario ~crash in
        Vcheck.Checker.validate sc ~depth ~limit
        |> Result.iter_error (fun e ->
               fail (Vcheck.Checker.invalid_to_string e));
        match
          Vcheck.Checker.sweep ~depth ~limit ?seed ~domains:spec.Spec.domains
            sc
        with
        | Error vs ->
            Format.printf "the unfaulted baseline run violates invariants:@.";
            print_violations vs;
            exit 1
        | Ok r when json ->
            print_endline (Vcheck.Checker.report_to_json r);
            if r.Vcheck.Checker.failure <> None then exit 1
        | Ok r -> (
            Format.printf "baseline workload: %d frames, %d operations@."
              r.Vcheck.Checker.baseline_frames
              (Vcheck.Scenario.op_count sc);
            match r.Vcheck.Checker.failure with
            | None ->
                Format.printf
                  "explored %d %s schedules (depth <= %d): no invariant \
                   violations@."
                  r.Vcheck.Checker.schedules_run
                  (Vcheck.Scenario.label sc)
                  depth
            | Some f ->
                Format.printf "violation at schedule %d of the sweep@."
                  r.Vcheck.Checker.schedules_run;
                Format.printf "  first failing: %a@." Vcheck.Schedule.pp
                  f.Vcheck.Checker.schedule;
                Format.printf "  minimized:     %a@." Vcheck.Schedule.pp
                  f.Vcheck.Checker.minimal;
                print_violations f.Vcheck.Checker.violations;
                Out_channel.with_open_text emit (fun oc ->
                    output_string oc
                      (Vcheck.Checker.repro_file_contents
                         f.Vcheck.Checker.minimal
                         f.Vcheck.Checker.violations));
                Format.printf "reproducer written to %s@." emit;
                exit 1))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Systematically explore fault schedules (drop / duplicate / \
             delay / reorder per frame — or, with --crash, host crash + \
             restart points) over a scripted IPC workload, checking the \
             paper's protocol invariants after every run; violations are \
             shrunk to a minimal replayable schedule")
    Term.(const run $ Spec.term $ depth $ limit $ repro $ emit $ json $ crash
          $ shared $ inet $ failover)

(* --- boot: the multicast boot storm ---------------------------------- *)

let boot_cmd =
  let clients =
    Arg.(value & opt (some int) None
         & info [ "clients" ] ~docv:"N"
             ~doc:(Printf.sprintf
                     "Diskless clients booting simultaneously (1..%d; \
                      default 32)."
                     Vworkload.Boot.max_clients))
  in
  let pages =
    int_in ~lo:1 ~hi:Vworkload.Boot.max_pages "boot" "pages" ~docv:"N"
      ~doc:
        (Printf.sprintf "Image size in pages (1..%d)." Vworkload.Boot.max_pages)
      128
  in
  let page_bytes =
    int_in ~lo:1 ~hi:Vworkload.Boot.max_page_bytes "boot" "page-bytes"
      ~docv:"BYTES"
      ~doc:
        (Printf.sprintf "Page payload size (1..%d: a page travels in one frame)."
           Vworkload.Boot.max_page_bytes)
      512
  in
  let topology =
    Arg.(value & opt (some string) None
         & info [ "topology" ] ~docv:"SPEC"
             ~doc:"Segment spec NET:CLIENTS,... (NET is 3mb or 10mb), e.g. \
                   10mb:16,3mb:16; the boot server sits on the first \
                   segment.  --clients, if given, must match its total.  \
                   Default: --clients split over 10mb,3mb.")
  in
  let run spec clients pages page_bytes topology =
    let module Boot = Vworkload.Boot in
    let usage fmt = usage_error "boot" fmt in
    let segments =
      match topology with
      | None ->
          Boot.default_segments ~clients:(Option.value clients ~default:32)
      | Some s -> (
          match Vworkload.Topology.spec_of_string s with
          | Ok segs -> segs
          | Error e -> usage "--topology: %s" e)
    in
    let n =
      List.fold_left (fun a s -> a + s.Vworkload.Topology.seg_hosts) 0 segments
    in
    (match clients with
    | Some c when c <> n ->
        usage "--clients %d disagrees with the %d clients of --topology" c n
    | Some _ | None -> ());
    if n < 1 || n > Boot.max_clients then
      usage "need 1..%d clients, got %d" Boot.max_clients n;
    Spec.with_obs spec @@ fun () ->
    let config = { Boot.default_config with pages; page_bytes } in
    let r = Boot.run ?seed:spec.Spec.seed ~config ~segments () in
    let cpu_s_per_k, bytes_per_k = Boot.cost_per_1000_clients r in
    Format.printf "boot storm: %d clients, %d x %d-byte pages over %d segments@."
      r.Boot.clients r.Boot.pages r.Boot.page_bytes
      (List.length r.Boot.media);
    Format.printf "  completed        %b (%d/%d clients booted)@."
      r.Boot.completed
      (Array.fold_left
         (fun a p -> a + if p = r.Boot.pages then 1 else 0)
         0 r.Boot.per_client_pages)
      r.Boot.clients;
    Format.printf "  elapsed          %a ms@." Vsim.Time.pp_ms r.Boot.elapsed_ns;
    Format.printf "  rounds           %d (%d pages re-multicast)@."
      r.Boot.rounds r.Boot.resent_pages;
    Format.printf "  server cpu       %a ms@." Vsim.Time.pp_ms
      r.Boot.server_cpu_ns;
    Format.printf "  network          %d bytes on the wire@." r.Boot.wire_bytes;
    Format.printf "  gateway          %d forwarded, %d rebroadcast, %d \
                   suppressed, %d dropped@."
      r.Boot.gateway.Vnet.Gateway.forwarded
      r.Boot.gateway.Vnet.Gateway.rebroadcast
      r.Boot.gateway.Vnet.Gateway.suppressed
      (r.Boot.gateway.Vnet.Gateway.queue_drops
      + r.Boot.gateway.Vnet.Gateway.down_drops);
    Format.printf "  cost_per_1000_clients  %.3f server-cpu s, %.0f net bytes@."
      cpu_s_per_k bytes_per_k;
    if not r.Boot.completed then exit 1
  in
  Cmd.v
    (Cmd.info "boot"
       ~doc:"Boot storm: N diskless clients multicast-load one kernel image \
             from a single boot server across a gatewayed two-segment \
             internetwork, with NACK-driven re-multicast rounds")
    Term.(const run $ Spec.term $ clients $ pages $ page_bytes $ topology)

(* --- run: assemble a program and execute it on a diskless ws --------- *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.s" ~doc:"Assembly source for the workstation \
                                        interpreter (see lib/vexec/asm.mli).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print kernel/network trace.")
  in
  let run spec mhz net source_path trace =
    Spec.with_obs spec @@ fun () ->
    let source = In_channel.with_open_text source_path In_channel.input_all in
    let img =
      match Vexec.Asm.assemble source with
      | Ok img -> img
      | Error e ->
          Format.eprintf "%s: %s@." source_path e;
          exit 1
    in
    let tb =
      Vworkload.Testbed.create ?seed:spec.Spec.seed
        ~cpu_model:(model_of_mhz mhz)
        ~medium_config:(medium_of_net net) ~hosts:2 ()
    in
    if trace then Vsim.Trace.to_stderr tb.Vworkload.Testbed.eng;
    let fs = Vworkload.Testbed.make_test_fs tb ~files:[] () in
    Vworkload.Testbed.run_proc tb ~name:"install" (fun () ->
        let inum = Result.get_ok (Vfs.Fs.create fs "prog") in
        match Vfs.Fs.write fs ~inum ~pos:0 (Vexec.Image.to_bytes img) with
        | Ok () -> ()
        | Error e -> Fmt.failwith "install: %a" Vfs.Fs.pp_error e);
    let k_fs = (Vworkload.Testbed.host tb 1).Vworkload.Testbed.kernel in
    let k_ws = (Vworkload.Testbed.host tb 2).Vworkload.Testbed.kernel in
    let (_ : Vfs.Server.t) = Vfs.Server.start k_fs fs () in
    let (_ : Vkernel.Pid.t) =
      Vkernel.Kernel.spawn k_ws ~name:"workstation" (fun _ ->
          let conn =
            match Vfs.Client.connect k_ws () with
            | Ok c -> c
            | Error e ->
                Fmt.failwith "connect: %s" (Vfs.Client.error_to_string e)
          in
          let eng = Vkernel.Kernel.engine k_ws in
          let t0 = Vsim.Engine.now eng in
          match
            Vexec.Loader.load_and_run k_ws ~conn ~name:"prog"
              ~console:print_char ()
          with
          | Ok outcome ->
              Format.printf "@.[%a; loaded and ran in %a of simulated time]@."
                Vexec.Vm.pp_outcome outcome Vsim.Time.pp
                (Vsim.Engine.now eng - t0)
          | Error e ->
              Format.eprintf "load: %s@." (Vexec.Loader.error_to_string e))
    in
    Vworkload.Testbed.run tb
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Assemble a program and run it on a simulated diskless \
             workstation (loaded from the file server, interpreted with V \
             syscalls)")
    Term.(const run $ Spec.term $ mhz_arg "run" $ net_arg "run" $ file $ trace)

let () =
  let info =
    Cmd.info "vsim" ~version:"1.0"
      ~doc:"Experiments on the simulated distributed V kernel"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ipc_cmd; penalty_cmd; move_cmd; page_cmd; load_cmd; seq_cmd;
            capacity_cmd; fault_cmd; check_cmd; boot_cmd; run_cmd ]))
