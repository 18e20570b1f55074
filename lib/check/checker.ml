module K = Vkernel.Kernel

type violation = Scenario.violation = { invariant : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s" v.invariant v.detail

(* Every judge has the same frame.  First: the run quiesced, every
   operation succeeded, and a run that quiesced ran all [op_count] of
   them.  Then [f] adds the scenario's own findings through [add].  Last,
   the checks shared by all workloads: protocol tables must be empty at
   quiescence, and each labelled medium's frame accounting must
   balance. *)
let judge ~completed ~events ~op_count ~kernels ~media
    (ops : Scenario.op_result list) f =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not completed then
    add "termination"
      (Printf.sprintf "run did not quiesce cleanly (%d events executed)"
         events);
  List.iter
    (fun (o : Scenario.op_result) ->
      if not o.ok then
        add "op-result" (Printf.sprintf "%s failed (%s)" o.op o.detail))
    ops;
  if completed && List.length ops < op_count then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran" (List.length ops)
         op_count);
  f add;
  List.iter
    (fun (p : Scenario.kernel_probe) ->
      let t = p.tables in
      let leak name n =
        if n <> 0 then
          add "table-drain"
            (Printf.sprintf "host %d: %d %s left at quiescence" p.host n name)
      in
      leak "live aliens" t.K.aliens_live;
      leak "incomplete mt_ins" t.K.mt_ins_incomplete;
      leak "mt_outs" t.K.mt_outs_pending;
      leak "mf_outs" t.K.mf_outs_pending;
      leak "getpid waits" t.K.getpid_pending;
      leak "blocked senders" t.K.sends_blocked)
    kernels;
  List.iter
    (fun (label, (m : Vnet.Medium.stats)) ->
      if m.targeted + m.duplicated <> m.delivered + m.dropped then
        add "conservation"
          (Printf.sprintf
             "%s: targeted %d + duplicated %d <> delivered %d + dropped %d"
             label m.targeted m.duplicated m.delivered m.dropped))
    media;
  List.rev !vs

let segments media =
  List.mapi (fun i m -> (Printf.sprintf "segment %d" i, m)) media

(* The block audit's findings, for the workloads that write through a
   journaled file system and crash its server. *)
let block_violations ~add ~acked_lost ~torn ~fsck =
  List.iter
    (fun b ->
      add "durability" (Printf.sprintf "acknowledged write to block %d lost" b))
    acked_lost;
  List.iter
    (fun b ->
      add "atomicity"
        (Printf.sprintf "block %d torn: neither old nor new image" b))
    torn;
  List.iter (fun msg -> add "fs-consistent" msg) fsck

(* Judge one run report against the paper's claims.  A depth-2 schedule
   can force at most a few retransmissions, far under max_retries, so
   under any such schedule every operation must still succeed. *)
let violations_of (r : Workload.report) =
  judge ~completed:r.completed ~events:r.events ~op_count:Workload.op_count
    ~kernels:r.kernels ~media:[ ("medium", r.medium) ] r.ops
  @@ fun add ->
  List.iter
    (fun (name, n) ->
      if n <> 1 then
        add "exactly-once"
          (Printf.sprintf "server %s applied %d times (want 1)" name n))
    r.ledger;
  if r.pages_written <> 1 then
    add "exactly-once"
      (Printf.sprintf "file server wrote %d pages (want 1)" r.pages_written);
  if r.completed && not r.file_ok then
    add "data" "server-side file bytes differ from the client's write"

(* Judge one crash run.  The three crash-specific invariants the
   journal + recovery machinery must uphold:
   - durability: a write the client saw acknowledged survives the crash
     (its bytes are on the disk after recovery);
   - atomicity: every block is entirely its old image or entirely its
     new one — a torn block means a mutation was half-applied;
   - fs-consistency: the recovered file system passes {!Vfs.Fs.check}
     (bitmap, inode table and directory agree).
   Termination and per-op success still apply: every enumerated crash
   comes with a restart, so the client must eventually finish. *)
let crash_violations_of (r : Crash_workload.report) =
  judge ~completed:r.completed ~events:r.events
    ~op_count:Crash_workload.op_count ~kernels:r.kernels
    ~media:[ ("medium", r.medium) ] r.ops
  @@ fun add ->
  block_violations ~add ~acked_lost:r.acked_lost ~torn:r.torn ~fsck:r.fsck

(* Judge one shared-file coherence run.  The invariant this workload
   exists for is {e no-stale-read}: every read in the script must
   observe the latest acknowledged write, because the server breaks all
   conflicting leases (blocking on each holder's acknowledgement)
   before acking any mutation.  Its companion is the lease fast path:
   when client A's reopen happened under a still-valid lease, it must
   have cost zero server requests. *)
let shared_violations_of (r : Shared_workload.report) =
  judge ~completed:r.completed ~events:r.events
    ~op_count:Shared_workload.op_count ~kernels:r.kernels
    ~media:[ ("medium", r.medium) ] r.ops
  @@ fun add ->
  List.iter (fun msg -> add "no-stale-read" msg) r.stale;
  match r.lease_reopen_rpcs with
  | Some n when n <> 0 ->
      add "lease-fast-path"
        (Printf.sprintf "reopen under a valid lease cost %d server requests \
                         (want 0)" n)
  | _ -> ()

(* Judge one cross-segment run.  The deepened retry budget means even a
   full gateway outage is survivable, so per-op success still holds
   under any depth-2 schedule.  Two internetwork-specific invariants:
   conservation must hold on every segment independently, and no
   unicast frame may reach the gateway unrouted (the topology installs a
   route for every host). *)
let inet_violations_of (r : Inet_workload.report) =
  judge ~completed:r.completed ~events:r.events
    ~op_count:Inet_workload.op_count ~kernels:r.kernels
    ~media:(segments r.media) r.ops
  @@ fun add ->
  let g = r.gateway in
  if g.Vnet.Gateway.unrouted <> 0 then
    add "gw-routed"
      (Printf.sprintf "gateway saw %d unroutable unicast frames"
         g.Vnet.Gateway.unrouted)

(* Judge one failover run.  Crash schedules here are crash-stop, so
   termination and per-op success certify that the standby took the
   shard over in time; durability demands the acked writes crossed the
   takeover intact. *)
let failover_violations_of (r : Failover_workload.report) =
  judge ~completed:r.completed ~events:r.events
    ~op_count:Failover_workload.op_count ~kernels:r.kernels
    ~media:[ ("medium", r.medium) ] r.ops
  @@ fun add ->
  block_violations ~add ~acked_lost:r.acked_lost ~torn:r.torn ~fsck:r.fsck

(* Deterministic, wall-clock-free digests of one run, for replay
   diagnosis.  The op name column is [width] wide. *)
let pp_ops ~width fmt (ops : Scenario.op_result list) =
  List.iter
    (fun (o : Scenario.op_result) ->
      Format.fprintf fmt "op %-*s %s (%s)@," width o.op
        (if o.ok then "ok" else "FAILED")
        o.detail)
    ops

(* The shared tail of every digest: per-kernel stats and tables, then one
   line per labelled medium. *)
let pp_probes fmt (kernels : Scenario.kernel_probe list) media =
  List.iter
    (fun (p : Scenario.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.host K.pp_stats p.kstats
        K.pp_table_counts p.tables)
    kernels;
  List.iteri
    (fun i (label, (m : Vnet.Medium.stats)) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt
        "%s: attempted=%d targeted=%d delivered=%d dropped=%d duplicated=%d \
         collisions=%d excessive=%d"
        label m.attempted m.targeted m.delivered m.dropped m.duplicated
        m.collisions m.excessive)
    media

let pp_blocks fmt ~acked ~acked_lost ~torn ~fsck =
  let ints l = String.concat "," (List.map string_of_int l) in
  Format.fprintf fmt "acked=[%s] lost=[%s] torn=[%s]@," (ints acked)
    (ints acked_lost) (ints torn);
  List.iter (fun msg -> Format.fprintf fmt "fsck: %s@," msg) fsck

let pp_report fmt (r : Workload.report) =
  Format.fprintf fmt "completed=%b frames=%d@," r.completed r.frames;
  pp_ops ~width:14 fmt r.ops;
  Format.fprintf fmt "ledger:";
  List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n) r.ledger;
  Format.fprintf fmt " pages_written=%d file_ok=%b@," r.pages_written
    r.file_ok;
  pp_probes fmt r.kernels [ ("medium", r.medium) ]

let pp_crash_report fmt (r : Crash_workload.report) =
  Format.fprintf fmt "completed=%b frames=%d crashes=%d restarts=%d@,"
    r.completed r.frames r.crashes r.restarts;
  pp_ops ~width:10 fmt r.ops;
  pp_blocks fmt ~acked:r.acked ~acked_lost:r.acked_lost ~torn:r.torn
    ~fsck:r.fsck;
  pp_probes fmt r.kernels [ ("medium", r.medium) ]

let pp_shared_report fmt (r : Shared_workload.report) =
  Format.fprintf fmt "completed=%b frames=%d crashes=%d restarts=%d@,"
    r.completed r.frames r.crashes r.restarts;
  pp_ops ~width:16 fmt r.ops;
  Format.fprintf fmt
    "leases: granted=%d broken=%d expired=%d breaks_acked=a:%d,b:%d \
     reopen_rpcs=%s@,"
    r.leases_granted r.leases_broken r.leases_expired r.breaks_a r.breaks_b
    (match r.lease_reopen_rpcs with
    | None -> "untested"
    | Some n -> string_of_int n);
  List.iter (fun msg -> Format.fprintf fmt "stale: %s@," msg) r.stale;
  pp_probes fmt r.kernels [ ("medium", r.medium) ]

let pp_inet_report fmt (r : Inet_workload.report) =
  Format.fprintf fmt "completed=%b frames=%d gw_crashes=%d gw_restarts=%d@,"
    r.completed r.frames r.gw_crashes r.gw_restarts;
  pp_ops ~width:10 fmt r.ops;
  let g = r.gateway in
  Format.fprintf fmt
    "gateway: received=%d forwarded=%d rebroadcast=%d queue_drops=%d \
     unrouted=%d suppressed=%d crc_drops=%d down_drops=%d@,"
    g.Vnet.Gateway.received g.Vnet.Gateway.forwarded
    g.Vnet.Gateway.rebroadcast g.Vnet.Gateway.queue_drops
    g.Vnet.Gateway.unrouted g.Vnet.Gateway.suppressed g.Vnet.Gateway.crc_drops
    g.Vnet.Gateway.down_drops;
  pp_probes fmt r.kernels (segments r.media)

let pp_failover_report fmt (r : Failover_workload.report) =
  Format.fprintf fmt
    "completed=%b frames=%d crashes=%d took_over=%b probes=%d@," r.completed
    r.frames r.crashes r.took_over r.probes;
  pp_ops ~width:10 fmt r.ops;
  pp_blocks fmt ~acked:r.acked ~acked_lost:r.acked_lost ~torn:r.torn
    ~fsck:r.fsck;
  pp_probes fmt r.kernels [ ("medium", r.medium) ]

(* The registry: one scenario per mode [vsim check] runs.  Every
   enumerator supports depths 1 and 2. *)
let fault =
  Scenario.T
    {
      name = "fault";
      label = "fault";
      op_count = Workload.op_count;
      run = Workload.run;
      frames = (fun (r : Workload.report) -> r.frames);
      violations = violations_of;
      pp = pp_report;
      enumerate = Scenario.net_faults;
      depths = [ 1; 2 ];
    }

let crash =
  Scenario.T
    {
      name = "crash";
      label = "crash";
      op_count = Crash_workload.op_count;
      run = Crash_workload.run;
      frames = (fun (r : Crash_workload.report) -> r.frames);
      violations = crash_violations_of;
      pp = pp_crash_report;
      enumerate = Scenario.crash_restart;
      depths = [ 1; 2 ];
    }

let shared =
  Scenario.T
    {
      name = "shared";
      label = "shared-coherence fault";
      op_count = Shared_workload.op_count;
      run = Shared_workload.run;
      frames = (fun (r : Shared_workload.report) -> r.frames);
      violations = shared_violations_of;
      pp = pp_shared_report;
      enumerate = Scenario.net_faults;
      depths = [ 1; 2 ];
    }

let shared_crash =
  Scenario.variant ~name:"shared+crash" ~label:"shared-coherence crash"
    Scenario.crash_restart shared

let inet =
  Scenario.T
    {
      name = "inet";
      label = "internetwork fault";
      op_count = Inet_workload.op_count;
      run = Inet_workload.run;
      frames = (fun (r : Inet_workload.report) -> r.frames);
      violations = inet_violations_of;
      pp = pp_inet_report;
      enumerate = Scenario.net_faults;
      depths = [ 1; 2 ];
    }

let inet_crash =
  Scenario.variant ~name:"inet+crash" ~label:"internetwork gateway-crash"
    Scenario.crash_restart inet

let failover =
  Scenario.T
    {
      name = "failover";
      label = "crash-stop failover";
      op_count = Failover_workload.op_count;
      run = Failover_workload.run;
      frames = (fun (r : Failover_workload.report) -> r.frames);
      violations = failover_violations_of;
      pp = pp_failover_report;
      enumerate = Scenario.crash_stop;
      depths = [ 1; 2 ];
    }

let modes =
  [
    ([], fault);
    ([ "--crash" ], crash);
    ([ "--shared" ], shared);
    ([ "--shared"; "--crash" ], shared_crash);
    ([ "--inet" ], inet);
    ([ "--inet"; "--crash" ], inet_crash);
    ([ "--failover" ], failover);
  ]

let resolve flags =
  (* Failover is crash-only: --crash adds nothing to it. *)
  let flags =
    if List.mem "--failover" flags then List.filter (( <> ) "--crash") flags
    else flags
  in
  let same fs = List.sort compare fs = List.sort compare flags in
  match List.find_opt (fun (fs, _) -> same fs) modes with
  | Some (_, s) -> Ok s
  | None ->
      Error
        (Printf.sprintf "conflicting mode flags: %s" (String.concat " " flags))

type invalid =
  | Unsupported_depth of {
      scenario : string;
      depth : int;
      supported : int list;
    }
  | Nonpositive_limit of int

let invalid_to_string = function
  | Unsupported_depth { scenario; depth; supported } ->
      Printf.sprintf "depth %d is not supported by the %s scenario (supported: \
                      %s)"
        depth scenario
        (String.concat ", " (List.map string_of_int supported))
  | Nonpositive_limit n ->
      Printf.sprintf "limit %d: a sweep must explore at least one schedule" n

let validate sc ~depth ~limit =
  let supported = Scenario.depths sc in
  if not (List.mem depth supported) then
    Error (Unsupported_depth { scenario = Scenario.name sc; depth; supported })
  else if limit < 1 then Error (Nonpositive_limit limit)
  else Ok ()

let run_schedule ?max_events ?seed (Scenario.T s) sched =
  s.violations (s.run ~fault:(Schedule.to_fault sched) ?max_events ?seed ())

(* Greedy delta debugging: drop one entry at a time, keeping any removal
   that preserves a violation, until no single removal does.  [run] is a
   parameter so the strategy is testable against synthetic oracles. *)
let shrink ~run (s : Schedule.t) =
  let violates s = run s <> [] in
  let rec go s =
    let n = List.length s in
    let rec try_without i =
      if i >= n then s
      else
        let candidate = List.filteri (fun j _ -> j <> i) s in
        if violates candidate then go candidate else try_without (i + 1)
    in
    if n <= 1 then s else try_without 0
  in
  go s

type sweep_failure = {
  schedule : Schedule.t;
  minimal : Schedule.t;
  violations : violation list;
}

type sweep_report = {
  depth : int;
  limit : int;
  schedules_run : int;
  baseline_frames : int;
  failure : sweep_failure option;
}

(* Shared sweep driver: run every schedule of a (lazy, deterministic)
   enumeration and stop at the first violation (shrunk to a minimal
   reproducer) or at [limit].

   Execution is chunked through {!Vsim.Pool}: each chunk of the
   enumeration becomes a batch of jobs, results come back in enumeration
   order, and the first violating schedule is found by scanning the
   batch in order.  Because the scan stops at the first violation,
   [schedules_run] — the 1-based index of the violating schedule, or the
   total enumerated when clean — does not depend on [domains] or on
   chunk size: the report is byte-identical for any domain count.
   Chunks past the first violation are speculative work that is simply
   discarded.  Shrinking stays sequential — it is a chain of dependent
   runs. *)
let sweep_seq ~limit ~domains ~run seq0 =
  let seq = ref seq0 in
  let taken = ref 0 in
  let next_chunk k =
    let rec go acc k =
      if k = 0 || !taken >= limit then List.rev acc
      else
        match Seq.uncons !seq with
        | None -> List.rev acc
        | Some (s, rest) ->
            seq := rest;
            incr taken;
            go (s :: acc) (k - 1)
    in
    go [] k
  in
  (* Big chunks amortize Pool's per-call domain spawns; the price is
     at most a chunk of speculative runs past the first violation. *)
  let chunk = if domains <= 1 then 1 else 32 * domains in
  let ran = ref 0 in
  let failure = ref None in
  let rec loop () =
    match next_chunk chunk with
    | [] -> ()
    | batch ->
        let jobs =
          List.map
            (fun s -> Vsim.Job.v ~label:(Schedule.to_string s) (fun () -> run s))
            batch
        in
        let results = Vsim.Pool.run_list ~domains jobs in
        let rec scan ss rs =
          match (ss, rs) with
          | [], [] -> None
          | s :: ss', vs :: rs' -> (
              incr ran;
              match vs with [] -> scan ss' rs' | _ :: _ -> Some s)
          | _ -> assert false
        in
        (match scan batch results with
        | None -> loop ()
        | Some s ->
            let minimal = shrink ~run s in
            failure := Some { schedule = s; minimal; violations = run minimal })
  in
  loop ();
  (!ran, !failure)

(* Explore [sc]'s schedules over its baseline run's frame positions.
   The baseline run itself must be violation-free. *)
let sweep ?(depth = 2) ?(limit = 600) ?(actions = Schedule.default_actions)
    ?max_events ?seed ?(domains = Vsim.Pool.default_domains)
    (Scenario.T s as sc) =
  (match validate sc ~depth ~limit with
  | Error e -> invalid_arg ("Checker.sweep: " ^ invalid_to_string e)
  | Ok () -> ());
  let baseline = s.run ?max_events ?seed () in
  match s.violations baseline with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = s.frames baseline in
      let ran, failure =
        sweep_seq ~limit ~domains
          ~run:(run_schedule ?max_events ?seed sc)
          (s.enumerate ~depth ~frames ~actions)
      in
      Ok { depth; limit; schedules_run = ran; baseline_frames = frames; failure }

(* Deterministic JSON rendering of a sweep report: everything in it is a
   pure function of the sweep inputs, never of wall clock or [domains],
   so CI can byte-compare this output across domain counts. *)
let report_to_json (r : sweep_report) =
  let open Vobs.Json in
  let failure =
    match r.failure with
    | None -> Null
    | Some f ->
        Obj
          [
            ("schedule", Str (Schedule.to_string f.schedule));
            ("minimal", Str (Schedule.to_string f.minimal));
            ( "violations",
              List
                (List.map
                   (fun v ->
                     Obj
                       [
                         ("invariant", Str v.invariant);
                         ("detail", Str v.detail);
                       ])
                   f.violations) );
          ]
  in
  to_string
    (Obj
       [
         ("checker", Str "vcheck");
         ("depth", Int r.depth);
         ("limit", Int r.limit);
         ("schedules_run", Int r.schedules_run);
         ("baseline_frames", Int r.baseline_frames);
         ("ok", Bool (r.failure = None));
         ("failure", failure);
       ])

let repro_file_contents (s : Schedule.t) (vs : violation list) =
  let b = Buffer.create 256 in
  Buffer.add_string b "# vcheck minimal reproducer -- replay with: vsim check --repro FILE\n";
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "# violates %s: %s\n" v.invariant v.detail))
    vs;
  Buffer.add_string b (Schedule.to_string s);
  Buffer.add_char b '\n';
  Buffer.contents b
