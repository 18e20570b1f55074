module K = Vkernel.Kernel
module Io = Vfs.Client.Io
module Sharded = Vfs.Client.Sharded

type report = {
  completed : bool;
  events : int;
  frames : int;
  crashes : int;
  restarts_ignored : int;
  took_over : bool;
  probes : int;
  ops : Scenario.op_result list;
  acked : int list;  (** shard-A blocks whose write the client saw acked *)
  acked_lost : int list;
  torn : int list;
  fsck : string list;
  kernels : Scenario.kernel_probe list;
      (** live hosts only: a crash-stopped host's tables are not
          required to drain *)
  medium : Vnet.Medium.stats;
}

let file_a = "a/data"
let file_b = "b/data"
let shard_a = Vfs.Names.shard_logical_id 0
let shard_b = Vfs.Names.shard_logical_id 1
let blocks_a = 4
let written_blocks = [ 1; 2 ]
let bs = Vfs.Fs.block_size
let journal_blocks = 64

(* open a, read a, open b, read b, write@1, write@2, readback, close b,
   close a *)
let op_count = 9
let default_max_events = 4_000_000

let names () =
  Vfs.Names.make
    [
      { Vfs.Names.prefix = "a/"; logical_id = shard_a };
      { Vfs.Names.prefix = "b/"; logical_id = shard_b };
    ]

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events)
    ?seed () =
  let tb =
    Vworkload.Testbed.create ?seed ~hosts:4
      ~kernel_config:Workload.fast_config ()
  in
  let eng = tb.Vworkload.Testbed.eng in
  let medium = tb.Vworkload.Testbed.medium in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 and k3 = kernel 3 and k4 = kernel 4 in
  let fs_a =
    Vworkload.Testbed.make_test_fs tb ~host:2 ~journal_blocks
      ~files:[ (file_a, blocks_a * bs) ]
      ()
  in
  let fs_b =
    Vworkload.Testbed.make_test_fs tb ~host:4 ~files:[ (file_b, 2 * bs) ] ()
  in
  let server_for lid =
    { Vfs.Server.default_config with Vfs.Server.register_id = Some lid }
  in
  let (_ : Vfs.Server.t) =
    Vfs.Server.start k2 fs_a ~config:(server_for shard_a) ()
  in
  let (_ : Vfs.Server.t) =
    Vfs.Server.start k4 fs_b ~config:(server_for shard_b) ()
  in
  let replica =
    Vfs.Replica.standby k3 fs_a ~logical_id:shard_a
      ~server_config:(server_for shard_a)
      ~heartbeat_ns:(Vsim.Time.ms 15) ()
  in
  let crashes = ref 0 and restarts_ignored = ref 0 in
  Vnet.Medium.set_host_handler medium
    ~crash:(fun () ->
      incr crashes;
      K.crash k2)
    ~restart:(fun () ->
      (* Crash-stop: the primary never returns (no fencing, see the
         interface). *)
      incr restarts_ignored);
  let ops = ref [] in
  let record op ok detail = ops := { Scenario.op; ok; detail } :: !ops in
  let acked = ref [] in
  let client_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"failover-client" (fun _ ->
        (* The open prologue retries from a fresh sharded client each
           time (the stale one may hold a connection to the dead
           incarnation), dropping the cached GetPid binding so
           re-resolution goes back on the wire and finds whichever host
           serves the shard now. *)
        let mk_sharded () =
          Sharded.make
            ~mk_cache:(fun () ->
              Some
                (Vfs.Cache.create eng ~host:1
                   {
                     Vfs.Cache.capacity_blocks = 8;
                     policy = Vfs.Cache.Write_through;
                   }))
            ~recover:true k1 (names ())
        in
        let open_a () =
          let sh = mk_sharded () in
          Result.map (fun f -> (sh, f)) (Sharded.open_file sh file_a)
        in
        match
          Scenario.retry_open ~tries:40
            ~between:(fun () -> K.forget_pid k1 ~logical_id:shard_a)
            open_a
        with
        | Error detail -> record "open-a" false detail
        | Ok (sh, fa) -> (
            record "open-a" true "ok";
            Scenario.record_read record "read-a" ~expect:(Scenario.old_block 0)
              (Io.read fa ~off:0 ~len:bs);
            let fb =
              match Sharded.open_file sh file_b with
              | Ok fb ->
                  record "open-b" true "ok";
                  Some fb
              | Error e ->
                  record "open-b" false (Vfs.Client.error_to_string e);
                  None
            in
            Option.iter
              (fun fb ->
                Scenario.record_read record "read-b"
                  ~expect:(Scenario.old_block 0) (Io.read fb ~off:0 ~len:bs))
              fb;
            List.iter
              (fun b ->
                let op = Printf.sprintf "write@%d" b in
                match Io.write fa ~off:(b * bs) (Scenario.new_block b) with
                | Ok n when n = bs ->
                    acked := b :: !acked;
                    record op true "ok"
                | Ok n -> record op false (Printf.sprintf "short write %d" n)
                | Error e -> record op false (Vfs.Client.error_to_string e))
              written_blocks;
            Scenario.record_read record "readback"
              ~expect:(Bytes.concat Bytes.empty
                         (List.map Scenario.new_block written_blocks))
              (Io.read fa ~off:bs ~len:(2 * bs));
            Option.iter
              (fun fb -> Scenario.record_result record "close-b" (Io.close fb))
              fb;
            Scenario.record_result record "close-a" (Io.close fa);
            (* Quiesce the run: the standby's heartbeat loop would
               otherwise probe forever. *)
            Vfs.Replica.stop replica;
            client_done := true))
  in
  Vnet.Medium.set_fault medium fault;
  let quiescent, events = Scenario.quiesce ~max_events eng in
  let completed = quiescent && !client_done in
  let acked = List.rev !acked in
  (* Post-mortem audit straight at shard A's filesystem.  If the primary
     died and no standby recovered the disk, recover it here (carrying
     the disk to another machine). *)
  let audit = ref ([], [], []) in
  if quiescent then
    Vworkload.Testbed.run_proc tb ~name:"audit" (fun () ->
        if K.is_down k2 && not (Vfs.Replica.took_over replica) then
          Vfs.Fs.recover fs_a;
        let lost, torn, fsck =
          Scenario.audit_blocks fs_a ~file:file_a ~blocks:blocks_a ~acked
            ~vanished:"audit: shard-A file vanished"
        in
        audit := (lost, torn, fsck @ Vfs.Fs.check fs_b));
  let acked_lost, torn, fsck = !audit in
  let mstats = Vnet.Medium.stats medium in
  {
    completed;
    events;
    frames = Scenario.completed_frames mstats;
    crashes = !crashes;
    restarts_ignored = !restarts_ignored;
    took_over = Vfs.Replica.took_over replica;
    probes = Vfs.Replica.probes replica;
    ops = List.rev !ops;
    acked;
    acked_lost;
    torn;
    fsck;
    kernels =
      List.filter_map
        (fun ((_, k) as host) ->
          if K.is_down k then None else Some (Scenario.probe host))
        [ (1, k1); (2, k2); (3, k3); (4, k4) ];
    medium = mstats;
  }
