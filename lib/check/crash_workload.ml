module K = Vkernel.Kernel
module Io = Vfs.Client.Io

type report = {
  completed : bool;
  events : int;
  frames : int;
  crashes : int;
  restarts : int;
  ops : Scenario.op_result list;
  acked : int list;
  acked_lost : int list;
  torn : int list;
  fsck : string list;
  kernels : Scenario.kernel_probe list;
  medium : Vnet.Medium.stats;
}

let file_name = "data"
let file_blocks = 4
let written_blocks = [ 1; 2; 3 ]
let bs = Vfs.Fs.block_size
let journal_blocks = 64

let op_count = 7 (* connect+open, read, 3 writes, readback, close *)

(* Twice the network-fault workload's budget: a crash run spends tens of
   simulated milliseconds in restart delays and recovery probes. *)
let default_max_events = 4_000_000

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events) ?seed
    () =
  let tb =
    Vworkload.Testbed.create ?seed ~hosts:2
      ~kernel_config:Workload.fast_config ()
  in
  let eng = tb.Vworkload.Testbed.eng in
  let medium = tb.Vworkload.Testbed.medium in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 in
  let fs =
    Vworkload.Testbed.make_test_fs tb ~host:2 ~journal_blocks
      ~files:[ (file_name, file_blocks * bs) ]
      ()
  in
  let (_ : Vfs.Server.t) = Vfs.Server.start k2 fs ~restartable:true () in
  let crashes = ref 0 and restarts = ref 0 in
  Vnet.Medium.set_host_handler medium
    ~crash:(fun () ->
      incr crashes;
      K.crash k2)
    ~restart:(fun () ->
      incr restarts;
      K.restart k2);
  let ops = ref [] in
  let record op ok detail = ops := { Scenario.op; ok; detail } :: !ops in
  let acked = ref [] in
  let client_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"crash-client" (fun _ ->
        let cache =
          Vfs.Cache.create eng ~host:1
            { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_through }
        in
        let open_file () =
          Result.bind (Vfs.Client.connect k1 ()) (fun conn ->
              Io.open_file (Io.make ~cache ~recover:true conn) file_name)
        in
        match Scenario.retry_open ~tries:30 ~between:ignore open_file with
        | Error detail -> record "open" false detail
        | Ok f -> (
            record "open" true "ok";
            Scenario.record_read record "read" ~expect:(Scenario.old_block 0)
              (Io.read f ~off:0 ~len:bs);
            List.iter
              (fun b ->
                let op = Printf.sprintf "write@%d" b in
                match Io.write f ~off:(b * bs) (Scenario.new_block b) with
                | Ok n when n = bs ->
                    acked := b :: !acked;
                    record op true "ok"
                | Ok n -> record op false (Printf.sprintf "short write %d" n)
                | Error e -> record op false (Vfs.Client.error_to_string e))
              written_blocks;
            Scenario.record_read record "readback"
              ~expect:(Bytes.concat Bytes.empty
                         (List.map Scenario.new_block written_blocks))
              (Io.read f ~off:bs ~len:(3 * bs));
            Scenario.record_result record "close" (Io.close f);
            client_done := true))
  in
  Vnet.Medium.set_fault medium fault;
  let quiescent, events = Scenario.quiesce ~max_events eng in
  let completed = quiescent && !client_done in
  let acked = List.rev !acked in
  (* Post-mortem audit, straight at the file system: what does the disk
     actually hold?  If the host died and never came back, run recovery
     here first — the model of carrying the disk to another machine. *)
  let audit = ref ([], [], []) in
  if quiescent then
    Vworkload.Testbed.run_proc tb ~name:"audit" (fun () ->
        if K.is_down k2 then Vfs.Fs.recover fs;
        audit :=
          Scenario.audit_blocks fs ~file:file_name ~blocks:file_blocks ~acked
            ~vanished:"audit: file vanished");
  let acked_lost, torn, fsck = !audit in
  let mstats = Vnet.Medium.stats medium in
  {
    completed;
    events;
    frames = Scenario.completed_frames mstats;
    crashes = !crashes;
    restarts = !restarts;
    ops = List.rev !ops;
    acked;
    acked_lost;
    torn;
    fsck;
    kernels = List.map Scenario.probe [ (1, k1); (2, k2) ];
    medium = mstats;
  }
