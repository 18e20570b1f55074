module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module Mem = Vkernel.Mem

type report = {
  completed : bool;
  events : int;
  frames : int;
  ops : Scenario.op_result list;
  ledger : (string * int) list;
  pages_written : int;
  file_ok : bool;
  kernels : Scenario.kernel_probe list;
  medium : Vnet.Medium.stats;
}

(* The paper's protocol with a fast fixed T so faulted runs stay short:
   every retransmission costs 10 simulated milliseconds, and a depth-2
   schedule can force at most a handful of them. *)
let fast_config =
  { K.default_config with retransmit_timeout_ns = Vsim.Time.ms 10 }

let pattern = Vworkload.Testbed.pattern_byte

let move_len = 3000 (* 3 MoveTo fragments *)
let from_len = 2500 (* 3 MoveFrom fragments *)
let seg_len = 512
let io_block = 2 (* file block the cached write dirties *)

let default_max_events = 2_000_000

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events) ?seed
    () =
  let tb =
    Vworkload.Testbed.create ?seed ~hosts:3 ~kernel_config:fast_config ()
  in
  let eng = tb.Vworkload.Testbed.eng in
  let medium = tb.Vworkload.Testbed.medium in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 and k3 = kernel 3 in
  let fs =
    Vworkload.Testbed.make_test_fs tb ~host:2 ~files:[ ("data", 4 * 512) ] ()
  in
  let vfs_server = Vfs.Server.start k2 fs () in
  (* Server-side ledger: every request a server application actually
     processes.  The kernel's duplicate filtering must keep each at
     exactly one — a retransmission or duplicated frame that leaks
     through to the application shows up here. *)
  let ledger =
    [
      ("echo", ref 0);
      ("seg", ref 0);
      ("mover", ref 0);
      ("reader", ref 0);
      ("dispatcher", ref 0);
      ("worker", ref 0);
    ]
  in
  let count name = incr (List.assoc name ledger) in
  (* A server process: [handle pid] does any set-up, then handles each
     request after the ledger counts it. *)
  let serve k name handle =
    K.spawn k ~name (fun pid ->
        let handle = handle pid in
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k msg in
          count name;
          handle msg src;
          loop ()
        in
        loop ())
  in
  let echo =
    serve k2 "echo" (fun _ msg src ->
        Msg.set_u8 msg 4 ((Msg.get_u8 msg 4 + 1) land 0xff);
        ignore (K.reply k2 msg src))
  in
  let seg_srv =
    serve k2 "seg" (fun pid ->
        let mem = K.memory k2 pid in
        Mem.write mem ~pos:0 (Bytes.init seg_len (fun i -> pattern i));
        fun msg src ->
          match Msg.writable_segment msg with
          | Some (p, _) ->
              Msg.clear_segment msg;
              ignore
                (K.reply_with_segment k2 msg src ~destptr:p ~segptr:0
                   ~segsize:seg_len)
          | None -> ignore (K.reply k2 msg src))
  in
  let mover =
    serve k2 "mover" (fun pid ->
        let mem = K.memory k2 pid in
        Mem.write mem ~pos:0 (Bytes.init move_len (fun i -> pattern (i * 3)));
        fun msg src ->
          ignore (K.move_to k2 ~dst_pid:src ~dst:4096 ~src:0 ~count:move_len);
          ignore (K.reply k2 msg src))
  in
  let reader =
    serve k2 "reader" (fun pid ->
        let mem = K.memory k2 pid in
        fun msg src ->
          let st = K.move_from k2 ~src_pid:src ~dst:0 ~src:8192 ~count:from_len in
          let got = Mem.read mem ~pos:0 ~len:from_len in
          let expect = Bytes.init from_len (fun i -> pattern (8192 + i)) in
          let data_ok = Bytes.equal got expect in
          Msg.set_u8 msg 4 (if st = K.Ok && data_ok then 1 else 0);
          (* Diagnosis detail: the reader's status and data verdict. *)
          let code =
            match st with
            | K.Ok -> 0
            | K.Nonexistent -> 1
            | K.Bad_address -> 2
            | K.No_permission -> 3
            | K.Too_big -> 4
            | K.Retryable -> 5
            | K.Dead -> 6
          in
          Msg.set_u8 msg 5 code;
          Msg.set_u8 msg 6 (if data_ok then 1 else 0);
          ignore (K.reply k2 msg src))
  in
  let worker =
    serve k3 "worker" (fun _ msg src ->
        Msg.set_u8 msg 4 ((Msg.get_u8 msg 4 + 7) land 0xff);
        ignore (K.reply k3 msg src))
  in
  let dispatcher =
    serve k2 "dispatcher" (fun _ msg src ->
        ignore (K.forward k2 msg ~from_pid:src ~to_pid:worker))
  in
  let ops = ref [] in
  let record op ok detail = ops := { Scenario.op; ok; detail } :: !ops in
  let client_done = ref false in
  let io_expect = Bytes.init 512 (fun i -> pattern (1000 + i)) in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"client" (fun pid ->
        let mem = K.memory k1 pid in
        (* 1: basic Send/Reply. *)
        let msg = Msg.create () in
        Msg.set_u8 msg 4 41;
        let st = K.send k1 msg echo in
        record "srr"
          (st = K.Ok && Msg.get_u8 msg 4 = 42)
          (K.status_to_string st);
        (* 2: ReplyWithSegment into a write grant. *)
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Write_only ~ptr:2048 ~len:seg_len;
        let st = K.send k1 msg seg_srv in
        let got = Mem.read mem ~pos:2048 ~len:seg_len in
        let expect = Bytes.init seg_len (fun i -> pattern i) in
        record "reply-segment"
          (st = K.Ok && Bytes.equal got expect)
          (K.status_to_string st);
        (* 3: inbound MoveTo page train. *)
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_write ~ptr:4096 ~len:move_len;
        Msg.set_no_piggyback msg;
        let st = K.send k1 msg mover in
        let got = Mem.read mem ~pos:4096 ~len:move_len in
        let expect = Bytes.init move_len (fun i -> pattern (i * 3)) in
        record "move-to"
          (st = K.Ok && Bytes.equal got expect)
          (K.status_to_string st);
        (* 4: outbound MoveFrom page train; the reader verifies. *)
        Mem.write mem ~pos:8192
          (Bytes.init from_len (fun i -> pattern (8192 + i)));
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_only ~ptr:8192 ~len:from_len;
        Msg.set_no_piggyback msg;
        let st = K.send k1 msg reader in
        record "move-from"
          (st = K.Ok && Msg.get_u8 msg 4 = 1)
          (Printf.sprintf "send=%s reader-status=%d reader-data=%d"
             (K.status_to_string st) (Msg.get_u8 msg 5) (Msg.get_u8 msg 6));
        (* 5: Forward across three hosts; the reply bypasses the
           dispatcher. *)
        let msg = Msg.create () in
        Msg.set_u8 msg 4 30;
        let st = K.send k1 msg dispatcher in
        record "forward"
          (st = K.Ok && Msg.get_u8 msg 4 = 37)
          (K.status_to_string st);
        (* 6: cached write-back Io: GetPid broadcast, open, dirty one
           block, flush on close. *)
        let writeback =
          let ( let* ) = Result.bind in
          let* conn = Vfs.Client.connect k1 () in
          let cache =
            Vfs.Cache.create eng ~host:1
              { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_back }
          in
          let io = Vfs.Client.Io.make ~cache conn in
          let* f = Vfs.Client.Io.open_file io "data" in
          let* n =
            Vfs.Client.Io.write f ~off:(io_block * 512) (Bytes.copy io_expect)
          in
          let* () = Vfs.Client.Io.close f in
          Ok n
        in
        (match writeback with
        | Error e -> record "io-writeback" false (Vfs.Client.error_to_string e)
        | Ok n -> record "io-writeback" (n = 512) "ok");
        client_done := true)
  in
  Vnet.Medium.set_fault medium fault;
  let quiescent, events = Scenario.quiesce ~max_events eng in
  let completed = quiescent && !client_done in
  (* Audit the server's file system directly — not through the client's
     cache — so a lost or doubly-applied write cannot hide. *)
  let file_ok = ref false in
  if completed then
    Vworkload.Testbed.run_proc tb ~name:"audit" (fun () ->
        match Vfs.Fs.lookup fs "data" with
        | None -> ()
        | Some inum -> (
            match Vfs.Fs.read fs ~inum ~pos:(io_block * 512) ~len:512 with
            | Ok got -> file_ok := Bytes.equal got io_expect
            | Error _ -> ()));
  let mstats = Vnet.Medium.stats medium in
  {
    completed;
    events;
    frames = Scenario.completed_frames mstats;
    ops = List.rev !ops;
    ledger = List.map (fun (name, r) -> (name, !r)) ledger;
    pages_written = Vfs.Server.pages_written vfs_server;
    file_ok = !file_ok;
    kernels = List.map Scenario.probe [ (1, k1); (2, k2); (3, k3) ];
    medium = mstats;
  }

let op_count = 6
