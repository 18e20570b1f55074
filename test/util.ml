(* Shared helpers for the test suite. *)

let check_ms ~tolerance name expected actual_ns =
  let actual = Vsim.Time.to_float_ms actual_ns in
  if Float.abs (actual -. expected) > tolerance then
    Alcotest.failf "%s: expected %.3f ms (+/- %.3f), got %.3f ms" name
      expected tolerance actual

let testbed ?seed ?medium_config ?cpu_model ?kernel_config ?(hosts = 2) () =
  Vworkload.Testbed.create ?seed ?medium_config ?cpu_model ?kernel_config
    ~hosts ()

(* Run [f] as a kernel process on the given host, drive the simulation to
   quiescence, and fail the test if [f] never completed. *)
let run_as_process (tb : Vworkload.Testbed.t) ~host f =
  let k = (Vworkload.Testbed.host tb host).Vworkload.Testbed.kernel in
  let completed = ref false in
  let (_ : Vkernel.Pid.t) =
    Vkernel.Kernel.spawn k ~name:"test-main" (fun pid ->
        f pid;
        completed := true)
  in
  Vworkload.Testbed.run tb;
  if not !completed then Alcotest.fail "test process did not run to completion"

(* A standard echo server: receives, increments byte 4 of the message,
   replies. *)
let start_echo_server (tb : Vworkload.Testbed.t) ~host =
  let k = (Vworkload.Testbed.host tb host).Vworkload.Testbed.kernel in
  Vkernel.Kernel.spawn k ~name:"echo" (fun _ ->
      let msg = Vkernel.Msg.create () in
      let rec loop () =
        let src = Vkernel.Kernel.receive k msg in
        Vkernel.Msg.set_u8 msg 4 ((Vkernel.Msg.get_u8 msg 4 + 1) land 0xFF);
        (match Vkernel.Kernel.reply k msg src with
        | Vkernel.Kernel.Ok -> ()
        | st ->
            Alcotest.failf "echo server reply failed: %s"
              (Vkernel.Kernel.status_to_string st));
        loop ()
      in
      loop ())

let pattern = Vworkload.Testbed.pattern_byte

let fill_pattern mem ~pos ~len =
  Vkernel.Mem.write mem ~pos (Bytes.init len (fun i -> pattern (pos + i)))

let check_pattern mem ~pos ~len ~name =
  let got = Vkernel.Mem.read mem ~pos ~len in
  let expect = Bytes.init len (fun i -> pattern (pos + i)) in
  if not (Bytes.equal got expect) then
    Alcotest.failf "%s: data mismatch at %d (+%d)" name pos len

let status = Alcotest.testable Vkernel.Kernel.pp_status ( = )

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Words allocated so far in either heap.  [Gc.minor_words] alone misses
   blocks too big for the minor heap, which go straight to the major
   one. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted
