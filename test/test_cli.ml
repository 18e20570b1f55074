(* The vsim command line is total: every bad input prints a message and
   exits 2, never an uncaught exception, a silently adjusted run or a
   row of nan. *)

let vsim =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/vsim.exe"

(* Exit status and stderr of one vsim run; stdout is discarded. *)
let run args =
  let err = Filename.temp_file "vsim" ".err" in
  let code =
    Sys.command
      (Filename.quote_command vsim args ~stdout:Filename.null ~stderr:err)
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, String.trim msg)

let test_bad_inputs_exit_2 () =
  List.iter
    (fun args ->
      let code, msg = run args in
      let name = String.concat " " args in
      Alcotest.(check int) (name ^ ": exit status") 2 code;
      Alcotest.(check bool) (name ^ ": says why") true (msg <> ""))
    [
      [ "boot"; "--pages"; "0" ];
      [ "boot"; "--pages"; "70000" ];
      [ "boot"; "--page-bytes"; "100000" ];
      [ "boot"; "--page-bytes"; "0" ];
      [ "boot"; "--topology"; "bogus" ];
      [ "boot"; "--topology"; "10mb:8" ];
      [ "boot"; "--clients"; "8"; "--topology"; "3mb:0,10mb:4" ];
      [ "capacity"; "--clients"; "253"; "--duration"; "1" ];
      [ "capacity"; "--clients"; "2"; "--duration"; "0" ];
      [ "capacity"; "--workers"; "0" ];
    ]

(* The older subcommands validate their flags with the same converters:
   at the parent of this change each of these raised an uncaught
   exception or printed a time for a run that could not happen. *)
let test_older_subcommands_exit_2 () =
  List.iter
    (fun args ->
      let code, msg = run args in
      let name = String.concat " " args in
      Alcotest.(check int) (name ^ ": exit status") 2 code;
      Alcotest.(check bool) (name ^ ": says why") true (msg <> ""))
    [
      [ "ipc"; "--mhz"; "0" ];
      [ "ipc"; "--trials"; "0" ];
      [ "ipc"; "--trials=-1" ];
      [ "ipc"; "--net"; "5" ];
      [ "seq"; "--pages"; "0" ];
      [ "seq"; "--pages"; "200" ];
      [ "seq"; "--latency=-1" ];
      [ "fault"; "--timeout=-5" ];
      [ "fault"; "--drop"; "1.5" ];
      [ "fault"; "--corrupt=-0.1" ];
      [ "move"; "--bytes"; "300000" ];
      [ "move"; "--bytes=-5" ];
      [ "penalty"; "--bytes"; "1537" ];
      [ "capacity"; "--think=-5" ];
      [ "page"; "--cache-blocks"; "4"; "--cache-policy"; "zz" ];
      [ "page"; "--cache-blocks=-1" ];
    ]

let suite =
  [
    Alcotest.test_case "bad inputs exit 2" `Quick test_bad_inputs_exit_2;
    Alcotest.test_case "older subcommands: bad inputs exit 2" `Quick
      test_older_subcommands_exit_2;
  ]
