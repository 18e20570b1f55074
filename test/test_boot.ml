(* The boot-storm rig: multicast page distribution to diskless clients
   across the gateway, with NACK-driven repair rounds. *)

module Boot = Vworkload.Boot

let small_config = { Boot.default_config with Boot.pages = 32 }

let digest (r : Boot.report) =
  Printf.sprintf "%b/%d/%d/%d/%d/%d/%d/%d" r.Boot.completed r.Boot.rounds
    r.Boot.elapsed_ns r.Boot.server_cpu_ns r.Boot.wire_bytes r.Boot.events
    r.Boot.resent_pages r.Boot.statuses

let test_boot_completes () =
  let r =
    Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients:8)
      ()
  in
  Alcotest.(check bool) "completed" true r.Boot.completed;
  Alcotest.(check int) "clients" 8 r.Boot.clients;
  Alcotest.(check int) "every JOIN heard" 8 r.Boot.joins;
  Array.iteri
    (fun i got ->
      Alcotest.(check int) (Printf.sprintf "client %d holds the image" i) 32
        got)
    r.Boot.per_client_pages;
  (* The gateway re-broadcast pages onto the far segment: the far clients
     booted without a single unicast page transfer. *)
  Alcotest.(check bool) "pages crossed the gateway" true
    (r.Boot.gateway.Vnet.Gateway.rebroadcast > 0)

let test_boot_deterministic () =
  let run () =
    Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients:8)
      ()
  in
  Alcotest.(check string) "two storms, one digest" (digest (run ()))
    (digest (run ()))

(* Multicast economics: the wire carries one copy of the image per
   segment (plus repairs), so doubling the clients must not come close to
   doubling the bytes on the wire. *)
let test_multicast_sublinear () =
  let wire clients =
    let r =
      Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients)
        ()
    in
    Alcotest.(check bool) "completed" true r.Boot.completed;
    r.Boot.wire_bytes
  in
  let w8 = wire 8 and w16 = wire 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16 clients cost < 1.5x of 8 (%d vs %d bytes)" w16 w8)
    true
    (float_of_int w16 < 1.5 *. float_of_int w8)

let test_cost_per_1000 () =
  let r =
    Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients:8)
      ()
  in
  let cpu_s, bytes = Boot.cost_per_1000_clients r in
  Alcotest.(check (float 1e-9)) "cpu cell"
    (float_of_int r.Boot.server_cpu_ns /. 1e9 *. 125.0)
    cpu_s;
  Alcotest.(check (float 1e-6)) "bytes cell"
    (float_of_int r.Boot.wire_bytes *. 125.0)
    bytes

(* A storm that cannot finish (one round, and the 10mb -> 3mb gateway
   queue necessarily drops part of a 128-page blast) must quiesce with
   [completed = false], not hang. *)
let test_stall_quiesces () =
  let config = { Boot.default_config with Boot.max_rounds = 1 } in
  let segments =
    [
      { Vworkload.Topology.medium_config = Vnet.Medium.config_10mb;
        seg_hosts = 1 };
      { Vworkload.Topology.medium_config = Vnet.Medium.config_3mb;
        seg_hosts = 1 };
    ]
  in
  let r = Boot.run ~config ~segments () in
  Alcotest.(check bool) "not complete" false r.Boot.completed;
  Alcotest.(check bool) "quiesced within budget" true
    (r.Boot.events < Boot.default_max_events);
  Alcotest.(check bool) "the far client is missing pages" true
    (Array.exists (fun got -> got < 128) r.Boot.per_client_pages);
  Alcotest.(check bool) "the gateway dropped the overflow" true
    (r.Boot.gateway.Vnet.Gateway.queue_drops > 0)

(* The image limits are typed: the largest page still fits one frame on
   either kind of segment, and anything outside the limits is refused up
   front instead of failing inside the medium or booting empty pages. *)
let test_image_limits () =
  let segments = Boot.default_segments ~clients:2 in
  let run pages page_bytes =
    Boot.run ~config:{ small_config with Boot.pages; page_bytes } ~segments ()
  in
  let r = run 4 Boot.max_page_bytes in
  Alcotest.(check int) "largest page boots" Boot.max_page_bytes
    r.Boot.page_bytes;
  List.iter
    (fun (pages, page_bytes) ->
      match run pages page_bytes with
      | _ ->
          Alcotest.failf "%d pages of %d bytes: accepted" pages page_bytes
      | exception Invalid_argument m ->
          Alcotest.(check bool)
            (Printf.sprintf "%d x %d refused by Boot.run (%s)" pages
               page_bytes m)
            true
            (String.starts_with ~prefix:"Boot.run" m))
    [
      (0, 512);
      (Boot.max_pages + 1, 512);
      (4, 0);
      (4, Boot.max_page_bytes + 1);
    ]

let suite =
  [
    Alcotest.test_case "8 clients boot over two segments" `Quick
      test_boot_completes;
    Alcotest.test_case "boot storm is deterministic" `Quick
      test_boot_deterministic;
    Alcotest.test_case "wire cost is sublinear in clients" `Quick
      test_multicast_sublinear;
    Alcotest.test_case "cost_per_1000_clients cells" `Quick test_cost_per_1000;
    Alcotest.test_case "stalled storm quiesces incomplete" `Quick
      test_stall_quiesces;
    Alcotest.test_case "image limits" `Quick test_image_limits;
  ]
