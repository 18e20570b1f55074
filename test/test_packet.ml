(* Tests for interkernel packet serialization. *)

let all_ops =
  [
    Vkernel.Packet.Send; Vkernel.Packet.Reply; Vkernel.Packet.Reply_pending;
    Vkernel.Packet.Nack; Vkernel.Packet.Data_mt; Vkernel.Packet.Data_mf;
    Vkernel.Packet.Data_ack; Vkernel.Packet.Data_nak;
    Vkernel.Packet.Move_from_req; Vkernel.Packet.Getpid_req;
    Vkernel.Packet.Getpid_reply;
  ]

let test_roundtrip_all_ops () =
  List.iter
    (fun op ->
      let msg = Vkernel.Msg.create () in
      Vkernel.Msg.set_u32 msg 4 42;
      let pkt =
        Vkernel.Packet.make ~op
          ~src_pid:(Vkernel.Pid.make ~host:1 ~local:2)
          ~dst_pid:(Vkernel.Pid.make ~host:3 ~local:4)
          ~seq:77 ~offset:1024 ~total:4096 ~aux:555 ~msg
          ~data:(Bytes.of_string "hello") ()
      in
      match Vkernel.Packet.of_bytes (Vkernel.Packet.to_bytes pkt) with
      | Error e -> Alcotest.failf "%s: %s" (Vkernel.Packet.op_to_string op) e
      | Ok pkt' ->
          Alcotest.(check string)
            (Vkernel.Packet.op_to_string op)
            (Format.asprintf "%a" Vkernel.Packet.pp pkt)
            (Format.asprintf "%a" Vkernel.Packet.pp pkt');
          Alcotest.(check bytes) "data" (Vkernel.Packet.data pkt)
            (Vkernel.Packet.data pkt');
          Alcotest.(check int) "msg word" 42
            (Vkernel.Msg.get_u32 pkt'.Vkernel.Packet.msg 4))
    all_ops

let test_roundtrip_random =
  Util.qtest "packet roundtrip (random fields)"
    QCheck.(
      quad (int_bound 0xFFFFFF) (int_bound 0xFFFFFF) (int_bound 0xFFFFFF)
        (string_of_size (Gen.int_bound 1024)))
    (fun (seq, offset, total, data) ->
      let pkt =
        Vkernel.Packet.make ~op:Vkernel.Packet.Data_mt
          ~src_pid:(Vkernel.Pid.make ~host:9 ~local:9)
          ~dst_pid:(Vkernel.Pid.make ~host:8 ~local:8)
          ~seq ~offset ~total ~data:(Bytes.of_string data) ()
      in
      match Vkernel.Packet.of_bytes (Vkernel.Packet.to_bytes pkt) with
      | Error _ -> false
      | Ok p ->
          p.Vkernel.Packet.seq = seq
          && p.Vkernel.Packet.offset = offset
          && p.Vkernel.Packet.total = total
          && Bytes.to_string (Vkernel.Packet.data p) = data)

let test_wire_length () =
  let pkt =
    Vkernel.Packet.make ~op:Vkernel.Packet.Send
      ~src_pid:(Vkernel.Pid.make ~host:1 ~local:1)
      ~dst_pid:(Vkernel.Pid.make ~host:2 ~local:1)
      ~seq:1 ()
  in
  (* A bare message exchange packet is exactly 64 bytes: this is what the
     network-penalty comparison in Table 5-1 relies on. *)
  Alcotest.(check int) "message packet is 64 bytes" 64
    (Vkernel.Packet.wire_length pkt);
  let pkt512 =
    { pkt with Vkernel.Packet.buf = Bytes.make 512 'x'; data_len = 512 }
  in
  Alcotest.(check int) "page packet is 576 bytes" 576
    (Vkernel.Packet.wire_length pkt512)

let test_parse_errors () =
  (match Vkernel.Packet.of_bytes (Bytes.make 10 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short packet accepted");
  let bad_op = Bytes.make 64 '\000' in
  Bytes.set bad_op 0 '\255';
  (match Vkernel.Packet.of_bytes bad_op with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad op accepted");
  (* Length mismatch: header claims more data than the frame carries. *)
  let pkt =
    Vkernel.Packet.make ~op:Vkernel.Packet.Send
      ~src_pid:(Vkernel.Pid.make ~host:1 ~local:1)
      ~dst_pid:(Vkernel.Pid.make ~host:2 ~local:1)
      ~seq:1 ~data:(Bytes.make 100 'x') ()
  in
  let wire = Vkernel.Packet.to_bytes pkt in
  let truncated = Bytes.sub wire 0 (Bytes.length wire - 10) in
  match Vkernel.Packet.of_bytes truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated packet accepted"

(* Two decodes agree when both fail with the same message, or both
   succeed with the same header, message and data. *)
let same_decode a b =
  match a, b with
  | Error e, Error f -> e = f
  | Ok p, Ok q ->
      Format.asprintf "%a" Vkernel.Packet.pp p
      = Format.asprintf "%a" Vkernel.Packet.pp q
      && p.Vkernel.Packet.aux = q.Vkernel.Packet.aux
      && Bytes.equal p.Vkernel.Packet.msg q.Vkernel.Packet.msg
      && Bytes.equal (Vkernel.Packet.data p) (Vkernel.Packet.data q)
  | Ok _, Error _ | Error _, Ok _ -> false

(* Decoding in place behind [off] bytes of anything (an IP header's room)
   must equal decoding the bytes after them, for good frames and for
   truncated or padded ones alike. *)
let test_decode_at_offset =
  Util.qtest "decode at an offset = decode of the sub-buffer"
    QCheck.(
      quad (string_of_size (Gen.int_bound 40))
        (string_of_size (Gen.int_bound 1100))
        (int_range (-70) 4) (int_bound 0xFFFFFF))
    (fun (pad, data, trim, seq) ->
      let msg = Vkernel.Msg.create () in
      Vkernel.Msg.set_u32 msg 8 seq;
      let pkt =
        Vkernel.Packet.make ~op:Vkernel.Packet.Data_mf
          ~src_pid:(Vkernel.Pid.make ~host:5 ~local:6)
          ~dst_pid:(Vkernel.Pid.make ~host:7 ~local:8)
          ~seq ~offset:(seq / 3) ~total:(seq / 2) ~aux:11 ~msg
          ~data:(Bytes.of_string data) ()
      in
      let wire = Vkernel.Packet.to_bytes pkt in
      (* [trim] > 0 appends junk, < 0 cuts the frame short. *)
      let len = max 0 (Bytes.length wire + trim) in
      let body = Bytes.make len 'j' in
      Bytes.blit wire 0 body 0 (min len (Bytes.length wire));
      let off = String.length pad in
      let framed = Bytes.cat (Bytes.of_string pad) body in
      same_decode
        (Vkernel.Packet.of_bytes ~off framed)
        (Vkernel.Packet.of_bytes (Bytes.sub framed off len))
      && (trim <> 0 || same_decode (Vkernel.Packet.of_bytes ~off framed) (Ok pkt)))

(* Receivers decode into views of the one frame the medium hands all of
   them, so none may write it.  A Send with a piggybacked segment to a
   host not yet mapped goes out as a broadcast: the server, a bystander
   kernel and a tap all receive that frame.  Once every receiver has
   handled it, its payload must be byte for byte what was sent, and the
   server must have received the piggybacked head of the segment
   intact. *)
let test_broadcast_payload_untouched =
  Util.qtest ~count:25 "broadcast payload unchanged by its receivers"
    QCheck.(string_of_size (Gen.int_range 1 1024))
    (fun data ->
      let module K = Vkernel.Kernel in
      let eng = Vsim.Engine.create () in
      let medium = Vnet.Medium.create eng Vnet.Medium.config_10mb in
      let mk ~addr ~host =
        let cpu =
          Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_10mhz
            ~name:(Printf.sprintf "cpu%d" addr)
        in
        K.create_mapped eng ~cpu ~host
          ~nic:(Vnet.Nic.create eng ~cpu ~medium ~addr) ()
      in
      let k1 = mk ~addr:7 ~host:4000 and k2 = mk ~addr:9 ~host:5000 in
      let (_ : K.t) = mk ~addr:11 ~host:6000 in
      let seen = ref [] in
      let (_ : Vnet.Medium.port) =
        Vnet.Medium.attach_tap medium ~addr:33 ~rx:(fun f ->
            if Vnet.Frame.is_broadcast f then
              seen := (f, Bytes.copy f.Vnet.Frame.payload) :: !seen)
      in
      let n = String.length data in
      let got = ref Bytes.empty in
      let server =
        K.spawn k2 ~name:"server" (fun pid ->
            let msg = Vkernel.Msg.create () in
            let src, count = K.receive_with_segment k2 msg ~segptr:0 ~segsize:n in
            got := Vkernel.Mem.read (K.memory k2 pid) ~pos:0 ~len:count;
            ignore (K.reply k2 msg src))
      in
      let (_ : Vkernel.Pid.t) =
        K.spawn k1 ~name:"client" (fun pid ->
            Vkernel.Mem.write (K.memory k1 pid) ~pos:0 (Bytes.of_string data);
            let msg = Vkernel.Msg.create () in
            Vkernel.Msg.set_segment msg Vkernel.Msg.Read_only ~ptr:0 ~len:n;
            ignore (K.send k1 msg server))
      in
      Vsim.Engine.run eng;
      !seen <> []
      && List.for_all
           (fun (f, sent) -> Bytes.equal f.Vnet.Frame.payload sent)
           !seen
      && Bytes.to_string !got
         = String.sub data 0 (min n K.default_config.K.max_seg_append))

let suite =
  [
    Alcotest.test_case "roundtrip all ops" `Quick test_roundtrip_all_ops;
    test_roundtrip_random;
    Alcotest.test_case "wire lengths" `Quick test_wire_length;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    test_decode_at_offset;
    test_broadcast_payload_untouched;
  ]
