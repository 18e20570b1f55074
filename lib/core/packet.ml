type op =
  | Send
  | Reply
  | Reply_pending
  | Nack
  | Data_mt
  | Data_mf
  | Data_ack
  | Data_nak
  | Move_from_req
  | Getpid_req
  | Getpid_reply
  | Fwd_notice

type t = {
  op : op;
  src_pid : Pid.t;
  dst_pid : Pid.t;
  seq : int;
  offset : int;
  total : int;
  aux : int;
  msg : Msg.t;
  buf : Bytes.t;
  data_off : int;
  data_len : int;
}

let header_bytes = 64

let op_to_byte = function
  | Send -> 1
  | Reply -> 2
  | Reply_pending -> 3
  | Nack -> 4
  | Data_mt -> 5
  | Data_mf -> 6
  | Data_ack -> 7
  | Data_nak -> 8
  | Move_from_req -> 9
  | Getpid_req -> 10
  | Getpid_reply -> 11
  | Fwd_notice -> 12

let op_of_byte = function
  | 1 -> Some Send
  | 2 -> Some Reply
  | 3 -> Some Reply_pending
  | 4 -> Some Nack
  | 5 -> Some Data_mt
  | 6 -> Some Data_mf
  | 7 -> Some Data_ack
  | 8 -> Some Data_nak
  | 9 -> Some Move_from_req
  | 10 -> Some Getpid_req
  | 11 -> Some Getpid_reply
  | 12 -> Some Fwd_notice
  | _ -> None

let op_to_string = function
  | Send -> "send"
  | Reply -> "reply"
  | Reply_pending -> "reply-pending"
  | Nack -> "nack"
  | Data_mt -> "data-mt"
  | Data_mf -> "data-mf"
  | Data_ack -> "data-ack"
  | Data_nak -> "data-nak"
  | Move_from_req -> "movefrom-req"
  | Getpid_req -> "getpid-req"
  | Getpid_reply -> "getpid-reply"
  | Fwd_notice -> "fwd-notice"

let make ~op ~src_pid ~dst_pid ~seq ?(offset = 0) ?(total = 0) ?(aux = 0)
    ?msg ?(data = Bytes.empty) () =
  let msg = match msg with Some m -> Msg.copy m | None -> Msg.create () in
  if not (Msg.is_msg msg) then invalid_arg "Packet.make: bad message size";
  { op; src_pid; dst_pid; seq; offset; total; aux; msg; buf = data;
    data_off = 0; data_len = Bytes.length data }

let data t = Bytes.sub t.buf t.data_off t.data_len
let wire_length t = header_bytes + t.data_len

let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

(* A zeroed frame payload with [t]'s header at [pad], announcing
   [data_len] appended bytes that the caller writes after it. *)
let header ~pad t ~data_len =
  let b = Bytes.make (pad + header_bytes + data_len) '\000' in
  Bytes.set b pad (Char.chr (op_to_byte t.op));
  set32 b (pad + 4) (Pid.to_int t.src_pid);
  set32 b (pad + 8) (Pid.to_int t.dst_pid);
  set32 b (pad + 12) t.seq;
  set32 b (pad + 16) t.offset;
  set32 b (pad + 20) t.total;
  set32 b (pad + 24) data_len;
  set32 b (pad + 28) t.aux;
  Bytes.blit t.msg 0 b (pad + 32) Msg.length;
  b

let to_bytes ?(pad = 0) t =
  let b = header ~pad t ~data_len:t.data_len in
  Bytes.blit t.buf t.data_off b (pad + header_bytes) t.data_len;
  b

let to_bytes_from ?(pad = 0) t mem ~pos ~len =
  if t.data_len <> 0 then invalid_arg "Packet.to_bytes_from: packet has data";
  let b = header ~pad t ~data_len:len in
  Mem.blit_out mem ~pos b ~dst_off:(pad + header_bytes) ~len;
  b

let of_bytes ?(off = 0) b =
  if off < 0 || off > Bytes.length b then invalid_arg "Packet.of_bytes: offset";
  let len = Bytes.length b - off in
  if len < header_bytes then
    Error (Printf.sprintf "packet too short: %d bytes" len)
  else
    let code = Char.code (Bytes.get b off) in
    match op_of_byte code with
    | None -> Error (Printf.sprintf "bad op byte %d" code)
    | Some op ->
        let data_len = get32 b (off + 24) in
        if header_bytes + data_len <> len then
          Error
            (Printf.sprintf "length mismatch: header says %d, frame has %d"
               data_len (len - header_bytes))
        else
          Ok
            {
              op;
              src_pid = Pid.of_int (get32 b (off + 4));
              dst_pid = Pid.of_int (get32 b (off + 8));
              seq = get32 b (off + 12);
              offset = get32 b (off + 16);
              total = get32 b (off + 20);
              aux = get32 b (off + 28);
              msg = Bytes.sub b (off + 32) Msg.length;
              buf = b;
              data_off = off + header_bytes;
              data_len;
            }

let pp fmt t =
  Format.fprintf fmt "pkt[%s %a->%a seq=%d off=%d tot=%d data=%d]"
    (op_to_string t.op) Pid.pp t.src_pid Pid.pp t.dst_pid t.seq t.offset
    t.total t.data_len
