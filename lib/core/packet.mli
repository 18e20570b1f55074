(** The interkernel packet protocol.

    Interkernel packets ride directly on raw data-link frames — the paper
    measured a 20% penalty for layered (IP) headers and chose not to burden
    the dominant local-net case (Section 3, point 2).  Reliability is built
    straight on this unreliable datagram service: the reply message doubles
    as the acknowledgement of a Send, and bulk data transfers carry a
    single acknowledgement at the end (Section 3, points 3 and 5).

    Wire format: a 64-byte header block (which embeds the 32-byte user
    message) followed by optional appended data — a piggybacked segment
    prefix, a reply segment, or a data-transfer fragment.

    {v
    offset  field
    0       op
    1       flags
    2..3    reserved (zero)
    4..7    source pid
    8..11   destination pid
    12..15  sequence / transaction id
    16..19  offset   (data fragment offset; dest ptr for reply segments;
                      expected offset in NAKs and MoveFrom requests)
    20..23  total    (total transfer size in bytes)
    24..27  data_len (bytes appended after the header)
    28..31  aux      (MoveFrom source ptr; GetPid logical id and scope)
    32..63  the 32-byte user message
    64..    appended data
    v} *)

type op =
  | Send  (** a Send, possibly with a piggybacked segment prefix *)
  | Reply  (** a Reply, possibly with an appended reply segment *)
  | Reply_pending
      (** receiver is alive but has not replied; suppresses retransmission
          escalation *)
  | Nack  (** destination process does not exist *)
  | Data_mt  (** MoveTo data fragment, kernel-to-kernel *)
  | Data_mf  (** MoveFrom data fragment (the "acknowledging data") *)
  | Data_ack  (** single acknowledgement closing a MoveTo *)
  | Data_nak
      (** receiver saw a gap; [offset] tells the sender where to resume
          (retransmission from the last correctly received packet) *)
  | Move_from_req  (** request to stream a remote segment back *)
  | Getpid_req  (** broadcast logical-id lookup *)
  | Getpid_reply
  | Fwd_notice
      (** tells a blocked sender's kernel its message was forwarded:
          retransmissions and grant checks retarget to the new recipient
          ([aux] carries the new pid) *)

type t = {
  op : op;
  src_pid : Pid.t;
  dst_pid : Pid.t;
  seq : int;  (** message sequence number / transfer transaction id *)
  offset : int;
  total : int;
  aux : int;
  msg : Msg.t;
  buf : Bytes.t;
      (** holds the appended data at [data_off, data_off + data_len).  A
          decoded packet's [buf] is the frame payload itself, a view and
          not a copy.  That is safe because no one writes a payload once
          it is on the wire: the medium hands one frame to every
          receiver of a broadcast, and corruption is only a flag on the
          frame. *)
  data_off : int;
  data_len : int;  (** appended bytes; may be 0 *)
}

val make :
  op:op ->
  src_pid:Pid.t ->
  dst_pid:Pid.t ->
  seq:int ->
  ?offset:int ->
  ?total:int ->
  ?aux:int ->
  ?msg:Msg.t ->
  ?data:Bytes.t ->
  unit ->
  t
(** [data] is taken as it is, not copied. *)

val data : t -> Bytes.t
(** A fresh copy of the appended data. *)

val header_bytes : int
(** 64: the fixed header block, user message included. *)

val wire_length : t -> int
(** Bytes this packet occupies as a frame payload. *)

(** {1 The data path}

    A MoveTo or MoveFrom fragment crosses the host heap once on its way
    from the sender's space to the receiver's:

    - the sender encodes it with {!to_bytes_from}, which writes the
      header and copies the fragment straight out of the sender's
      {!Mem.t} into the one frame buffer;
    - the medium delivers that buffer, shared, to every receiver;
    - the receiver decodes it with {!of_bytes} into a view and copies
      the data from the frame into its own {!Mem.t}.

    That is two copies per fragment, the ones the paper's cost analysis
    counts (to and from the interface).  There used to be four: a read
    out of the space, the header-and-data encode, a [Bytes.sub] of the
    data on decode and the final blit; [ip_header_mode] added two more,
    one to prepend the IP header room and one to strip it.  Only the
    32-byte user message is still copied on decode. *)

val to_bytes : ?pad:int -> t -> Bytes.t
(** The frame payload: [pad] zero bytes (default 0; room for an IP
    header), the header, then the appended data. *)

val to_bytes_from :
  ?pad:int -> t -> Mem.t -> pos:int -> len:int -> Bytes.t
(** [to_bytes] of a fragment whose [len] appended bytes are read from
    [pos] of the space at this instant, straight into the frame.  The
    packet's own data must be empty.  Raises [Invalid_argument] on a bad
    range, as {!Mem.blit_out} does. *)

val of_bytes : ?off:int -> Bytes.t -> (t, string) result
(** Decode the packet that starts at [off] (default 0) and runs to the
    end of the buffer.  The result's data is a view into the buffer.
    Raises [Invalid_argument] if [off] lies outside the buffer. *)

val op_to_string : op -> string
val pp : Format.formatter -> t -> unit
