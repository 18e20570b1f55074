(** Per-process address spaces.

    Each V process owns a byte-addressable space.  Segments named in
    messages, MoveTo/MoveFrom transfers and file buffers all refer to
    offsets in these spaces, and the kernel genuinely moves the bytes — so
    data-integrity properties (e.g. a page read returns exactly what was
    written, even under packet loss) are testable end to end.

    A space is page-granular and zero-fill-on-demand, as a diskless
    workstation's memory is backed only where it is touched.  It is an
    array of 4 KB pages that all start as one shared, never-written zero
    page; the first write to a page gives it a private copy.  Creating a
    space costs O(pages) pointers, not [size] zeroed bytes, and a read of
    an untouched page yields zeros. *)

type t

val create : size:int -> t
val size : t -> int

val valid : t -> pos:int -> len:int -> bool
(** The range lies within the space ([len >= 0]). *)

val read : t -> pos:int -> len:int -> Bytes.t
(** Copy bytes out. Raises [Invalid_argument] on a bad range — kernel code
    must check {!valid} first and fail with a proper status. *)

val write : t -> pos:int -> Bytes.t -> unit
(** Copy bytes in. Raises [Invalid_argument] on a bad range. *)

val blit_out : t -> pos:int -> Bytes.t -> dst_off:int -> len:int -> unit
val blit_in : t -> pos:int -> Bytes.t -> src_off:int -> len:int -> unit

val fill : t -> pos:int -> len:int -> char -> unit

val transfer :
  src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Cross-space copy (the local MoveTo/MoveFrom data path). *)
