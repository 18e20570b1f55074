let page_bits = 12
let page_size = 1 lsl page_bits

(* Every untouched page of every space is this one buffer.  Nothing ever
   writes it, so spaces on different domains may share it. *)
let zero_page = Bytes.make page_size '\000'

type t = { size : int; pages : Bytes.t array }

let create ~size =
  if size <= 0 then invalid_arg "Mem.create: size must be positive";
  { size; pages = Array.make ((size + page_size - 1) lsr page_bits) zero_page }

let size t = t.size
let valid t ~pos ~len = pos >= 0 && len >= 0 && pos + len <= t.size

let check t ~pos ~len what =
  if not (valid t ~pos ~len) then
    Fmt.invalid_arg "Mem.%s: range %d+%d outside space of %d bytes" what pos
      len t.size

(* The same test [Bytes.blit] makes, done before any page is touched. *)
let check_buf b ~off ~len =
  if off < 0 || off > Bytes.length b - len then invalid_arg "Bytes.blit"

(* Page [i], made private on first write. *)
let writable t i =
  let p = t.pages.(i) in
  if p != zero_page then p
  else
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p

(* Split [pos, pos + len) at page boundaries: [f i off k n] covers bytes
   [off, off + n) of page [i], which are bytes [k, k + n) of the range. *)
let chunks ~pos ~len f =
  let k = ref 0 in
  while !k < len do
    let p = pos + !k in
    let off = p land (page_size - 1) in
    let n = min (len - !k) (page_size - off) in
    f (p lsr page_bits) off !k n;
    k := !k + n
  done

let blit_out t ~pos dst ~dst_off ~len =
  check t ~pos ~len "blit_out";
  check_buf dst ~off:dst_off ~len;
  chunks ~pos ~len (fun i off k n ->
      Bytes.blit t.pages.(i) off dst (dst_off + k) n)

(* Most kernel copies are one packet's data inside one page: [read] and
   [blit_in] do those with a single copy and no closure. *)
let in_one_page ~pos ~len =
  len > 0 && (pos land (page_size - 1)) + len <= page_size

let blit_in t ~pos src ~src_off ~len =
  check t ~pos ~len "blit_in";
  check_buf src ~off:src_off ~len;
  if in_one_page ~pos ~len then
    Bytes.blit src src_off (writable t (pos lsr page_bits))
      (pos land (page_size - 1)) len
  else
    chunks ~pos ~len (fun i off k n ->
        Bytes.blit src (src_off + k) (writable t i) off n)

let read t ~pos ~len =
  check t ~pos ~len "read";
  if in_one_page ~pos ~len then
    Bytes.sub t.pages.(pos lsr page_bits) (pos land (page_size - 1)) len
  else
    let b = Bytes.create len in
    chunks ~pos ~len (fun i off k n -> Bytes.blit t.pages.(i) off b k n);
    b

let write t ~pos data =
  let len = Bytes.length data in
  check t ~pos ~len "write";
  blit_in t ~pos data ~src_off:0 ~len

let fill t ~pos ~len c =
  check t ~pos ~len "fill";
  chunks ~pos ~len (fun i off _ n ->
      if c <> '\000' then Bytes.fill (writable t i) off n c
      else if t.pages.(i) != zero_page then Bytes.fill t.pages.(i) off n c)

let transfer ~src ~src_pos ~dst ~dst_pos ~len =
  check src ~pos:src_pos ~len "transfer(src)";
  check dst ~pos:dst_pos ~len "transfer(dst)";
  if src == dst then
    (* Within one space the ranges may overlap: go through a copy. *)
    blit_in dst ~pos:dst_pos (read src ~pos:src_pos ~len) ~src_off:0 ~len
  else
    chunks ~pos:src_pos ~len (fun i off k n ->
        blit_in dst ~pos:(dst_pos + k) src.pages.(i) ~src_off:off ~len:n)
