(* Address spaces against a flat-Bytes reference model: random operation
   sequences, biased towards page boundaries and multi-page ranges. *)

module Mem = Vkernel.Mem

let page = 4096

type op =
  | Write of int * int * int * int  (** space, pos, len, pattern seed *)
  | Read of int * int * int  (** space, pos, len *)
  | Blit_out of int * int * int * int  (** space, pos, len, dst_off *)
  | Blit_in of int * int * int * int  (** space, pos, len, src_off *)
  | Fill of int * int * int * char  (** space, pos, len, byte *)
  | Transfer of int * int * int * int * int
      (** src space, src_pos, dst space, dst_pos, len *)

let pp_op = function
  | Write (s, p, l, x) -> Printf.sprintf "write s%d %d+%d seed %d" s p l x
  | Read (s, p, l) -> Printf.sprintf "read s%d %d+%d" s p l
  | Blit_out (s, p, l, o) ->
      Printf.sprintf "blit_out s%d %d+%d off %d" s p l o
  | Blit_in (s, p, l, o) -> Printf.sprintf "blit_in s%d %d+%d off %d" s p l o
  | Fill (s, p, l, c) -> Printf.sprintf "fill s%d %d+%d %C" s p l c
  | Transfer (s, sp, d, dp, l) ->
      Printf.sprintf "transfer s%d %d -> s%d %d len %d" s sp d dp l

(* blit_in and blit_out go through a [buf]-byte buffer; some generated
   offsets fall outside it. *)
let buf = 3 * page

let pattern seed len =
  Bytes.init len (fun i -> Char.chr ((seed + (7 * i)) land 0xff))

let gen_case =
  let open QCheck.Gen in
  let size =
    frequency
      [
        (2, int_range 1 ((4 * page) + 100));
        (1, map (fun n -> n * page) (int_range 1 4));
        (1, int_range 1 64);
      ]
  in
  int_range 2 3 >>= fun n ->
  list_repeat n size >>= fun sizes ->
  let sizes = Array.of_list sizes in
  let space = int_bound (Array.length sizes - 1) in
  let pos s =
    let size = sizes.(s) in
    let boundary =
      map2 (fun p d -> (p * page) + d) (int_bound (size / page))
        (int_range (-3) 3)
    in
    frequency
      [
        (3, int_bound (size - 1));
        (3, boundary);
        (1, int_range (-5) (size + 5));
      ]
  in
  let len =
    frequency
      [
        (3, int_bound 64);
        (3, int_range 1 (3 * page));
        (2, map (fun d -> page + d) (int_range (-2) 2));
        (1, int_range (-3) (-1));
      ]
  in
  let off =
    frequency [ (5, int_bound (buf / 2)); (1, int_range (-2) (buf + 2)) ]
  in
  let byte = frequency [ (1, return '\000'); (1, char) ] in
  let op =
    space >>= fun s ->
    frequency
      [
        (3, map3 (fun p l x -> Write (s, p, max l 0, x)) (pos s) len nat);
        (2, map2 (fun p l -> Read (s, p, l)) (pos s) len);
        (1, map3 (fun p l o -> Blit_out (s, p, l, o)) (pos s) len off);
        (2, map3 (fun p l o -> Blit_in (s, p, l, o)) (pos s) len off);
        (2, map3 (fun p l c -> Fill (s, p, l, c)) (pos s) len byte);
        ( 3,
          frequency [ (1, return s); (2, space) ] >>= fun d ->
          map3
            (fun sp dp l -> Transfer (s, sp, d, dp, l))
            (pos s) (pos d) len );
      ]
  in
  map (fun ops -> (sizes, ops)) (list_size (int_range 1 40) op)

let print_case (sizes, ops) =
  Printf.sprintf "sizes [%s]\n%s"
    (String.concat "; " (Array.to_list (Array.map string_of_int sizes)))
    (String.concat "\n" (List.map pp_op ops))

let ok_range model ~pos ~len =
  pos >= 0 && len >= 0 && pos + len <= Bytes.length model

let ok_buf ~off ~len = off >= 0 && len >= 0 && off + len <= buf

(* Run [op] on both sides.  It must raise [Invalid_argument] exactly when
   the reference says the range is bad, and then change nothing. *)
let step spaces models op =
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  let expect ok f model_f =
    if raises f = ok then false
    else (
      if ok then model_f ();
      true)
  in
  match op with
  | Write (s, pos, len, x) ->
      let data = pattern x len in
      expect
        (ok_range models.(s) ~pos ~len)
        (fun () -> Mem.write spaces.(s) ~pos data)
        (fun () -> Bytes.blit data 0 models.(s) pos len)
  | Read (s, pos, len) -> (
      let ok = ok_range models.(s) ~pos ~len in
      match Mem.read spaces.(s) ~pos ~len with
      | b -> ok && Bytes.equal b (Bytes.sub models.(s) pos len)
      | exception Invalid_argument _ -> not ok)
  | Blit_out (s, pos, len, off) ->
      let dst = pattern 1 buf and want = pattern 1 buf in
      expect
        (ok_range models.(s) ~pos ~len && ok_buf ~off ~len)
        (fun () -> Mem.blit_out spaces.(s) ~pos dst ~dst_off:off ~len)
        (fun () -> Bytes.blit models.(s) pos want off len)
      && Bytes.equal dst want
  | Blit_in (s, pos, len, off) ->
      let src = pattern (pos + len) buf in
      expect
        (ok_range models.(s) ~pos ~len && ok_buf ~off ~len)
        (fun () -> Mem.blit_in spaces.(s) ~pos src ~src_off:off ~len)
        (fun () -> Bytes.blit src off models.(s) pos len)
  | Fill (s, pos, len, c) ->
      expect
        (ok_range models.(s) ~pos ~len)
        (fun () -> Mem.fill spaces.(s) ~pos ~len c)
        (fun () -> Bytes.fill models.(s) pos len c)
  | Transfer (s, src_pos, d, dst_pos, len) ->
      expect
        (ok_range models.(s) ~pos:src_pos ~len
        && ok_range models.(d) ~pos:dst_pos ~len)
        (fun () ->
          Mem.transfer ~src:spaces.(s) ~src_pos ~dst:spaces.(d) ~dst_pos ~len)
        (fun () -> Bytes.blit models.(s) src_pos models.(d) dst_pos len)

let agrees spaces models =
  Array.for_all2
    (fun m r ->
      Mem.size m = Bytes.length r
      && Bytes.equal (Mem.read m ~pos:0 ~len:(Mem.size m)) r)
    spaces models

let test_model =
  Util.qtest ~count:1000 "random ops match a flat Bytes model"
    (QCheck.make ~print:print_case gen_case) (fun (sizes, ops) ->
      let spaces = Array.map (fun size -> Mem.create ~size) sizes in
      let models = Array.map (fun size -> Bytes.make size '\000') sizes in
      List.for_all
        (fun op -> step spaces models op && agrees spaces models)
        ops)

let zeros len = Bytes.make len '\000'

(* All untouched pages share one zero page; a write must never reach it. *)
let test_fresh_spaces_do_not_alias () =
  let size = (3 * page) + 10 in
  let a = Mem.create ~size and b = Mem.create ~size in
  Mem.write a ~pos:(page - 2) (Bytes.make 5 'a');
  Mem.fill a ~pos:(2 * page) ~len:page 'f';
  Mem.blit_in a ~pos:(3 * page) (Bytes.make 10 'i') ~src_off:0 ~len:10;
  Mem.transfer ~src:a ~src_pos:0 ~dst:a ~dst_pos:1 ~len:(page + 5);
  Alcotest.(check bytes)
    "other space still zero" (zeros size)
    (Mem.read b ~pos:0 ~len:size);
  let c = Mem.create ~size in
  Alcotest.(check bytes)
    "new space is zero" (zeros size)
    (Mem.read c ~pos:0 ~len:size);
  Mem.transfer ~src:b ~src_pos:0 ~dst:c ~dst_pos:0 ~len:size;
  Mem.fill c ~pos:5 ~len:(2 * page) '\000';
  Alcotest.(check bytes)
    "zero into untouched stays zero" (zeros size)
    (Mem.read c ~pos:0 ~len:size);
  Alcotest.(check char)
    "first space kept its write" 'a'
    (Bytes.get (Mem.read a ~pos:(page + 1) ~len:1) 0);
  Mem.fill a ~pos:(2 * page) ~len:(page - 1) '\000';
  Alcotest.(check char)
    "zero fill spares the rest of its page" 'f'
    (Bytes.get (Mem.read a ~pos:((3 * page) - 1) ~len:1) 0)

let test_range_messages () =
  let m = Mem.create ~size:12 in
  Alcotest.check_raises "read"
    (Invalid_argument "Mem.read: range 10+5 outside space of 12 bytes")
    (fun () -> ignore (Mem.read m ~pos:10 ~len:5));
  Alcotest.check_raises "transfer"
    (Invalid_argument
       "Mem.transfer(dst): range 12+1 outside space of 12 bytes") (fun () ->
      Mem.transfer ~src:m ~src_pos:0 ~dst:m ~dst_pos:12 ~len:1);
  Alcotest.check_raises "create"
    (Invalid_argument "Mem.create: size must be positive") (fun () ->
      ignore (Mem.create ~size:0))

let suite =
  [
    Alcotest.test_case "fresh spaces do not alias" `Quick
      test_fresh_spaces_do_not_alias;
    Alcotest.test_case "range-check messages" `Quick test_range_messages;
    test_model;
  ]
