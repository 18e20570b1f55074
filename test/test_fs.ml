(* Filesystem tests, including a model-based random-operations check. *)

let with_fs ?(blocks = 2048) ?(journal_blocks = 0) f =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks
      ~block_size:Vfs.Fs.block_size ()
  in
  let result = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks ~ninodes:64 ();
        match Vfs.Fs.mount disk with
        | Error e -> Alcotest.failf "mount: %s" (Vfs.Fs.error_to_string e)
        | Ok fs -> result := Some (f fs))
  in
  Vsim.Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fs test did not complete"

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Vfs.Fs.error_to_string e)

let test_create_lookup_unlink () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "hello.txt") in
      Alcotest.(check (option int)) "lookup" (Some inum)
        (Vfs.Fs.lookup fs "hello.txt");
      Alcotest.(check (list (pair string int))) "list" [ ("hello.txt", inum) ]
        (Vfs.Fs.list fs);
      (match Vfs.Fs.create fs "hello.txt" with
      | Error Vfs.Fs.Already_exists -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e)
      | Ok _ -> Alcotest.fail "duplicate create succeeded");
      get (Vfs.Fs.unlink fs "hello.txt");
      Alcotest.(check (option int)) "gone" None (Vfs.Fs.lookup fs "hello.txt");
      match Vfs.Fs.unlink fs "hello.txt" with
      | Error Vfs.Fs.Not_found -> ()
      | _ -> Alcotest.fail "double unlink")

let test_write_read_roundtrip () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "data") in
      let payload =
        Bytes.init 3000 (fun i -> Vworkload.Testbed.pattern_byte i)
      in
      get (Vfs.Fs.write fs ~inum ~pos:0 payload);
      Alcotest.(check int) "size" 3000 (get (Vfs.Fs.size fs ~inum));
      let back = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:3000) in
      Alcotest.(check bytes) "roundtrip" payload back;
      (* Unaligned read in the middle. *)
      let mid = get (Vfs.Fs.read fs ~inum ~pos:700 ~len:900) in
      Alcotest.(check bytes) "unaligned" (Bytes.sub payload 700 900) mid;
      (* Read past EOF is short. *)
      let tail = get (Vfs.Fs.read fs ~inum ~pos:2900 ~len:500) in
      Alcotest.(check int) "short read" 100 (Bytes.length tail))

let test_holes_read_zero () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "sparse") in
      get (Vfs.Fs.write fs ~inum ~pos:5000 (Bytes.of_string "end"));
      Alcotest.(check int) "size covers hole" 5003 (get (Vfs.Fs.size fs ~inum));
      let hole = get (Vfs.Fs.read fs ~inum ~pos:1000 ~len:100) in
      Alcotest.(check bytes) "zeros" (Bytes.make 100 '\000') hole)

let test_big_file_indirect () =
  with_fs ~blocks:4096 (fun fs ->
      let inum = get (Vfs.Fs.create fs "big") in
      (* 64 KB spans the indirect block (12 direct blocks = 6 KB). *)
      let payload = Bytes.init 65536 (fun i -> Vworkload.Testbed.pattern_byte (i * 5)) in
      get (Vfs.Fs.write fs ~inum ~pos:0 payload);
      let back = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:65536) in
      Alcotest.(check bool) "64KB via indirect blocks" true
        (Bytes.equal payload back))

let test_max_file_size () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "huge") in
      match
        Vfs.Fs.write fs ~inum ~pos:Vfs.Fs.max_file_size (Bytes.make 1 'x')
      with
      | Error Vfs.Fs.Too_big -> ()
      | _ -> Alcotest.fail "write past max size accepted")

let test_no_space () =
  with_fs ~blocks:32 (fun fs ->
      let inum = get (Vfs.Fs.create fs "filler") in
      match Vfs.Fs.write fs ~inum ~pos:0 (Bytes.make 30000 'x') with
      | Error Vfs.Fs.No_space -> ()
      | Ok () -> Alcotest.fail "filled a disk that is too small"
      | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e))

let test_name_rules () =
  with_fs (fun fs ->
      (match Vfs.Fs.create fs (String.make 40 'n') with
      | Error Vfs.Fs.Name_too_long -> ()
      | _ -> Alcotest.fail "long name accepted");
      match Vfs.Fs.create fs "" with
      | Error Vfs.Fs.Bad_argument -> ()
      | _ -> Alcotest.fail "empty name accepted")

let test_blocks_freed_on_unlink () =
  with_fs ~blocks:64 (fun fs ->
      (* Repeatedly creating and unlinking must not leak space. *)
      for _ = 1 to 10 do
        let inum = get (Vfs.Fs.create fs "cycle") in
        get (Vfs.Fs.write fs ~inum ~pos:0 (Bytes.make 8192 'c'));
        get (Vfs.Fs.unlink fs "cycle")
      done)

let test_remount () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:256
      ~block_size:Vfs.Fs.block_size ()
  in
  let ok = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        let inum = get (Vfs.Fs.create fs "persist") in
        get (Vfs.Fs.write fs ~inum ~pos:0 (Bytes.of_string "durable"));
        (* Fresh mount over the same disk must see the file. *)
        let fs2 = get (Vfs.Fs.mount disk) in
        let inum2 = Option.get (Vfs.Fs.lookup fs2 "persist") in
        let back = get (Vfs.Fs.read fs2 ~inum:inum2 ~pos:0 ~len:7) in
        ok := Bytes.to_string back = "durable")
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "remount sees data" true !ok

let test_unformatted () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:64
      ~block_size:Vfs.Fs.block_size ()
  in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        match Vfs.Fs.mount disk with
        | Error Vfs.Fs.Not_formatted -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e)
        | Ok _ -> Alcotest.fail "mounted garbage")
  in
  Vsim.Engine.run eng

let test_cache_behaviour () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "cached") in
      get (Vfs.Fs.write fs ~inum ~pos:0 (Bytes.make 512 'c'));
      let misses_before = Vfs.Fs.cache_misses fs in
      let (_ : Bytes.t) = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:512) in
      let (_ : Bytes.t) = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:512) in
      Alcotest.(check int) "no extra misses on cached reads" misses_before
        (Vfs.Fs.cache_misses fs);
      Vfs.Fs.evict_cache fs;
      let (_ : Bytes.t) = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:512) in
      Alcotest.(check bool) "miss after eviction" true
        (Vfs.Fs.cache_misses fs > misses_before))

(* Model-based: random writes and reads against a reference byte array. *)
let test_model_based =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 30)
        (pair (int_bound 20_000) (int_range 1 2_000)))
  in
  Util.qtest ~count:20 "random write/read matches reference model"
    (QCheck.make op_gen) (fun ops ->
      with_fs ~blocks:4096 (fun fs ->
          let inum = get (Vfs.Fs.create fs "model") in
          let reference = Bytes.make Vfs.Fs.max_file_size '\000' in
          let ref_size = ref 0 in
          List.for_all
            (fun (pos, len) ->
              let pos = pos mod (Vfs.Fs.max_file_size - len) in
              let data =
                Bytes.init len (fun i -> Vworkload.Testbed.pattern_byte (pos + i))
              in
              match Vfs.Fs.write fs ~inum ~pos data with
              | Error _ -> true (* out of space: fine, stop checking *)
              | Ok () ->
                  Bytes.blit data 0 reference pos len;
                  ref_size := max !ref_size (pos + len);
                  let back = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:!ref_size) in
                  Bytes.equal back (Bytes.sub reference 0 !ref_size))
            ops))

(* [Fs.read_blocks] assembled into one buffer.  The pieces must tile
   the read in order: each starts where the previous one ended, and the
   count returned is where the last one ends. *)
let read_by_pieces fs ~inum ~pos ~len =
  let out = Buffer.create 512 in
  match
    Vfs.Fs.read_blocks fs ~inum ~pos ~len (fun buf ~src_off ~dst_off ~len ->
        if dst_off <> Buffer.length out then
          Alcotest.failf "piece at %d, want %d" dst_off (Buffer.length out);
        Buffer.add_subbytes out buf src_off len)
  with
  | Error e -> Error e
  | Ok n ->
      if n <> Buffer.length out then
        Alcotest.failf "count %d, pieces cover %d" n (Buffer.length out);
      Ok (Buffer.to_bytes out)

type op = Write of int * int | Read of int * int

(* Differential: the piecewise read equals [Fs.read] on every read of a
   random sequence of sparse writes and reads — holes, short and empty
   reads past the end, negative positions, blocks behind the indirect
   table (past 6 KB) and reads right after a write — on a plain and on a
   journaled filesystem.  On the journaled one every read follows a
   committed transaction, and the directory reads inside [create]'s open
   transaction go through the same path. *)
let test_read_blocks_matches_read =
  let op_gen =
    QCheck.Gen.(
      list_size (int_range 1 25)
        (map3
           (fun w pos len -> if w then Write (pos, len) else Read (pos - 100, len))
           bool
           (int_bound (Vfs.Fs.max_file_size + 1000))
           (int_bound 3000)))
  in
  let show = function
    | Write (p, l) -> Printf.sprintf "write %d+%d" p l
    | Read (p, l) -> Printf.sprintf "read %d+%d" p l
  in
  Util.qtest ~count:40 "read_blocks = read (holes, EOF, indirect, journal)"
    (QCheck.make
       ~print:QCheck.Print.(pair bool (list show))
       QCheck.Gen.(pair bool op_gen))
    (fun (journaled, ops) ->
      with_fs ~blocks:4096 ~journal_blocks:(if journaled then 300 else 0)
        (fun fs ->
          let inum = get (Vfs.Fs.create fs "diff") in
          let agree ~pos ~len =
            match read_by_pieces fs ~inum ~pos ~len, Vfs.Fs.read fs ~inum ~pos ~len with
            | Ok a, Ok b -> Bytes.equal a b
            | Error e, Error f -> e = f
            | Ok _, Error _ | Error _, Ok _ -> false
          in
          List.for_all
            (function
              | Write (pos, len) ->
                  let data =
                    Bytes.init len (fun i -> Vworkload.Testbed.pattern_byte (pos + i))
                  in
                  ignore (Vfs.Fs.write fs ~inum ~pos data);
                  agree ~pos:(max 0 (pos - 700)) ~len:(len + 1400)
              | Read (pos, len) -> agree ~pos ~len)
            ops
          && agree ~pos:0 ~len:Vfs.Fs.max_file_size))

(* A read issued while a write's transaction is open (the writer is
   blocked on the disk mid-transaction) waits for the filesystem lock
   and sees the committed write, through either read path. *)
let test_read_blocks_during_transaction () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 1)) ~blocks:2048
      ~block_size:Vfs.Fs.block_size ()
  in
  let old_data = Bytes.make 1500 'a' and patch = Bytes.make 700 'b' in
  let expect = Bytes.copy old_data in
  Bytes.blit patch 0 expect 100 700;
  let checked = ref 0 in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks:64 ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        let inum = get (Vfs.Fs.create fs "f") in
        get (Vfs.Fs.write fs ~inum ~pos:0 old_data);
        (* Every data block now comes from the disk, so the write below
           suspends inside its transaction. *)
        Vfs.Fs.set_cache_enabled fs false;
        let writing = ref true in
        let reader read () =
          Alcotest.(check bool) "read issued mid-transaction" true !writing;
          Alcotest.(check bytes) "sees the committed write" expect
            (get (read ()));
          incr checked
        in
        let (_ : Vsim.Proc.t) =
          Vsim.Proc.spawn eng (fun () ->
              get (Vfs.Fs.write fs ~inum ~pos:100 patch);
              writing := false)
        in
        List.iter
          (fun read -> ignore (Vsim.Proc.spawn eng (reader read) : Vsim.Proc.t))
          [
            (fun () -> read_by_pieces fs ~inum ~pos:0 ~len:1500);
            (fun () -> Vfs.Fs.read fs ~inum ~pos:0 ~len:1500);
          ])
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "both readers finished" 2 !checked

let suite =
  [
    Alcotest.test_case "create/lookup/unlink" `Quick test_create_lookup_unlink;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "holes read zero" `Quick test_holes_read_zero;
    Alcotest.test_case "big file (indirect)" `Quick test_big_file_indirect;
    Alcotest.test_case "max file size" `Quick test_max_file_size;
    Alcotest.test_case "no space" `Quick test_no_space;
    Alcotest.test_case "name rules" `Quick test_name_rules;
    Alcotest.test_case "unlink frees blocks" `Quick test_blocks_freed_on_unlink;
    Alcotest.test_case "remount" `Quick test_remount;
    Alcotest.test_case "unformatted disk" `Quick test_unformatted;
    Alcotest.test_case "cache behaviour" `Quick test_cache_behaviour;
    test_model_based;
    test_read_blocks_matches_read;
    Alcotest.test_case "read_blocks during a transaction" `Quick
      test_read_blocks_during_transaction;
  ]
