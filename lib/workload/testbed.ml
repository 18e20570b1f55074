type host = {
  addr : Vnet.Addr.t;
  cpu : Vhw.Cpu.t;
  nic : Vnet.Nic.t;
  kernel : Vkernel.Kernel.t;
}

type t = {
  eng : Vsim.Engine.t;
  medium : Vnet.Medium.t;
  hosts : host array;
}

let max_hosts = 254

let create ?seed ?(medium_config = Vnet.Medium.config_3mb)
    ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(kernel_config = Vkernel.Kernel.default_config) ~hosts () =
  if hosts < 1 || hosts > max_hosts then
    invalid_arg "Testbed.create: bad host count";
  let eng = Vsim.Engine.create ?seed () in
  let medium = Vnet.Medium.create eng medium_config in
  let mk i =
    let addr = i + 1 in
    let cpu =
      Vhw.Cpu.create eng ~host:addr ~model:cpu_model
        ~name:(Printf.sprintf "cpu%d" addr)
    in
    let nic = Vnet.Nic.create eng ~cpu ~medium ~addr in
    let kernel =
      Vkernel.Kernel.create eng ~cpu ~nic ~host:addr ~config:kernel_config ()
    in
    { addr; cpu; nic; kernel }
  in
  { eng; medium; hosts = Array.init hosts mk }

let host t i =
  if i < 1 || i > Array.length t.hosts then
    Fmt.invalid_arg "Testbed.host: no host %d" i;
  t.hosts.(i - 1)

let run ?until t = Vsim.Engine.run ?until t.eng

let run_proc t ?(name = "setup") f =
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn t.eng ~name f in
  Vsim.Engine.run t.eng

let pattern_byte i = Char.chr (((i * 31) + 7) land 0xFF)

let pattern_bytes ~pos ~len =
  Bytes.init len (fun i -> pattern_byte (pos + i))

let make_test_fs t ?(host = 1) ?(latency = Vfs.Disk.Fixed 0) ?(blocks = 16384)
    ?(journal_blocks = 0) ~files () =
  let disk =
    Vfs.Disk.create t.eng ~host ~latency:(Vfs.Disk.Fixed 0) ~blocks
      ~block_size:Vfs.Fs.block_size ()
  in
  let fs_box = ref None in
  run_proc t ~name:"mkfs" (fun () ->
      Vfs.Fs.format disk ~journal_blocks ~ninodes:256 ();
      let fs =
        match Vfs.Fs.mount disk with
        | Ok fs -> fs
        | Error e -> Fmt.failwith "mkfs: %a" Vfs.Fs.pp_error e
      in
      List.iter
        (fun (name, size) ->
          match Vfs.Fs.create fs name with
          | Error e -> Fmt.failwith "mkfs %s: %a" name Vfs.Fs.pp_error e
          | Ok inum -> (
              match
                Vfs.Fs.write fs ~inum ~pos:0 (pattern_bytes ~pos:0 ~len:size)
              with
              | Ok () -> ()
              | Error e -> Fmt.failwith "mkfs %s: %a" name Vfs.Fs.pp_error e))
        files;
      fs_box := Some fs);
  Vfs.Disk.set_latency disk latency;
  Option.get !fs_box
