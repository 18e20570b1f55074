module K = Vkernel.Kernel

type op_result = { op : string; ok : bool; detail : string }

type kernel_probe = {
  host : int;
  tables : K.table_counts;
  kstats : K.stats;
}

let probe (host, k) = { host; tables = K.table_counts k; kstats = K.stats k }

let quiesce ~max_events eng =
  match Vsim.Engine.run_bounded ~max_events eng with
  | `Quiescent n -> (true, n)
  | `Exhausted n -> (false, n)

let completed_frames (m : Vnet.Medium.stats) =
  m.Vnet.Medium.attempted - m.Vnet.Medium.excessive

let retry_open ~tries ~between attempt =
  let rec go n last =
    if n = 0 then Error last
    else begin
      if n < tries then begin
        between ();
        Vsim.Proc.sleep (Vsim.Time.ms 20)
      end;
      match attempt () with
      | Ok _ as ok -> ok
      | Error e -> go (n - 1) (Vfs.Client.error_to_string e)
    end
  in
  go tries "never attempted"

let record_result record op = function
  | Ok () -> record op true "ok"
  | Error e -> record op false (Vfs.Client.error_to_string e)

let record_read record op ~expect = function
  | Ok got -> record op (Bytes.equal got expect) "data check"
  | Error e -> record op false (Vfs.Client.error_to_string e)

let bs = Vfs.Fs.block_size

let old_block b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte ((b * bs) + i))

let new_block b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte (7000 + (b * bs) + i))

let audit_blocks fs ~file ~blocks ~acked ~vanished =
  match Vfs.Fs.lookup fs file with
  | None -> ([], [], vanished :: Vfs.Fs.check fs)
  | Some inum ->
      let acked_lost = ref [] and torn = ref [] in
      for b = 0 to blocks - 1 do
        match Vfs.Fs.read fs ~inum ~pos:(b * bs) ~len:bs with
        | Error _ -> torn := b :: !torn
        | Ok got ->
            let is_new = Bytes.equal got (new_block b) in
            let is_old = Bytes.equal got (old_block b) in
            if (not is_new) && not is_old then torn := b :: !torn;
            if List.mem b acked && not is_new then
              acked_lost := b :: !acked_lost
      done;
      (List.rev !acked_lost, List.rev !torn, Vfs.Fs.check fs)

type violation = { invariant : string; detail : string }

type enumerator =
  depth:int -> frames:int -> actions:Vnet.Fault.action list ->
  Schedule.t Seq.t

type 'r spec = {
  name : string;
  label : string;
  op_count : int;
  run : ?fault:Vnet.Fault.t -> ?max_events:int -> ?seed:int64 -> unit -> 'r;
  frames : 'r -> int;
  violations : 'r -> violation list;
  pp : Format.formatter -> 'r -> unit;
  enumerate : enumerator;
  depths : int list;
}

type t = T : 'r spec -> t

let name (T s) = s.name
let label (T s) = s.label
let op_count (T s) = s.op_count
let depths (T s) = s.depths
let variant ~name ~label enumerate (T s) = T { s with name; label; enumerate }

let net_faults = Schedule.enumerate

let crash_restart ~depth ~frames ~actions =
  Schedule.enumerate_crash ~depth ~frames ~actions ()

let crash_stop ~depth ~frames ~actions =
  Schedule.enumerate_crash_only ~depth ~frames ~actions ()
