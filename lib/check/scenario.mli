(** What every checker scenario is made of.

    A scenario is a scripted workload plus the way the checker drives
    it: how to run it under a fault, how many frames its baseline
    completes, how to judge and print its report, and which schedules to
    enumerate over those frames.  {!Checker.sweep} and
    {!Checker.run_schedule} take any scenario; {!Checker.modes} lists the
    ones [vsim check] runs.

    The first half of this module holds the report pieces the workloads
    share, so each workload builds its report from the same parts. *)

(** {1 Shared report pieces} *)

type op_result = { op : string; ok : bool; detail : string }
(** One client operation's outcome. *)

type kernel_probe = {
  host : int;
  tables : Vkernel.Kernel.table_counts;
  kstats : Vkernel.Kernel.stats;
}
(** A kernel's protocol tables and counters at the end of a run. *)

val probe : int * Vkernel.Kernel.t -> kernel_probe
(** [probe (host, k)] reads [k]'s tables and counters. *)

val quiesce : max_events:int -> Vsim.Engine.t -> bool * int
(** Run the engine to quiescence or for at most [max_events] events;
    [(quiescent, events executed)]. *)

val completed_frames : Vnet.Medium.stats -> int
(** Transmissions that completed: attempted minus excessive-collision
    aborts.  Schedule frame positions count these. *)

val retry_open :
  tries:int ->
  between:(unit -> unit) ->
  (unit -> ('a, Vfs.Client.error) result) ->
  ('a, string) result
(** A crash can land under the very first GetPid broadcast or the open
    itself, before any [Io.file] exists to carry session recovery.  So
    an open prologue retries from scratch: [attempt] up to [tries]
    times, running [between] and sleeping 20 ms before each retry.
    [Error] carries the last failure. *)

val record_result :
  (string -> bool -> string -> unit) ->
  string ->
  (unit, Vfs.Client.error) result ->
  unit
(** [record_result record op r] records [op] as ["ok"] or as failed with
    [r]'s error. *)

val record_read :
  (string -> bool -> string -> unit) ->
  string ->
  expect:bytes ->
  (bytes, Vfs.Client.error) result ->
  unit
(** Likewise for a read, which succeeds if it returned [expect]. *)

val old_block : int -> bytes
val new_block : int -> bytes
(** A file block's image before and after the crash workloads overwrite
    it.  Old is the testbed's pattern; new is a distinct pattern, so a
    torn block — neither all-old nor all-new — shows byte-for-byte. *)

val audit_blocks :
  Vfs.Fs.t ->
  file:string ->
  blocks:int ->
  acked:int list ->
  vanished:string ->
  int list * int list * string list
(** Post-mortem audit straight at the file system, run inside a process:
    read blocks [0..blocks-1] of [file] and return
    [(acked_lost, torn, fsck)].  [acked_lost] are acked blocks not
    holding {!new_block}; [torn] are blocks that are neither
    {!old_block} nor {!new_block} (or unreadable); [fsck] is
    [[vanished]] if the file is gone, followed by {!Vfs.Fs.check}'s
    findings. *)

(** {1 Scenario descriptions} *)

type violation = { invariant : string; detail : string }

type enumerator =
  depth:int -> frames:int -> actions:Vnet.Fault.action list ->
  Schedule.t Seq.t
(** The schedules a sweep explores over a baseline's frame positions. *)

type 'r spec = {
  name : string;  (** registry key, e.g. ["shared+crash"] *)
  label : string;  (** the sweep summary's schedule kind *)
  op_count : int;  (** client operations in the script *)
  run :
    ?fault:Vnet.Fault.t -> ?max_events:int -> ?seed:int64 -> unit -> 'r;
      (** one deterministic run under [fault] *)
  frames : 'r -> int;  (** frame positions a schedule can name *)
  violations : 'r -> violation list;  (** the judge; empty when clean *)
  pp : Format.formatter -> 'r -> unit;  (** deterministic report digest *)
  enumerate : enumerator;
  depths : int list;  (** depths [enumerate] supports *)
}
(** A scenario over reports of type ['r]. *)

type t = T : 'r spec -> t  (** A scenario with its report type hidden. *)

val name : t -> string
val label : t -> string
val op_count : t -> int
val depths : t -> int list

val variant : name:string -> label:string -> enumerator -> t -> t
(** The same workload, judge and printer under another enumerator. *)

val net_faults : enumerator
(** {!Schedule.enumerate}: network faults only. *)

val crash_restart : enumerator
(** {!Schedule.enumerate_crash}: a crash + restart at every frame, paired
    with one network fault at depth 2. *)

val crash_stop : enumerator
(** {!Schedule.enumerate_crash_only}: a crash with no restart at every
    frame, paired with one network fault at depth 2. *)
