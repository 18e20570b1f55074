(** The fault-schedule explorer: invariants, scenarios, sweep, shrinker.

    The paper claims (Sections 3.2, 5.4) the V IPC protocol stays
    correct under packet loss: retransmissions are filtered, replies are
    cached, non-idempotent operations apply exactly once.  {!sweep}
    tests those claims systematically — every depth-1 and depth-2
    schedule over a {!Scenario}'s baseline frames, each run judged by
    the scenario's invariants — and shrinks any failure to a minimal
    replayable schedule. *)

type violation = Scenario.violation = { invariant : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val violations_of : Workload.report -> violation list
(** Empty iff the run upholds every invariant: termination, per-op
    success and data fidelity, exactly-once application, protocol-table
    drain, and medium delivery conservation. *)

val crash_violations_of : Crash_workload.report -> violation list
(** Empty iff the crash run upholds termination, per-op success, and the
    three recovery invariants: durability (no acknowledged write lost),
    atomicity (no torn block — every block entirely old or entirely
    new), and fs-consistency ({!Vfs.Fs.check} clean after recovery) —
    plus the shared table-drain and conservation checks. *)

val shared_violations_of : Shared_workload.report -> violation list
(** Empty iff the two-client coherence run upholds termination, per-op
    success, {e no-stale-read} (every read observed the latest
    acknowledged write) and the lease fast path (a reopen performed
    under a still-valid lease cost zero server requests) — plus the
    shared table-drain and conservation checks. *)

val inet_violations_of : Inet_workload.report -> violation list
(** Empty iff the cross-segment run upholds termination and per-op
    success (the deepened retry budget makes even a full gateway outage
    survivable), no unroutable unicast reached the gateway, the
    table-drain checks, and delivery conservation on {e every} segment
    independently. *)

val failover_violations_of : Failover_workload.report -> violation list
(** Empty iff the failover run upholds termination and per-op success
    (under a crash-stop schedule that certifies the standby takeover),
    durability (no acknowledged write lost across the takeover),
    atomicity, fs-consistency on both shards, and the table-drain and
    conservation checks (live hosts only). *)

val pp_report : Format.formatter -> Workload.report -> unit
(** Deterministic digest of a run (ops, ledger, per-kernel stats and
    tables, medium counters) for replay diagnosis. *)

val pp_shared_report : Format.formatter -> Shared_workload.report -> unit
(** Same, for a coherence run: both clients' ops, lease counters, stale
    findings. *)

val pp_failover_report : Format.formatter -> Failover_workload.report -> unit
(** Same, for a failover run: ops, takeover state, acked/lost/torn
    blocks, fsck findings on both shards. *)

(** {1 The registry} *)

val fault : Scenario.t
val crash : Scenario.t
val shared : Scenario.t
val shared_crash : Scenario.t
val inet : Scenario.t
val inet_crash : Scenario.t
val failover : Scenario.t
(** The registry entries, named after their [vsim check] mode flags:
    {!Workload}, {!Crash_workload}, {!Shared_workload}, {!Inet_workload}
    and {!Failover_workload}.  [fault], [shared] and [inet] sweep network
    faults; [crash] and [shared_crash] crash + restart the file server;
    [inet_crash] crashes + restarts the gateway; [failover] crash-stops
    the shard-A primary.  doc/CHECKING.md tabulates them. *)

val modes : (string list * Scenario.t) list
(** The seven modes [vsim check] runs, each with the mode flags that
    select it. *)

val resolve : string list -> (Scenario.t, string) result
(** The registry entry whose flags are exactly the given mode flags, in
    any order.  [--failover] also accepts [--crash], since failover is
    crash-only.  [Error] names any other combination as conflicting. *)

(** {1 Running scenarios} *)

type invalid =
  | Unsupported_depth of {
      scenario : string;
      depth : int;
      supported : int list;
    }
  | Nonpositive_limit of int

val invalid_to_string : invalid -> string

val validate : Scenario.t -> depth:int -> limit:int -> (unit, invalid) result
(** [Ok ()] iff [depth] is one of the scenario's depths and [limit] is
    positive. *)

val run_schedule :
  ?max_events:int -> ?seed:int64 -> Scenario.t -> Schedule.t -> violation list
(** One run of the scenario under the schedule, judged. *)

val shrink : run:(Schedule.t -> violation list) -> Schedule.t -> Schedule.t
(** Greedy delta debugging: repeatedly remove any single entry whose
    removal preserves a violation.  The result still violates (per
    [run]) and no strictly smaller single-removal neighbour does. *)

type sweep_failure = {
  schedule : Schedule.t;  (** first violating schedule, enumeration order *)
  minimal : Schedule.t;  (** its shrunk form *)
  violations : violation list;  (** the shrunk form's violations *)
}

type sweep_report = {
  depth : int;
  limit : int;
  schedules_run : int;
      (** 1-based index of the first violating schedule, or the total
          enumerated when clean — identical for any [domains] *)
  baseline_frames : int;
  failure : sweep_failure option;  (** [None] when every schedule passed *)
}

val sweep :
  ?depth:int ->
  ?limit:int ->
  ?actions:Vnet.Fault.action list ->
  ?max_events:int ->
  ?seed:int64 ->
  ?domains:int ->
  Scenario.t ->
  (sweep_report, violation list) result
(** Systematic exploration of the scenario's schedules ([depth] default
    2, [limit] default 600), stopping at the first violation (shrunk to
    a minimal reproducer) or after [limit] schedules.  [Error vs] when
    the unfaulted baseline itself violates (nothing useful can be
    explored then).  [domains > 1] fans schedule runs out across OCaml 5
    domains via {!Vsim.Pool} in deterministic chunks; the returned
    report is byte-identical for any domain count.

    @raise Invalid_argument if {!validate} rejects [depth] or [limit];
    nothing runs then. *)

val report_to_json : sweep_report -> string
(** Compact, deterministic JSON for [vsim check --json] and CI
    assertions.  Contains no wall-clock or domain-count fields. *)

val repro_file_contents : Schedule.t -> violation list -> string
(** The replayable repro-file text for a minimized schedule. *)
