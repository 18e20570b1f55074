(** The checker's scripted IPC workload.

    One deterministic run over three hosts exercising every remote path
    the paper's protocol arguments cover: a basic Send/Reply exchange, a
    ReplyWithSegment page read, MoveTo and MoveFrom page trains, a Forward
    whose reply bypasses the dispatcher, and a cached write-back file Io
    sequence (GetPid broadcast, open, dirty block, flush-on-close).

    Servers keep an application-level ledger of requests actually
    processed; the kernel's duplicate filtering must hold each at exactly
    one.  The run report carries everything {!Checker} needs to judge the
    paper's invariants — nothing is asserted here. *)

type report = {
  completed : bool;  (** quiesced within budget and the client finished *)
  events : int;  (** events executed *)
  frames : int;  (** completed transmissions in this run *)
  ops : Scenario.op_result list;  (** client-side outcomes, in program order *)
  ledger : (string * int) list;  (** server-side applied counts *)
  pages_written : int;  (** file-server write ledger *)
  file_ok : bool;  (** server-side file bytes match the client's write *)
  kernels : Scenario.kernel_probe list;
  medium : Vnet.Medium.stats;
}

val fast_config : Vkernel.Kernel.config
(** Fixed 10 ms retransmission timeout. *)

val op_count : int
(** Number of client operations in the script. *)

val run :
  ?fault:Vnet.Fault.t -> ?max_events:int -> ?seed:int64 -> unit -> report
(** Build a fresh testbed, run the script under [fault], and report.
    Deterministic: equal arguments give equal reports.  [seed] overrides
    the engine's default seed. *)
