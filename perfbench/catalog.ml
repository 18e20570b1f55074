(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; the self-tests hold the two together. *)

type better = Lower | Higher

type e2e = { name : string; unit_ : string; better : better; bound : float }

(* Host-time end-to-end metrics of the untraced run.  [bound] is the
   share of the parent's median by which a metric may worsen. *)
let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "ops_per_s"; unit_ = "1/s"; better = Higher; bound = 0.25 };
    { name = "op_ms_p50"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "op_ms_p90"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "alloc_mb_per_op"; unit_ = "MB"; better = Lower; bound = 0.05 };
    { name = "peak_heap_mb"; unit_ = "MB"; better = Lower; bound = 0.1 };
  ]

(* Printed in the end-to-end table but not in the result line: it is 0
   on every listed workload, and the line's [attempted]/[failed] carry
   it exactly. *)
let failed_op_ratio = ("failed_op_ratio", "ratio")

type layer = {
  lname : string;
  lunit : string;
  lbetter : better;
  in_json : bool;
      (** false for host times that read exactly 0 on a listed workload
          which never calls that layer; those are printed in the layer
          table only *)
}

let l ?(in_json = true) ?(better = Lower) lname lunit =
  { lname; lunit; lbetter = better; in_json }

(* Per-layer metrics of the traced run, grouped by library. *)
let per_layer =
  [
    l "vsim.events_per_op" "count";
    l "vsim.ns_per_event" "ns";
    l "vsim.proc_s_per_op" "s";
    l "vsim.engines_per_op" "count";
    l ~better:Higher "vsim.callback_share" "ratio";
    l "vsim.untracked_share" "ratio";
    l "vhw.cpu_grants_per_op" "count";
    l "vhw.cpu_grant_s_per_op" "s";
    l "vnet.deliver_fires_per_op" "count";
    l "vnet.deliver_s_per_op" "s";
    l "vnet.tx_done_s_per_op" "s";
    l "vnet.packet_drops_per_op" "count";
    l "vnet.collisions_per_op" "count";
    l "vnet.nic_busy_waits_per_op" "count";
    l ~in_json:false "vnet.gw_forward_s_per_op" "s";
    l "vnet.gw_forwarded_per_op" "count";
    l ~better:Higher "vnet.gw_suppressed_ratio" "ratio";
    l "vnet.gw_queue_drops_per_op" "count";
    l "vkernel.packets_tx_per_op" "count";
    l "vkernel.retransmits_per_op" "count";
    l ~better:Higher "vkernel.useful_tx_ratio" "ratio";
    l "vkernel.rto_fires_per_op" "count";
    l "vkernel.rto_s_per_op" "s";
    l "vkernel.ipc_failures_per_op" "count";
    l "vkernel.spawn_us" "us";
    l "vkernel.spawn_words" "words";
    l "vfs.disk_ios_per_op" "count";
    l "vfs.disk_complete_s_per_op" "s";
    l "vfs.disk_queue_wait_sim_ms" "sim_ms";
    l "vfs.fs_requests_per_op" "count";
    l ~better:Higher "vfs.cache_hit_rate" "ratio";
    l "vfs.cache_writebacks_per_op" "count";
    l ~in_json:false "vcheck.enumerate_s" "s";
    l ~in_json:false "vcheck.run_ms_per_schedule" "ms";
    l ~in_json:false "vcheck.judge_ms_per_schedule" "ms";
    l "vcheck.judge_words_per_schedule" "words";
    l "vcheck.judge_share" "ratio";
    l "vworkload.boot_rounds_per_op" "count";
    l "vworkload.boot_resent_pages_per_op" "count";
    l ~better:Higher "vworkload.capacity_req_per_sim_s" "1/sim_s";
    l "vworkload.testbed_create_us" "us";
    l "vworkload.testbed_create_words" "words";
    l "gc.minor_collections_per_op" "count";
    l "gc.major_collections_per_op" "count";
  ]
