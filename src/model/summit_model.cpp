#include "model/model.hpp"

/// Calibration provenance
/// ----------------------
/// Link parameters come straight from the paper's Section IV-A: NVLink
/// 50 GB/s theoretical peak per GPU-CPU connection, X-Bus 64 GB/s between
/// the Power9 sockets, EDR InfiniBand 12.5 GB/s per node.
///
/// Software overheads are calibrated against quantitative statements in the
/// paper's evaluation:
///  * OpenMPI-D small-message latency ~2 us (Sec. IV-B1: "the GPU-GPU
///    transfer itself with UCX has a latency of less than 2 us, similar to
///    OpenMPI");
///  * AMPI overhead outside UCX ~8 us (same paragraph);
///  * peak intra/inter bandwidths: Charm++ 44.7/10 GB/s, AMPI 45.4/10 GB/s,
///    Charm4py 35.5/6.0 GB/s (Sec. IV-B2);
///  * the AMPI-H bandwidth dip at 128 KB (eager->rendezvous switch of the
///    host path);
///  * Table I improvement ranges, which EXPERIMENTS.md tracks per figure.

namespace cux::model {

Model summit(int nodes) {
  Model m;
  m.machine.num_nodes = nodes;
  m.machine.sockets_per_node = 2;
  m.machine.gpus_per_node = 6;
  m.machine.nvlink = {0.9, 50.0};
  m.machine.xbus = {0.4, 64.0};
  m.machine.ib = {0.9, 12.5};
  m.machine.shm = {0.25, 5.5};
  m.machine.gpu_mem_bandwidth_gbps = 800.0;
  m.machine.host_memcpy_gbps = 13.0;
  m.machine.cuda_call_us = 1.2;
  m.machine.cuda_copy_latency_us = 5.0;
  m.machine.cuda_sync_us = 3.0;
  m.machine.kernel_launch_us = 4.5;

  m.ucx.host_eager_threshold = 8192;
  m.ucx.device_eager_threshold = 4096;
  m.ucx.rndv_pipeline_chunk = 256 * 1024;
  m.ucx.send_overhead_us = 0.3;
  m.ucx.recv_overhead_us = 0.3;
  m.ucx.rndv_handshake_us = 0.5;
  m.ucx.rndv_pipeline_overhead_us = 4.0;
  m.ucx.gdrcopy_enabled = true;
  m.ucx.gdr_latency_us = 0.6;
  m.ucx.gdr_bandwidth_gbps = 6.0;
  m.ucx.cuda_stage_latency_us = 6.0;

  // LayerCosts defaults in model.hpp are already the calibrated values.
  return m;
}

}  // namespace cux::model
