#pragma once

#include <cstddef>

#include "hw/config.hpp"
#include "ucx/config.hpp"

/// \file model.hpp
/// Software-layer cost model: every per-operation overhead the runtime
/// layers above UCX charge. Calibrated values live in summit_model.cpp,
/// with the paper-derived targets documented next to each constant.

namespace cux::model {

struct LayerCosts {
  // --- Converse ----------------------------------------------------------
  /// Scheduler dequeue + handler dispatch when a message is picked up.
  double cmi_sched_us = 0.5;
  /// Converse-level send bookkeeping (envelope setup, machine-layer entry).
  double cmi_send_us = 0.3;

  // --- Charm++ core ------------------------------------------------------
  /// Entry-method invocation (envelope decode, object lookup, unpack setup).
  double charm_entry_us = 0.7;
  /// Message allocation + header packing on the send side.
  double charm_msg_alloc_us = 0.4;
  /// CkDeviceBuffer handling per device parameter (LrtsSendDevice
  /// bookkeeping, tag generation, metadata packing).
  double device_meta_send_us = 0.4;
  /// Post-entry processing + LrtsRecvDevice posting per device parameter.
  double device_meta_recv_us = 0.4;
  /// CkCallback creation + invocation round trip.
  double callback_us = 0.4;
  /// Host-memory payloads below this size are packed into the message
  /// (eager); larger ones use the Zero Copy API rendezvous. The 128 KiB
  /// switch point reproduces the AMPI-H bandwidth dip the paper reports.
  std::size_t host_pack_threshold = 128 * 1024;
  /// Per-message registration/pinning cost of a zero-copy host send; makes
  /// the eager->rendezvous switch a "sudden increase in latency" exactly as
  /// the paper observes for AMPI-H at 128 KiB (Sec. IV-B2).
  double zcopy_reg_us = 25.0;

  // --- SMP mode ------------------------------------------------------------
  /// When true, models the Charm++ SMP build: every network operation of a
  /// node funnels through one communication thread. The paper deliberately
  /// uses the non-SMP build (Sec. IV-A); bench/ablation_smp shows why.
  bool smp_comm_thread = false;
  /// Comm-thread handling cost per injected message.
  double comm_thread_us = 0.4;

  // --- AMPI ---------------------------------------------------------------
  /// MPI_* call entry (argument checking, communicator resolution).
  double ampi_call_us = 0.5;
  /// Matching against the unexpected/request queues.
  double ampi_match_us = 0.4;
  /// The residual AMPI overhead the paper measures as ~8 us outside UCX
  /// (Sec. IV-B1): message pack/unpack, the extra metadata message, Charm++
  /// callback invocations, and heap allocations retained for the machine
  /// layer. Split across sender and receiver.
  double ampi_overhead_send_us = 2.0;
  double ampi_overhead_recv_us = 2.0;

  // --- OpenMPI baseline ----------------------------------------------------
  /// Thin pml/ob1 dispatch above UCX.
  double ompi_call_us = 0.4;

  // --- Charm4py ------------------------------------------------------------
  /// Python interpreter + Cython crossing per channel API call.
  double py_call_us = 12.0;
  /// Future fulfilment -> coroutine resume in the Python scheduler.
  double py_wakeup_us = 10.0;
  /// Cheap charm.lib shim calls (CudaDtoH/CudaHtoD/StreamSynchronize):
  /// thin Cython wrappers around C++ functions (paper Fig. 8 caption).
  double py_cuda_call_us = 2.0;
  /// Python-side buffer handling bandwidth for host-path payload copies
  /// (buffer-protocol copies through the interpreter, both directions).
  double py_host_copy_gbps = 10.0;

  // --- GPU kernels (Jacobi) -------------------------------------------------
  /// Fraction of peak HBM bandwidth the 7-point stencil sustains.
  double stencil_mem_efficiency = 0.70;
};

/// A full experiment configuration: hardware + UCX + layer costs.
struct Model {
  hw::MachineConfig machine;
  ucx::UcxConfig ucx;
  LayerCosts costs;
};

/// Calibrated model of ORNL Summit matching the paper's Section IV-A setup.
/// `nodes` scales the cluster (6 GPUs/PEs per node).
[[nodiscard]] Model summit(int nodes = 1);

}  // namespace cux::model
