#pragma once

#include <cstdint>

#include "sim/fault.hpp"

/// \file config.hpp
/// Hardware description of the simulated cluster.
///
/// Defaults model one node of ORNL Summit as described in the paper's
/// experimental setup (Section IV-A): IBM AC922 nodes with two Power9 CPUs,
/// six NVIDIA V100 GPUs (three per CPU, NVLink-attached at 50 GB/s), CPUs
/// bridged by a 64 GB/s X-Bus, and nodes connected with Mellanox EDR
/// InfiniBand at 12.5 GB/s.

namespace cux::hw {

/// Latency/bandwidth pair describing one direction of a physical link.
struct LinkParams {
  double latency_us = 1.0;      ///< propagation + hardware doorbell latency
  double bandwidth_gbps = 10.0; ///< sustained GB/s (decimal)
};

struct MachineConfig {
  int num_nodes = 1;
  int sockets_per_node = 2;
  int gpus_per_node = 6;  ///< split evenly across sockets

  LinkParams nvlink{0.9, 50.0};  ///< GPU <-> CPU socket hub (V100 gen2 x2 bricks)
  LinkParams xbus{0.4, 64.0};    ///< CPU <-> CPU coherent bus
  LinkParams ib{0.9, 12.5};      ///< NIC <-> fabric (EDR InfiniBand)
  LinkParams shm{0.25, 5.5};     ///< host shared-memory/CMA copy between processes

  /// Independent NVLink bricks per GPU direction. Each brick is its own
  /// Link with `nvlink` parameters, so a GPU with 2 bricks can drive two
  /// concurrent routes (direct peer + neighbor-staged) at aggregate
  /// bandwidth. Default 1 keeps the link layout, link names, and therefore
  /// every trace hash bit-identical to the single-route model.
  int nvlink_bricks = 1;

  /// NIC rails per node (multi-rail InfiniBand). Each rail is an
  /// independent up/down Link pair with `ib` parameters. Default 1 keeps
  /// the layout and traces bit-identical to the single-rail model.
  int nic_rails = 1;

  /// Device-global memory bandwidth; drives the stencil-kernel cost model
  /// (V100 HBM2 peaks at ~900 GB/s; 800 is a realistic sustained figure).
  double gpu_mem_bandwidth_gbps = 800.0;

  /// Within-process host memcpy bandwidth (runtime pack/unpack copies).
  double host_memcpy_gbps = 13.0;

  /// Fixed cost of an asynchronous CUDA runtime call (launch/copy enqueue).
  double cuda_call_us = 1.2;
  /// Fixed engine-side latency of a device copy before bytes start moving.
  double cuda_copy_latency_us = 5.0;
  /// Cost of cudaStreamSynchronize observing an already-finished stream.
  double cuda_sync_us = 3.0;
  /// Fixed device-side latency of launching a kernel.
  double kernel_launch_us = 4.5;
  /// One-time cost of launching an instantiated CUDA graph: the multi-path
  /// engine submits every chunk of a data leg with this single call instead
  /// of paying cuda_call_us + kernel_launch_us each (cudaGraphLaunch
  /// amortisation).
  double cuda_graph_launch_us = 2.5;

  /// Fault-injection schedule for the simulated network (off by default).
  /// Lives here so every benchmark/application path that builds a System
  /// from a MachineConfig can enable faults without extra plumbing.
  sim::FaultConfig fault;

  /// Whether GpuDevice allocations get real host backing by default
  /// (backed = data integrity verified; unbacked = metadata-only, used by
  /// the large-scale figure benches to avoid multi-terabyte allocations).
  bool backed_device_memory = true;

  [[nodiscard]] int numPes() const noexcept { return num_nodes * gpus_per_node; }
  [[nodiscard]] int gpusPerSocket() const noexcept { return gpus_per_node / sockets_per_node; }

  /// Socket that hosts GPU `local_gpu` (index within its node).
  [[nodiscard]] int socketOf(int local_gpu) const noexcept {
    return local_gpu / gpusPerSocket();
  }
};

}  // namespace cux::hw
