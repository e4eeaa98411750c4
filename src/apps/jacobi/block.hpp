#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "apps/jacobi/jacobi.hpp"
#include "hw/cuda.hpp"

/// \file block.hpp
/// Per-block state shared by the Charm++, AMPI/OpenMPI and Charm4py Jacobi
/// drivers: device grid + halo-face buffers, kernel cost model, and (in
/// backed mode) the actual stencil / pack / unpack computations so results
/// can be verified against the serial reference.

namespace cux::jacobi {

struct BlockState {
  void init(hw::System& sys, const JacobiConfig& cfg, const Decomposition& dec, int block_id,
            int pe);
  ~BlockState();
  BlockState() = default;
  BlockState(const BlockState&) = delete;
  BlockState& operator=(const BlockState&) = delete;

  // --- geometry ----------------------------------------------------------
  Decomposition dec;
  int id = -1;
  Vec3 coord;
  std::array<int, kNumDirs> nbr{};  ///< neighbour block ids, -1 at boundary
  int nnbr = 0;

  // --- resources ---------------------------------------------------------
  hw::System* sys = nullptr;
  int pe = -1;
  Mode mode = Mode::Device;
  bool backed = false;
  double efficiency = 0.70;  ///< stencil fraction of peak HBM bandwidth
  std::unique_ptr<cuda::Stream> stream;
  void* grid[2] = {nullptr, nullptr};  ///< device grids with 1-cell halo
  int cur = 0;                         ///< which grid holds the current state
  void* d_send[kNumDirs] = {};
  /// Receive faces are double-buffered by iteration parity: message-driven
  /// senders may run one iteration ahead, and their halo for iteration i+1
  /// must not overwrite the not-yet-unpacked face of iteration i.
  void* d_recv[2][kNumDirs] = {};
  /// -H staging faces: address-space reservations at paper scale (1536 PEs
  /// x 12 faces of ~19 MB would not fit in memory), real in backed mode.
  cuda::HostBuffer h_send[kNumDirs], h_recv[2][kNumDirs];

  /// Comm buffer handed to the transport for direction d.
  [[nodiscard]] void* sendBuf(Dir d) const {
    return mode == Mode::Device ? d_send[static_cast<int>(d)]
                                : h_send[static_cast<int>(d)].get();
  }
  [[nodiscard]] void* recvBuf(Dir d, int parity = 0) const {
    return mode == Mode::Device ? d_recv[parity][static_cast<int>(d)]
                                : h_recv[parity][static_cast<int>(d)].get();
  }
  /// One of this block's device buffers with its classification, known
  /// from the allocation (GPU `pe`, backed iff `backed`): no lookup.
  [[nodiscard]] hw::MemRef deviceRef(void* p) const { return hw::MemRef::onGpu(p, pe, backed); }

  // --- kernel cost model ---------------------------------------------------
  [[nodiscard]] sim::Duration stencilCost() const;
  [[nodiscard]] sim::Duration packCost() const;    ///< all send faces
  [[nodiscard]] sim::Duration unpackCost() const;  ///< all recv faces

  // --- kernel bodies (no-ops when unbacked) --------------------------------
  [[nodiscard]] std::function<void()> stencilBody();
  [[nodiscard]] std::function<void()> packBody();
  [[nodiscard]] std::function<void()> unpackBody(int parity);

  /// Enqueues staging copies for the -H variants.
  void stageSendFaces();            ///< D2H of every send face
  void stageRecvFaces(int parity);  ///< H2D of every recv face

  /// Copies the block interior into `out` at its global position (tests).
  void extractInterior(std::vector<double>& out) const;

  // --- measurement ----------------------------------------------------------
  sim::TimePoint comm_phase_start = 0;
  std::uint64_t comm_ns = 0;
  sim::TimePoint measure_start = 0;

 private:
  [[nodiscard]] std::size_t haloIdx(std::int64_t i, std::int64_t j, std::int64_t k) const;
};

}  // namespace cux::jacobi
