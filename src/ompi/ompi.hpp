#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "converse/pe.hpp"
#include "model/model.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"
#include "ucx/context.hpp"

/// \file ompi.hpp
/// The OpenMPI reference baseline of the paper's evaluation (Sec. IV-A):
/// a CUDA-aware MPI bound *directly* to UCX, with none of the Charm++
/// runtime layers in between. The paper uses it to isolate the overhead the
/// AMPI stack adds above UCX ("this comparison isolates the performance
/// differential incurred by the layers above UCX"); this module serves the
/// same role.
///
/// Key structural differences from ampi::World, mirroring the real systems:
///  * tag matching happens inside UCX (ucp_tag_recv with masks), not in a
///    runtime-level unexpected queue, so receives posted before the matching
///    send observe the rendezvous RTS immediately — no metadata-delay
///    penalty;
///  * per-call overhead is a thin pml dispatch (ompi_call_us), not the
///    packing/callback/heap work AMPI performs.

namespace cux::ompi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
};

namespace detail {
/// 64-bit UCX tag layout: [16 zero | 16 source rank | 32 user tag].
[[nodiscard]] constexpr ucx::Tag encodeTag(int src, int tag) noexcept {
  return (static_cast<ucx::Tag>(static_cast<std::uint16_t>(src)) << 32) |
         static_cast<std::uint32_t>(tag);
}
[[nodiscard]] constexpr ucx::Tag matchMask(int src, int tag) noexcept {
  ucx::Tag mask = 0;
  if (src != kAnySource) mask |= 0xFFFFull << 32;
  if (tag != kAnyTag) mask |= 0xFFFFFFFFull;
  return mask;
}
[[nodiscard]] constexpr int srcOfTag(ucx::Tag t) noexcept {
  return static_cast<int>((t >> 32) & 0xFFFF);
}
[[nodiscard]] constexpr int userTagOf(ucx::Tag t) noexcept {
  return static_cast<int>(t & 0xFFFFFFFFull);
}
}  // namespace detail

class World;

class Rank {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] int pe() const noexcept { return rank_; }  // one rank per PE/GPU
  [[nodiscard]] hw::System& system() const;
  [[nodiscard]] double timeUs() const;

  /// `dst` must be in [0, size()) and `src` in [0, size()) or kAnySource;
  /// anything else throws std::invalid_argument.
  ///
  /// Every operation returns its completion future (the MPI_Request): await
  /// one with `co_await f`, several with `co_await sim::allOf(fs)`.
  sim::Future<void> isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  sim::Future<void> irecv(void* buf, std::uint64_t bytes, int src, int tag) {
    return recv(buf, bytes, src, tag);
  }
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return isend(buf, bytes, dst, tag);
  }
  /// `st`, when given, is written at completion, before the future is set.
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag,
                                       Status* st = nullptr);

 private:
  friend class World;
  World* world_ = nullptr;
  int rank_ = -1;
};

/// One rank per PE, bound straight to the UCX workers.
class World {
 public:
  World(hw::System& sys, ucx::Context& ucx, const model::LayerCosts& costs);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] Rank& rank(int r) { return ranks_.at(static_cast<std::size_t>(r))->self; }
  [[nodiscard]] hw::System& system() noexcept { return sys_; }

  void run(std::function<sim::FutureTask(Rank&)> main);
  [[nodiscard]] sim::Future<void> done() const { return done_.future(); }

 private:
  friend class Rank;
  struct RankState {
    Rank self;
    std::unique_ptr<cmi::Pe> cpu;  ///< per-rank CPU-time serialiser
    hw::PointerCache ptr_cache;    ///< classifies the buffers this rank passes
  };

  hw::System& sys_;
  ucx::Context& ucx_;
  model::LayerCosts costs_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::function<sim::FutureTask(Rank&)> main_;  // must outlive rank coroutines
  sim::Promise<void> done_;
};

}  // namespace cux::ompi
