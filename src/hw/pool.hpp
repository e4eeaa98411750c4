#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "hw/memory.hpp"

/// \file pool.hpp
/// Caching device-memory pool in the CuPy / PyTorch-caching-allocator style:
/// freed blocks are kept in per-(device, backed, size-class) freelists and
/// handed back to later allocations of the same class instead of going
/// through the registry (a heap allocation for backed regions, fresh address
/// space for unbacked ones). Sizes round up to 512-byte bins, so a training
/// step that frees and reallocates its gradient buckets reuses the same
/// regions every iteration — the steady state allocates nothing.
///
/// The pool is time-free: it models no virtual-time cost, it removes *real*
/// allocation churn (the same contract as the request and future slab pool
/// in sim/future.hpp) and exposes hit/miss/byte counters so workloads can
/// assert the reuse they expect.

namespace cux::hw {

class DevicePool {
 public:
  explicit DevicePool(MemoryRegistry& mem) : mem_(mem) {}
  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;
  ~DevicePool() { trim(); }

  /// Allocation granularity: requests round up to the next multiple.
  static constexpr std::size_t kBin = 512;

  /// Returns a device region of at least `size` bytes on `device`, with its
  /// classification. Served from the freelist when a block of the same
  /// rounded size exists there (a *hit*); otherwise falls through to
  /// MemoryRegistry::allocDevice.
  MemRef alloc(int device, std::size_t size, bool backed);

  /// Returns `p` (a pointer obtained from alloc) to the pool. The region
  /// stays registered — and, when backed, keeps its contents — until trim().
  /// Null is a no-op. Throws std::invalid_argument, in every build type, for
  /// a pointer the pool did not hand out or a block that is already free.
  void free(void* p);

  /// Releases every cached (free) block back to the registry.
  void trim();

  // --- accounting ----------------------------------------------------------
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t bytesLive() const noexcept { return bytes_live_; }
  [[nodiscard]] std::uint64_t bytesCached() const noexcept { return bytes_cached_; }
  [[nodiscard]] std::uint64_t bytesHighWatermark() const noexcept { return bytes_hwm_; }

 private:
  struct Block {
    int device = 0;
    bool backed = false;
    std::size_t size = 0;  ///< rounded size
    bool cached = false;   ///< on a freelist, not handed out
  };
  struct ClassKey {
    int device;
    bool backed;
    std::size_t size;
    bool operator<(const ClassKey& o) const noexcept {
      if (device != o.device) return device < o.device;
      if (backed != o.backed) return backed < o.backed;
      return size < o.size;
    }
  };

  MemoryRegistry& mem_;
  std::map<ClassKey, std::vector<void*>> free_;
  std::unordered_map<void*, Block> live_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t bytes_live_ = 0;
  std::uint64_t bytes_cached_ = 0;
  std::uint64_t bytes_hwm_ = 0;
};

}  // namespace cux::hw
