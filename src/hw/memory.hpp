#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file memory.hpp
/// Simulated device memory and pointer classification.
///
/// Mirrors what cudaPointerGetAttributes provides on a real system: given an
/// arbitrary pointer, decide whether it lives on a (simulated) GPU and which
/// one. Device allocations come in two flavours:
///
/// * **backed** — real host memory stands in for device memory, so copies
///   move actual bytes and tests can verify end-to-end data integrity;
/// * **unbacked** — address space with no physical pages, carved from a few
///   large PROT_NONE reservations the registry owns; used by the large-scale
///   figure benches where the paper's domains (e.g. 3072^3 doubles) would
///   need terabytes. Timing is identical; only the byte movement is skipped.

namespace cux::hw {

enum class MemSpace { Host, Device };

struct Region {
  std::uintptr_t base = 0;
  std::size_t size = 0;
  MemSpace space = MemSpace::Device;
  int device = -1;      ///< global GPU index (pe number in the 1-PE-per-GPU setup)
  bool backed = false;  ///< true when the address range is dereferenceable
};

class MemoryRegistry {
 public:
  MemoryRegistry() = default;
  ~MemoryRegistry();
  MemoryRegistry(const MemoryRegistry&) = delete;
  MemoryRegistry& operator=(const MemoryRegistry&) = delete;

  /// Allocates `size` bytes of simulated device memory on GPU `device`.
  /// Throws std::invalid_argument when `size` is zero.
  void* allocDevice(int device, std::size_t size, bool backed);

  /// Allocates an *unbacked* host-space region: address space that classifies
  /// as host memory but is never dereferenced. Timing-only runs stage through
  /// these (cuda::HostBuffer), as do the large-scale benches whose
  /// paper-sized footprint (hundreds of GB across 1536 simulated PEs) could
  /// not be physically allocated. Throws std::invalid_argument when `size`
  /// is zero.
  void* allocHostUnbacked(std::size_t size);

  /// Releases a pointer returned by allocDevice()/allocHostUnbacked(). Throws
  /// std::invalid_argument for any other pointer (in every build type).
  void freeDevice(void* p);

  /// Region containing `p`, or nullptr for ordinary host memory. The pointer
  /// is valid until the next allocation or free.
  [[nodiscard]] const Region* find(const void* p) const;

  [[nodiscard]] bool isDevice(const void* p) const {
    const Region* r = find(p);
    return r != nullptr && r->space == MemSpace::Device;
  }
  [[nodiscard]] MemSpace spaceOf(const void* p) const {
    return isDevice(p) ? MemSpace::Device : MemSpace::Host;
  }

  /// GPU index owning `p`, or -1 for host memory.
  [[nodiscard]] int deviceOf(const void* p) const {
    const Region* r = find(p);
    return (r != nullptr && r->space == MemSpace::Device) ? r->device : -1;
  }

  /// True when `p` may actually be read/written: host memory or a backed
  /// device region. The data-movement layer consults this before memcpy.
  [[nodiscard]] bool dereferenceable(const void* p) const {
    const Region* r = find(p);
    return r == nullptr || r->backed;
  }

  [[nodiscard]] std::size_t liveAllocations() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t bytesAllocated() const noexcept { return bytes_allocated_; }

 private:
  /// Regions sorted by base, with the search keys kept contiguous.
  struct RegionIndex {
    std::vector<std::uintptr_t> bases;
    std::vector<Region> regions;  ///< parallel to `bases`

    /// Position of the entry with the greatest base <= addr, or npos.
    [[nodiscard]] std::size_t floor(std::uintptr_t addr) const noexcept;
    /// Entry containing `addr`, or nullptr.
    [[nodiscard]] const Region* containing(std::uintptr_t addr) const noexcept;
    /// Position of the live entry whose base is exactly `addr`, or npos.
    [[nodiscard]] std::size_t exact(std::uintptr_t addr) const noexcept;
  };

  /// One PROT_NONE reservation. Regions are carved bump-wise and
  /// page-aligned from `base`, so its index is sorted by construction; a
  /// freed region stays as a tombstone (size 0) until compaction.
  struct Reservation {
    std::uintptr_t base = 0;
    std::size_t capacity = 0;
    std::size_t used = 0;  ///< bump offset: [base, base + used) is carved
    std::size_t dead = 0;  ///< tombstones in `index`
    RegionIndex index;
  };

  void* carve(std::size_t size, MemSpace space, int device);
  void release(std::size_t reservation, std::size_t pos);

  std::vector<Reservation> reservations_;  ///< creation order; back() is carved
  RegionIndex backed_;                     ///< heap-allocated backed regions
  std::size_t next_reservation_ = std::size_t{1} << 30;  ///< at least doubles each time
  std::size_t live_ = 0;
  std::uint64_t bytes_allocated_ = 0;
};

}  // namespace cux::hw
