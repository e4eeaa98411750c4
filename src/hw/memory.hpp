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
///
/// A buffer is classified once, where a user call enters the stack, and the
/// result travels down as a MemRef (see docs/architecture.md, "Where a
/// buffer is classified").

namespace cux::hw {

enum class MemSpace : std::uint8_t { Host, Device };

/// A pointer together with its classification: memory space, owning GPU and
/// whether it may be dereferenced. It comes from one registry lookup
/// (MemoryRegistry::classify) or from an allocation that already knows the
/// answer (cuda::deviceAlloc, cuda::DeviceBuffer/HostBuffer, DevicePool),
/// and every layer below the user call takes it instead of asking the
/// registry again, as real UCX takes ucp_request_param_t::memory_type. The
/// three classification fields fit in 4 bytes, so a carrier can pack them
/// into the padding beside an int.
struct MemRef {
  void* ptr = nullptr;
  /// Owning GPU; -1 for host memory, and for a rendezvous source on the
  /// receiving side, where only its space and backing travel with the RTS.
  std::int16_t device = -1;
  MemSpace space = MemSpace::Host;
  bool backed = true;  ///< dereferenceable: host memory or a backed device region

  /// Ordinary host memory the registry never hands out (a std::vector, a
  /// message payload): classified without a lookup.
  [[nodiscard]] static MemRef host(const void* p) noexcept {
    return MemRef{const_cast<void*>(p), -1, MemSpace::Host, true};
  }
  /// A region of GPU `device`'s memory (`device` within
  /// [0, MemoryRegistry::kMaxDevice]).
  [[nodiscard]] static MemRef onGpu(void* p, int device, bool backed) noexcept {
    return MemRef{p, static_cast<std::int16_t>(device), MemSpace::Device, backed};
  }
  [[nodiscard]] bool isDevice() const noexcept { return space == MemSpace::Device; }
  /// The same buffer `offset` bytes further on.
  [[nodiscard]] MemRef at(std::uint64_t offset) const noexcept {
    MemRef r = *this;
    r.ptr = static_cast<std::byte*>(ptr) + offset;
    return r;
  }
};
static_assert(sizeof(MemRef) == 16, "MemRef grew: re-audit the completion captures");

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
  /// Throws std::invalid_argument when `size` is zero or `device` is not in
  /// [0, kMaxDevice].
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

  /// Largest GPU index a MemRef can carry.
  static constexpr int kMaxDevice = INT16_MAX;

  /// Classifies `p` with one lookup (what cudaPointerGetAttributes answers
  /// on a real system): a device region gives its GPU and backing, an
  /// unbacked host region host space and no backing, anything else plain
  /// host memory.
  [[nodiscard]] MemRef classify(const void* p) const;

  /// Region containing `p`, or nullptr for ordinary host memory: the one
  /// lookup, which classify() wraps. The pointer is valid until the next
  /// allocation or free.
  [[nodiscard]] const Region* find(const void* p) const;

  /// Lookups made so far: every classify() and find() costs one. Published
  /// as the `hw.memory.lookups` gauge.
  [[nodiscard]] std::uint64_t lookups() const noexcept { return lookups_; }

  /// Bumped by every allocation and free. A classification cached across
  /// calls is valid only while the epoch it was made in is current: a freed
  /// address the allocator hands out again may classify differently.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

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
  std::uint64_t epoch_ = 0;
  mutable std::uint64_t lookups_ = 0;
};

/// The paper's GPU-pointer cache (Sec. III-C1), which is also what UCX's
/// memory-type cache does for a send: the buffers one rank or PE last
/// classified, with their classification. A short flat array scanned
/// linearly, filled up to kSlots and then replaced round robin. It keeps
/// only classifications made in the registry's current epoch, so an address
/// that was freed and handed out again is classified afresh.
class PointerCache {
 public:
  /// Enough for a Jacobi rank's 18 halo buffers.
  static constexpr std::size_t kSlots = 24;

  /// `p` classified: from the cache on a hit, with one registry lookup on a
  /// miss.
  [[nodiscard]] MemRef classify(const MemoryRegistry& mem, const void* p);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  std::vector<MemRef> refs_;  ///< allocated on the first miss, grown 8 at a time
  std::size_t next_ = 0;      ///< slot the next miss replaces once full
  std::uint64_t epoch_ = 0;   ///< registry epoch `refs_` were classified in
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cux::hw
