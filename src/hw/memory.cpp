#include "hw/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>

namespace cux::hw {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

void requireNonZero(std::size_t size) {
  if (size == 0) {
    throw std::invalid_argument("MemoryRegistry: zero-byte regions are not representable");
  }
}

[[noreturn]] void throwNotARegion() {
  throw std::invalid_argument(
      "MemoryRegistry::freeDevice: pointer is not the base of a registry region");
}

std::size_t pageRoundUp(std::size_t size) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  if (size > static_cast<std::size_t>(-1) - page) throw std::bad_alloc{};
  return (size + page - 1) / page * page;
}

}  // namespace

std::size_t MemoryRegistry::RegionIndex::floor(std::uintptr_t addr) const noexcept {
  if (bases.empty() || addr < bases.front()) return npos;
  // Branch-free binary search: the halving compiles to a conditional move.
  const std::uintptr_t* lo = bases.data();
  std::size_t n = bases.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    lo = lo[half] <= addr ? lo + half : lo;
    n -= half;
  }
  return static_cast<std::size_t>(lo - bases.data());
}

const Region* MemoryRegistry::RegionIndex::containing(std::uintptr_t addr) const noexcept {
  const std::size_t i = floor(addr);
  if (i == npos) return nullptr;
  const Region& r = regions[i];
  return addr - r.base < r.size ? &r : nullptr;  // tombstones have size 0
}

std::size_t MemoryRegistry::RegionIndex::exact(std::uintptr_t addr) const noexcept {
  const std::size_t i = floor(addr);
  return (i != npos && bases[i] == addr && regions[i].size != 0) ? i : npos;
}

MemoryRegistry::~MemoryRegistry() {
  for (const Region& r : backed_.regions) {
    ::operator delete(reinterpret_cast<void*>(r.base), std::align_val_t{64});
  }
  for (const Reservation& res : reservations_) {
    ::munmap(reinterpret_cast<void*>(res.base), res.capacity);
  }
}

void* MemoryRegistry::allocDevice(int device, std::size_t size, bool backed) {
  requireNonZero(size);
  if (device < 0 || device > kMaxDevice) {
    throw std::invalid_argument("MemoryRegistry::allocDevice: GPU index " +
                                std::to_string(device) + " out of range");
  }
  if (!backed) return carve(size, MemSpace::Device, device);
  ++epoch_;
  void* p = ::operator new(size, std::align_val_t{64});
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  const auto pos = static_cast<std::ptrdiff_t>(backed_.floor(base) + 1);  // npos + 1 == 0
  backed_.bases.insert(backed_.bases.begin() + pos, base);
  backed_.regions.insert(backed_.regions.begin() + pos,
                         Region{base, size, MemSpace::Device, device, true});
  ++live_;
  bytes_allocated_ += size;
  return p;
}

void* MemoryRegistry::allocHostUnbacked(std::size_t size) {
  requireNonZero(size);
  return carve(size, MemSpace::Host, -1);
}

void* MemoryRegistry::carve(std::size_t size, MemSpace space, int device) {
  const std::size_t span = pageRoundUp(size);
  if (reservations_.empty() || reservations_.back().capacity - reservations_.back().used < span) {
    // The carved reservation is full: reserve a larger one. PROT_NONE +
    // MAP_NORESERVE consumes address space only, so fake pointers never
    // collide with live host allocations and any dereference faults.
    const std::size_t capacity = std::max(next_reservation_, span);
    void* p = ::mmap(nullptr, capacity, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                     -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc{};
    next_reservation_ = capacity * 2;
    // The previous reservation stops being carved; drop it if nothing in it
    // is live any more.
    if (!reservations_.empty()) {
      const Reservation& prev = reservations_.back();
      if (prev.dead == prev.index.regions.size()) {
        ::munmap(reinterpret_cast<void*>(prev.base), prev.capacity);
        reservations_.pop_back();
      }
    }
    reservations_.push_back(Reservation{reinterpret_cast<std::uintptr_t>(p), capacity, 0, 0, {}});
  }
  ++epoch_;
  Reservation& res = reservations_.back();
  const std::uintptr_t base = res.base + res.used;
  res.used += span;
  res.index.bases.push_back(base);
  res.index.regions.push_back(Region{base, size, space, device, false});
  ++live_;
  bytes_allocated_ += size;
  return reinterpret_cast<void*>(base);
}

void MemoryRegistry::freeDevice(void* p) {
  ++epoch_;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  for (std::size_t i = 0; i < reservations_.size(); ++i) {
    if (addr - reservations_[i].base >= reservations_[i].used) continue;
    const std::size_t pos = reservations_[i].index.exact(addr);
    if (pos == npos) throwNotARegion();
    release(i, pos);
    return;
  }
  const std::size_t pos = backed_.exact(addr);
  if (pos == npos) throwNotARegion();
  bytes_allocated_ -= backed_.regions[pos].size;
  --live_;
  ::operator delete(p, std::align_val_t{64});
  backed_.bases.erase(backed_.bases.begin() + static_cast<std::ptrdiff_t>(pos));
  backed_.regions.erase(backed_.regions.begin() + static_cast<std::ptrdiff_t>(pos));
}

void MemoryRegistry::release(std::size_t i, std::size_t pos) {
  Reservation& res = reservations_[i];
  Region& r = res.index.regions[pos];
  bytes_allocated_ -= r.size;
  --live_;
  r.size = 0;  // tombstone: classifies nothing, never carved again
  ++res.dead;
  const std::size_t n = res.index.regions.size();
  if (res.dead == n && i + 1 != reservations_.size()) {
    // Fully dead and no longer carved: give the address space back.
    ::munmap(reinterpret_cast<void*>(res.base), res.capacity);
    reservations_.erase(reservations_.begin() + static_cast<std::ptrdiff_t>(i));
  } else if (res.dead * 2 > n) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (res.index.regions[k].size == 0) continue;
      res.index.bases[kept] = res.index.bases[k];
      res.index.regions[kept] = res.index.regions[k];
      ++kept;
    }
    res.index.bases.resize(kept);
    res.index.regions.resize(kept);
    res.dead = 0;
  }
}

MemRef MemoryRegistry::classify(const void* p) const {
  const Region* r = find(p);
  if (r == nullptr) return MemRef::host(p);
  if (r->space == MemSpace::Device) {
    return MemRef::onGpu(const_cast<void*>(p), r->device, r->backed);
  }
  return MemRef{const_cast<void*>(p), -1, MemSpace::Host, r->backed};
}

MemRef PointerCache::classify(const MemoryRegistry& mem, const void* p) {
  if (epoch_ != mem.epoch()) {
    refs_.clear();
    next_ = 0;
    epoch_ = mem.epoch();
  }
  for (const MemRef& r : refs_) {
    if (r.ptr == p) {
      ++hits_;
      return r;
    }
  }
  ++misses_;
  const MemRef r = mem.classify(p);
  if (refs_.size() < kSlots) {
    // Grow 8, 16, 24: a rank or PE with few buffers keeps a small table.
    if (refs_.size() == refs_.capacity()) refs_.reserve(std::min(kSlots, refs_.size() + 8));
    refs_.push_back(r);
  } else {
    refs_[next_] = r;
    next_ = (next_ + 1) % kSlots;
  }
  return r;
}

const Region* MemoryRegistry::find(const void* p) const {
  ++lookups_;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  for (const Reservation& res : reservations_) {
    if (addr - res.base < res.used) return res.index.containing(addr);
  }
  return backed_.regions.empty() ? nullptr : backed_.containing(addr);
}

}  // namespace cux::hw
