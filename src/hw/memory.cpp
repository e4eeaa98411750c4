#include "hw/memory.hpp"

#include <sys/mman.h>

#include <new>
#include <stdexcept>

namespace cux::hw {

namespace {

void requireNonZero(std::size_t size) {
  if (size == 0) {
    throw std::invalid_argument("MemoryRegistry: zero-byte regions are not representable");
  }
}

void* reserveUnbacked(std::size_t size) {
  // PROT_NONE reservation: consumes address space only, so classifying fake
  // device pointers can never collide with a live host allocation and any
  // accidental dereference faults immediately instead of corrupting memory.
  void* p = ::mmap(nullptr, size, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return p;
}

}  // namespace

MemoryRegistry::~MemoryRegistry() {
  for (auto& [base, region] : regions_) {
    if (region.backed) {
      ::operator delete(reinterpret_cast<void*>(base), std::align_val_t{64});
    } else {
      ::munmap(reinterpret_cast<void*>(base), region.size);
    }
  }
}

void* MemoryRegistry::allocDevice(int device, std::size_t size, bool backed) {
  requireNonZero(size);
  void* p = backed ? ::operator new(size, std::align_val_t{64}) : reserveUnbacked(size);
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  regions_.emplace(base, Region{base, size, MemSpace::Device, device, backed});
  bytes_allocated_ += size;
  return p;
}

void* MemoryRegistry::allocHostUnbacked(std::size_t size) {
  requireNonZero(size);
  void* p = reserveUnbacked(size);
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  regions_.emplace(base, Region{base, size, MemSpace::Host, -1, false});
  bytes_allocated_ += size;
  return p;
}

void MemoryRegistry::freeDevice(void* p) {
  const auto base = reinterpret_cast<std::uintptr_t>(p);
  auto it = regions_.find(base);
  if (it == regions_.end()) {
    throw std::invalid_argument(
        "MemoryRegistry::freeDevice: pointer is not the base of a registry region");
  }
  bytes_allocated_ -= it->second.size;
  if (it->second.backed) {
    ::operator delete(p, std::align_val_t{64});
  } else {
    ::munmap(p, it->second.size);
  }
  regions_.erase(it);
}

const Region* MemoryRegistry::find(const void* p) const {
  if (regions_.empty()) return nullptr;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  auto it = regions_.upper_bound(addr);
  if (it == regions_.begin()) return nullptr;
  --it;
  const Region& r = it->second;
  return (addr >= r.base && addr < r.base + r.size) ? &r : nullptr;
}

}  // namespace cux::hw
