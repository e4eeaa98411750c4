#include "hw/pool.hpp"

#include <stdexcept>

namespace cux::hw {

MemRef DevicePool::alloc(int device, std::size_t size, bool backed) {
  std::size_t rounded = (size + kBin - 1) / kBin * kBin;
  if (rounded == 0) rounded = kBin;

  const ClassKey key{device, backed, rounded};
  auto it = free_.find(key);
  if (it != free_.end() && !it->second.empty()) {
    void* p = it->second.back();
    it->second.pop_back();
    live_.find(p)->second.cached = false;
    ++hits_;
    bytes_cached_ -= rounded;
    bytes_live_ += rounded;
    if (bytes_live_ > bytes_hwm_) bytes_hwm_ = bytes_live_;
    return MemRef::onGpu(p, device, backed);
  }

  void* p = mem_.allocDevice(device, rounded, backed);
  live_.emplace(p, Block{device, backed, rounded});
  ++misses_;
  bytes_live_ += rounded;
  if (bytes_live_ > bytes_hwm_) bytes_hwm_ = bytes_live_;
  return MemRef::onGpu(p, device, backed);
}

void DevicePool::free(void* p) {
  if (p == nullptr) return;
  const auto it = live_.find(p);
  if (it == live_.end()) {
    throw std::invalid_argument("DevicePool::free: pointer was not handed out by this pool");
  }
  Block& b = it->second;
  if (b.cached) throw std::invalid_argument("DevicePool::free: block is already free");
  b.cached = true;
  free_[ClassKey{b.device, b.backed, b.size}].push_back(p);
  bytes_live_ -= b.size;
  bytes_cached_ += b.size;
}

void DevicePool::trim() {
  for (auto& [key, blocks] : free_) {
    for (void* p : blocks) {
      mem_.freeDevice(p);
      live_.erase(p);
      bytes_cached_ -= key.size;
    }
    blocks.clear();
  }
}

}  // namespace cux::hw
