#include "hw/cuda.hpp"

#include <cassert>
#include <cstring>
#include <utility>

namespace cux::cuda {

hw::MemRef deviceAlloc(hw::System& sys, int device, std::size_t size) {
  return deviceAlloc(sys, device, size, sys.config.backed_device_memory);
}

hw::MemRef deviceAlloc(hw::System& sys, int device, std::size_t size, bool backed) {
  return hw::MemRef::onGpu(sys.memory.allocDevice(device, size, backed), device, backed);
}

void deviceFree(hw::System& sys, void* p) { sys.memory.freeDevice(p); }

HostBuffer::HostBuffer(hw::System& sys, std::size_t size) : sys_(&sys), size_(size) {
  if (size == 0) return;
  if (sys.config.backed_device_memory) {
    backing_ = std::make_unique<std::byte[]>(size);
    ptr_ = backing_.get();
  } else {
    ptr_ = sys.memory.allocHostUnbacked(size);
  }
}

void HostBuffer::release() noexcept {
  if (ptr_ != nullptr && backing_ == nullptr) sys_->memory.freeDevice(ptr_);
  ptr_ = nullptr;
  backing_.reset();
}

void moveBytes(hw::MemRef dst, hw::MemRef src, std::size_t bytes) {
  if (bytes == 0 || dst.ptr == src.ptr || !dst.backed || !src.backed) return;
  std::memcpy(dst.ptr, src.ptr, bytes);
}

void Stream::memcpyAsync(hw::MemRef dst, hw::MemRef src, std::size_t bytes, MemcpyKind kind) {
  hw::System& sys = sys_;
  const int device = device_;
  Op op;
  op.timing = [&sys, device, kind, bytes](sim::TimePoint start) -> sim::TimePoint {
    const hw::MachineConfig& cfg = sys.config;
    start += sim::usec(cfg.cuda_call_us);
    const hw::GpuId gpu = sys.machine.gpuOfPe(device);
    switch (kind) {
      case MemcpyKind::HostToDevice: {
        sim::TimePoint t = start + sim::usec(cfg.cuda_copy_latency_us);
        return sys.machine.gpuDown(gpu).reserve(t, bytes);
      }
      case MemcpyKind::DeviceToHost: {
        sim::TimePoint t = start + sim::usec(cfg.cuda_copy_latency_us);
        return sys.machine.gpuUp(gpu).reserve(t, bytes);
      }
      case MemcpyKind::DeviceToDevice:
        // Same-device copy: read + write through HBM.
        return start + sim::usec(cfg.cuda_copy_latency_us) +
               sim::transferTime(2 * bytes, cfg.gpu_mem_bandwidth_gbps);
      case MemcpyKind::HostToHost:
        return start + sim::transferTime(bytes, cfg.host_memcpy_gbps);
    }
    return start;
  };
  op.effect = [dst, src, bytes] { moveBytes(dst, src, bytes); };
  enqueue(std::move(op));
}

void Stream::launch(sim::Duration cost, EffectFn body) {
  hw::System& sys = sys_;
  Op op;
  const int device = device_;
  sys.trace.record(sys.engine.now(), sim::TraceCat::Kernel, device, -1, 0, 0, "launch");
  op.timing = [&sys, device, cost](sim::TimePoint start) {
    // Kernels from every stream of this GPU serialise on its SM array.
    const sim::TimePoint launched =
        start + sim::usec(sys.config.cuda_call_us) + sim::usec(sys.config.kernel_launch_us);
    return sys.machine.gpuCompute(sys.machine.gpuOfPe(device)).reserve(launched, cost);
  };
  op.effect = std::move(body);
  enqueue(std::move(op));
}

sim::Future<void> Stream::synchronize() {
  sim::Promise<void> done;
  const sim::Duration sync_cost = sim::usec(sys_.config.cuda_sync_us);
  if (!busy_) {
    sys_.engine.after(sync_cost, [done] { done.set(); });
    return done.future();
  }
  // Zero-cost marker op: completes when everything before it has.
  Op op;
  sim::Engine& engine = sys_.engine;
  op.timing = [](sim::TimePoint start) { return start; };
  op.effect = [done, sync_cost, &engine] { engine.after(sync_cost, [done] { done.set(); }); };
  enqueue(std::move(op));
  return done.future();
}

void Stream::enqueue(Op op) {
  ops_.push_back(std::move(op));
  if (!busy_) kick();
}

void Stream::kick() {
  if (ops_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Op op = std::move(ops_.front());
  ops_.pop_front();
  const sim::TimePoint finish = op.timing(sys_.engine.now());
  sys_.engine.schedule(finish, [this, effect = std::move(op.effect)] {
    effect();
    kick();
  });
}

}  // namespace cux::cuda
