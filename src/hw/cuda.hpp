#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "hw/system.hpp"
#include "sim/future.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

/// \file cuda.hpp
/// CUDA runtime shim over the simulated hardware.
///
/// Provides the subset of CUDA the paper's code paths exercise: device
/// allocation, in-order streams, asynchronous memcpy in all four directions,
/// kernel launches with a caller-supplied cost, and stream synchronisation.
/// Semantics match CUDA: API calls return immediately (their fixed CPU cost
/// is modelled inside the op timeline), ops on one stream execute in order,
/// and H2D/D2H copies contend for the GPU's NVLink brick with any concurrent
/// communication — which is exactly the resource pressure the host-staging
/// (-H) benchmark variants pay for.

namespace cux::cuda {

enum class MemcpyKind { HostToHost, HostToDevice, DeviceToHost, DeviceToDevice };

/// Allocates simulated device memory on GPU `device` (global index == PE in
/// the paper's one-process-per-GPU configuration). `backed` overrides the
/// machine default: true = real bytes (tests), false = address space only.
/// The allocation classifies itself: the returned ref needs no lookup.
hw::MemRef deviceAlloc(hw::System& sys, int device, std::size_t size);
hw::MemRef deviceAlloc(hw::System& sys, int device, std::size_t size, bool backed);
void deviceFree(hw::System& sys, void* p);

/// RAII device buffer.
class DeviceBuffer {
 public:
  DeviceBuffer(hw::System& sys, int device, std::size_t size)
      : sys_(&sys), ref_(deviceAlloc(sys, device, size)), size_(size) {}
  DeviceBuffer(hw::System& sys, int device, std::size_t size, bool backed)
      : sys_(&sys), ref_(deviceAlloc(sys, device, size, backed)), size_(size) {}
  ~DeviceBuffer() {
    if (ref_.ptr != nullptr) deviceFree(*sys_, ref_.ptr);
  }
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : sys_(o.sys_), ref_(std::exchange(o.ref_, hw::MemRef{})), size_(o.size_) {}
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      if (ref_.ptr != nullptr) deviceFree(*sys_, ref_.ptr);
      sys_ = o.sys_;
      ref_ = std::exchange(o.ref_, hw::MemRef{});
      size_ = o.size_;
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] void* get() const noexcept { return ref_.ptr; }
  /// The buffer with its classification, as the allocation made it.
  [[nodiscard]] const hw::MemRef& ref() const noexcept { return ref_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  template <class T>
  [[nodiscard]] T* as() const noexcept {
    return static_cast<T*>(ref_.ptr);
  }

 private:
  hw::System* sys_;
  hw::MemRef ref_;
  std::size_t size_;
};

/// RAII host staging buffer for the -H (host-staging) paths. One rule, no
/// knob: it is backed iff the machine backs device memory. A backed buffer is
/// plain, zero-initialised host memory; an unbacked one is a
/// MemoryRegistry::allocHostUnbacked region that classifies as host memory
/// but is never dereferenced, so timing-only runs charge the staging copies
/// in simulated time without moving bytes on the host. A zero-byte buffer
/// holds a null pointer and allocates nothing. Must be destroyed before its
/// System.
class HostBuffer {
 public:
  HostBuffer() = default;
  HostBuffer(hw::System& sys, std::size_t size);
  ~HostBuffer() { release(); }
  HostBuffer(HostBuffer&& o) noexcept
      : sys_(o.sys_), ptr_(std::exchange(o.ptr_, nullptr)), size_(o.size_),
        backing_(std::move(o.backing_)) {}
  HostBuffer& operator=(HostBuffer&& o) noexcept {
    if (this != &o) {
      release();
      sys_ = o.sys_;
      ptr_ = std::exchange(o.ptr_, nullptr);
      size_ = o.size_;
      backing_ = std::move(o.backing_);
    }
    return *this;
  }
  HostBuffer(const HostBuffer&) = delete;
  HostBuffer& operator=(const HostBuffer&) = delete;

  [[nodiscard]] void* get() const noexcept { return ptr_; }
  /// The buffer with its classification: host memory, backed unless it is
  /// an unbacked registry region.
  [[nodiscard]] hw::MemRef ref() const noexcept {
    return hw::MemRef{ptr_, -1, hw::MemSpace::Host, backing_ != nullptr || ptr_ == nullptr};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void release() noexcept;

  hw::System* sys_ = nullptr;
  void* ptr_ = nullptr;
  std::size_t size_ = 0;
  std::unique_ptr<std::byte[]> backing_;  ///< set iff backed and non-empty
};

/// Op timing: completion time given the op's start time.
using TimingFn = sim::InlineFn<sim::TimePoint(sim::TimePoint), 56>;
/// Op effect: runs at completion (byte movement, a kernel's body).
using EffectFn = sim::InlineFn<void(), 56>;

/// In-order execution stream bound to one GPU.
class Stream {
 public:
  Stream(hw::System& sys, int device) : sys_(sys), device_(device) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  [[nodiscard]] int device() const noexcept { return device_; }

  /// Enqueues an asynchronous copy. Bytes actually move (when both sides are
  /// backed) at op completion time, so overlapping compute observes CUDA's
  /// deferred-visibility semantics. `kind` picks the links the copy
  /// occupies; the refs only decide whether bytes move.
  void memcpyAsync(hw::MemRef dst, hw::MemRef src, std::size_t bytes, MemcpyKind kind);

  /// Enqueues a kernel costing `cost` of device time; `body` (may be empty)
  /// runs at completion and performs the kernel's effect on backed memory.
  void launch(sim::Duration cost, EffectFn body = {});

  /// Future fulfilled when every op enqueued so far has completed (plus the
  /// fixed synchronisation overhead).
  [[nodiscard]] sim::Future<void> synchronize();

  /// True when no enqueued work remains.
  [[nodiscard]] bool idle() const noexcept { return !busy_; }

 private:
  struct Op {
    TimingFn timing;
    EffectFn effect;
  };

  void enqueue(Op op);
  void kick();

  hw::System& sys_;
  int device_;
  sim::RingFifo<Op> ops_;  ///< queued behind the running op; storage is reused
  bool busy_ = false;
};

/// Performs the byte movement for a completed copy if both ends are backed.
/// Every copy into memory the caller did not just allocate goes through it
/// (CUDA copies, UCX eager/rendezvous receive completion, the Charm++ entry
/// thunk, AMPI and Charm4py inline delivery, the collectives), so unbacked
/// memory is never touched. It reads the carried classification and never
/// the registry. Copies into a freshly allocated message buffer test only
/// the source's `backed`.
void moveBytes(hw::MemRef dst, hw::MemRef src, std::size_t bytes);

}  // namespace cux::cuda
