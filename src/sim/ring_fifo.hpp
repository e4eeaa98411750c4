#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

/// \file ring_fifo.hpp
/// RingFifo: the FIFO of cuda::Stream's ops and of Charm4py's endpoint
/// queues (docs/architecture.md, "Per-peer and per-endpoint state").

namespace cux::sim {

/// A FIFO on one power-of-two ring buffer. It allocates nothing until the
/// first push, doubles when full (moving the queued items in order) and never
/// shrinks, so a queue that stays under its high-water mark reuses its
/// storage and allocates nothing. (std::deque instead allocates a fresh
/// 512-byte node each time its back crosses a node boundary, and an empty
/// one already holds a node and its map.)
template <typename T>
class RingFifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth relocates items and must not throw midway");

 public:
  RingFifo() = default;
  RingFifo(const RingFifo&) = delete;
  RingFifo& operator=(const RingFifo&) = delete;
  ~RingFifo() {
    clear();
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The item `i` places behind the front (0 is the front).
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return buf_[(head_ + i) & (cap_ - 1)]; }
  [[nodiscard]] T& front() noexcept { return buf_[head_]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1)))) T(std::move(v));
    ++size_;
  }

  void pop_front() noexcept {
    std::destroy_at(buf_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every item; the storage stays for reuse.
  void clear() noexcept {
    while (size_ != 0) pop_front();
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  void grow() {
    const std::size_t cap = cap_ == 0 ? kFirstCapacity : cap_ * 2;
    T* buf = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      ::new (static_cast<void*>(buf + i)) T(std::move(from));
      std::destroy_at(&from);
    }
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;   ///< 0 or a power of two
  std::size_t head_ = 0;  ///< slot of the front item
  std::size_t size_ = 0;
};

}  // namespace cux::sim
