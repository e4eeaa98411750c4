#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"

/// \file request.hpp
/// Non-blocking operation handles, the moral equivalent of ucs_status_ptr_t
/// requests returned by ucp_tag_send_nb / ucp_tag_recv_nb, plus the freelist
/// pool that recycles their storage (real UCX requests come from a
/// preallocated mpool for the same reason: one per message is the steady
/// state of the tagged hot path).

namespace cux::ucx {

using Tag = std::uint64_t;
inline constexpr Tag kFullMask = ~Tag{0};

/// `Error` and `PeerFailed` are terminal: the reliability layer exhausted
/// its retransmission budget (or a rendezvous leg failed permanently), or
/// the failure detector declared the peer PE dead. Either is surfaced
/// through the completion callback exactly once — an operation never hangs.
enum class ReqState : std::uint8_t { Pending, Done, Error, PeerFailed };

struct Request;

/// Completion callback; the request is fully populated when invoked. Sized
/// for the machine layer's completions (DeviceComm's send and receive
/// continuations, which carry a model-layer core::DoneFn); larger captures
/// fall back to the heap.
using CompletionFn = sim::InlineFn<void(Request&), 104>;

/// One in-flight operation. The request owns its completion (as
/// ucp_request_param_t.cb does in real UCX): every engine event that may
/// finish the operation captures only the RequestPtr, and the completion is
/// never copied. complete() is the single terminal transition.
struct Request {
  ReqState state = ReqState::Pending;
  Tag matched_tag = 0;        ///< actual tag of the matched message (recv side)
  std::uint64_t bytes = 0;    ///< payload size transferred
  /// Send side: the destination PE. Receive side: the source the poster
  /// named (-1: any) until the match, then the actual source.
  int peer_pe = -1;
  /// Send side: the receiver observed the data, even if `state` is Error.
  /// Distinguishes "data never delivered" (retries exhausted in flight —
  /// resending can recover) from "delivered but the ack was lost" (a
  /// rendezvous whose ATS exhausted its retries: the receiver completed Done
  /// and consumed the receive, so a resend under the same tag could never
  /// match again).
  bool data_delivered = false;

  [[nodiscard]] bool done() const noexcept { return state == ReqState::Done; }
  [[nodiscard]] bool failed() const noexcept {
    return state == ReqState::Error || state == ReqState::PeerFailed;
  }
  [[nodiscard]] bool peerFailed() const noexcept { return state == ReqState::PeerFailed; }

  /// Fired by complete(); empty once it has run.
  CompletionFn completion;
};

/// Terminal transition of a request: if it is still Pending, moves the
/// completion out, sets `s` and invokes the completion; otherwise does
/// nothing. The completion is moved out first: one that captures its own
/// RequestPtr is released as it runs instead of keeping the request alive,
/// and one that re-enters the machine layer sees the request already
/// terminal.
inline void complete(Request& r, ReqState s) {
  if (r.state != ReqState::Pending) return;
  CompletionFn cb = std::move(r.completion);
  r.state = s;
  if (cb) cb(r);
}

using RequestPtr = std::shared_ptr<Request>;

namespace detail {

/// Fixed-size freelist behind RequestPool. allocate_shared performs exactly
/// one allocation per request (control block + Request fused); its size is
/// constant, so recycled blocks always fit. The arena is shared between the
/// pool and every allocator copy stored in live control blocks, so requests
/// that outlive their Context still deallocate safely into a live arena.
/// Lifetime uses an intrusive NON-atomic refcount — the simulation is
/// single-threaded, and allocator copies happen on the per-message hot path
/// where shared_ptr's atomic increments were a measurable cost.
struct RequestArena {
  static constexpr std::size_t kMaxFree = 4096;  ///< bounded retained storage
  std::vector<void*> free_blocks;
  std::size_t block_bytes = 0;
  std::uint64_t hits = 0, misses = 0;
  std::size_t refs = 1;  ///< intrusive refcount (single-threaded)
  RequestArena() = default;
  RequestArena(const RequestArena&) = delete;
  RequestArena& operator=(const RequestArena&) = delete;
  ~RequestArena() {
    for (void* p : free_blocks) ::operator delete(p);
  }
};

inline void arenaRef(RequestArena* a) noexcept { ++a->refs; }
inline void arenaUnref(RequestArena* a) noexcept {
  if (--a->refs == 0) delete a;
}

template <class T>
struct RequestPoolAlloc {
  using value_type = T;
  RequestArena* arena;  ///< refcounted via arenaRef/arenaUnref

  explicit RequestPoolAlloc(RequestArena* a) noexcept : arena(a) { arenaRef(arena); }
  RequestPoolAlloc(const RequestPoolAlloc& o) noexcept : arena(o.arena) { arenaRef(arena); }
  template <class U>
  RequestPoolAlloc(const RequestPoolAlloc<U>& o) noexcept : arena(o.arena) {  // NOLINT(google-explicit-constructor)
    arenaRef(arena);
  }
  RequestPoolAlloc& operator=(const RequestPoolAlloc& o) noexcept {
    arenaRef(o.arena);
    arenaUnref(arena);
    arena = o.arena;
    return *this;
  }
  ~RequestPoolAlloc() { arenaUnref(arena); }

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (n == 1 && alignof(T) <= alignof(std::max_align_t)) {
      if (arena->block_bytes == 0) arena->block_bytes = bytes;
      if (arena->block_bytes == bytes) {
        if (!arena->free_blocks.empty()) {
          ++arena->hits;
          T* p = static_cast<T*>(arena->free_blocks.back());
          arena->free_blocks.pop_back();
          return p;
        }
        ++arena->misses;
      }
    }
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1 && n * sizeof(T) == arena->block_bytes &&
        arena->free_blocks.size() < RequestArena::kMaxFree) {
      arena->free_blocks.push_back(p);
      return;
    }
    ::operator delete(p);
  }
  template <class U>
  bool operator==(const RequestPoolAlloc<U>& o) const noexcept {
    return arena == o.arena;
  }
};

}  // namespace detail

/// Recycles Request allocations: make() is a pool hit (no heap allocation)
/// whenever a previously released request's block is free. Ownership stays
/// plain shared_ptr — a block returns to the pool when its last reference
/// drops, so completions holding a RequestPtr can never see recycled state.
class RequestPool {
 public:
  RequestPool() : arena_(new detail::RequestArena) {}
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;
  ~RequestPool() { detail::arenaUnref(arena_); }

  [[nodiscard]] RequestPtr make() {
    return std::allocate_shared<Request>(detail::RequestPoolAlloc<Request>{arena_});
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return arena_->hits; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return arena_->misses; }

 private:
  detail::RequestArena* arena_;
};

}  // namespace cux::ucx
