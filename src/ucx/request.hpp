#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/small_fn.hpp"

/// \file request.hpp
/// Non-blocking operation handles, the moral equivalent of ucs_status_ptr_t
/// requests returned by ucp_tag_send_nb / ucp_tag_recv_nb. Their storage
/// comes from the per-thread slab pool behind sim::Future (see
/// Context::makeRequest): real UCX requests come from a preallocated mpool
/// for the same reason, one per message is the steady state of the tagged
/// hot path.

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

}  // namespace cux::ucx
