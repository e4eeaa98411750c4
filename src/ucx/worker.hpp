#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hw/memory.hpp"
#include "sim/matcher.hpp"
#include "sim/small_fn.hpp"
#include "ucx/request.hpp"

/// \file worker.hpp
/// Per-PE communication endpoint, the moral equivalent of a ucp_worker.
///
/// A Worker owns a tag matcher (sim::TagMatcher, shared with ampi::World)
/// and persistent "handler" receives used by the Converse machine layer to
/// accept arbitrary-size host messages (standing in for the wildcard
/// pre-posted receives of the real UCX machine layer).
///
/// Matching semantics mirror UCX/MPI:
///  * arriving messages take the earliest-posted matching receive;
///  * newly posted receives take the earliest-arrived unexpected message;
///  * persistent handlers are consulted after posted receives, so explicit
///    receives and machine-layer traffic can share the worker (in practice
///    the MSG_BITS of the tag keep their tag spaces disjoint).
///
/// The Worker supplies only the UCX key (the full tag) and predicate
/// (tag/mask); the matcher owns the stores and the post-order arbitration.
/// tests/test_matcher.cpp
/// checks these semantics against a plain two-deque scan model.
///
/// See the "tag-matching engine" section of docs/architecture.md.

namespace cux::ucx {

class Context;

/// Persistent receive handler: owns the payload.
/// Unbacked payloads (simulated-only transfers) arrive as empty vectors with
/// `payload_valid == false`. `len` is the wire length, which may exceed
/// `payload.size()` when the sender carried part of it as length only (see
/// Context::amSend).
struct Delivery {
  std::vector<std::byte> payload;
  bool payload_valid = true;
  Tag tag = 0;
  int src_pe = -1;
  std::uint64_t len = 0;
};
using HandlerFn = std::function<void(Delivery)>;

class Worker {
 public:
  Worker(Context& ctx, int pe) : ctx_(ctx), pe_(pe) {}
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] int pe() const noexcept { return pe_; }
  [[nodiscard]] Context& context() noexcept { return ctx_; }

  /// Posts a receive for a message matching `tag` under `mask`
  /// (ucp_tag_recv_nb) into `buf`, whose carried classification decides the
  /// receive-side path. `buf` must stay valid until completion. `src_pe` is
  /// the PE the poster expects the message from (-1: any); it does not
  /// restrict matching, but once the failure detector declares that PE dead
  /// the unmatched receive ends PeerFailed (see Context::sweepDeadPe). Until
  /// the match the request's peer_pe holds it.
  RequestPtr tagRecv(hw::MemRef buf, std::uint64_t len, Tag tag, Tag mask, CompletionFn cb,
                     int src_pe = -1);

  /// Registers a persistent handler for messages matching `tag` under `mask`.
  /// The handler owns delivered payloads; it keeps firing until the worker is
  /// destroyed. Used by the machine layer for Converse host messages.
  void setHandler(Tag tag, Tag mask, HandlerFn fn);

  /// A provider invoked at match time to supply the destination buffer (and
  /// completion callback) for a matching message — the receiver-side half of
  /// an active-message receive: data lands directly in the provided buffer
  /// (host or device) with no pre-posted request and no unexpected-queue
  /// detour. A null buffer pointer declines the message (it then falls
  /// through to plain handlers / the unexpected queue).
  using BufferProvider =
      std::function<std::pair<hw::MemRef, CompletionFn>(std::uint64_t len, Tag tag, int src_pe)>;

  /// Registers a persistent buffer-providing handler; consulted after posted
  /// receives but before plain handlers.
  void setBufferedHandler(Tag tag, Tag mask, BufferProvider fn);

  // --- statistics --------------------------------------------------------
  /// Duplicate deliveries suppressed by the reliability layer
  /// (a retransmit racing a jitter-delayed original).
  [[nodiscard]] std::uint64_t duplicatesSuppressed() const noexcept { return dups_suppressed_; }
  /// Occupancy and search work of the tag matcher
  /// (`gpucomm_sweep --metric match`); the O(1) regression tests assert on
  /// deltas of its scan_steps.
  [[nodiscard]] sim::MatchStats matchStats() const { return matcher_.stats(); }

 private:
  friend class Context;

  /// An arriving message the matching engine operates on. Exactly one of the
  /// two shapes is populated: eager (payload travelled with the header) or
  /// rendezvous (payload still lives at src_ptr on the sender).
  ///
  /// Field order packs the struct to 88 bytes so an arrival capture (worker
  /// pointer + Incoming) fits sim::SmallFn's inline buffer with room to
  /// spare; the static_assert below enforces the budget (see the capture
  /// audit in docs/architecture.md). The source's classification travels as
  /// the two flags after src_pe, in what was padding, rather than as a whole
  /// hw::MemRef: the RTS carries the memory type, not the GPU. Matching-engine
  /// bookkeeping (arrival sequence numbers, bucket links) deliberately lives
  /// in the matcher's store nodes, not here, to hold that budget.
  ///
  /// Reliable-mode duplicate suppression does not live here: retransmits of
  /// one wire message share their Context::WireState, and only the first
  /// arrival is delivered (see Context::reliableTransmit) — O(1) state per
  /// in-flight message instead of a per-worker ever-growing seen-set.
  struct Incoming {
    Tag tag = 0;
    std::uint64_t len = 0;
    const void* src_ptr = nullptr;   ///< rendezvous: payload still at the sender
    std::vector<std::byte> payload;  ///< eager: payload travelled with the header
    RequestPtr send_req;             ///< rendezvous: sender-side request (owns its completion)
    /// Owner of a rendezvous payload whose storage is not anchored by the
    /// caller (amSend's owned vectors). The receiver side holds this until
    /// the copy from src_ptr has executed — or moves the vector itself into
    /// a handler Delivery — which can be *after* the sender-side ATS
    /// completion fires. It may be shorter than `len` (see amSend).
    std::shared_ptr<std::vector<std::byte>> payload_owner;
    int src_pe = -1;
    bool is_rndv = false;
    bool payload_valid = true;
    bool src_device = false;  ///< receiver pays the un-staging cost for device eager
    bool src_backed = true;   ///< rendezvous: src_ptr may be read

    [[nodiscard]] std::uint64_t matchKey() const noexcept { return tag; }
    /// The rendezvous source as the receiver knows it.
    [[nodiscard]] hw::MemRef src() const noexcept {
      return hw::MemRef{const_cast<void*>(src_ptr), -1,
                        src_device ? hw::MemSpace::Device : hw::MemSpace::Host, src_backed};
    }
  };
  static_assert(sizeof(Incoming) <= 88, "Incoming grew: re-audit the arrival captures");
  static_assert(sim::SmallFn::fitsInline<std::pair<Worker*, Incoming>>(),
                "an arrival capture (worker pointer + Incoming) must fit an engine slot");

  /// A posted receive; its completion lives in `req`.
  struct PostedRecv {
    RequestPtr req;
    hw::MemRef buf;
    std::uint64_t len = 0;
    Tag tag = 0;
    Tag mask = 0;

    // sim::TagMatcher key and predicate.
    [[nodiscard]] bool exact() const noexcept { return mask == kFullMask; }
    [[nodiscard]] std::uint64_t matchKey() const noexcept { return tag; }
    [[nodiscard]] bool matches(const Incoming& m) const noexcept {
      return (m.tag & mask) == (tag & mask);
    }
  };

  void onArrival(Incoming msg);
  /// Accounting for a retransmit copy suppressed before delivery (the
  /// original already arrived); called by Context::reliableTransmit.
  void noteDuplicateSuppressed(int src_pe, std::uint64_t len, Tag tag);
  /// Routes a matched pair to the eager or rendezvous completion path.
  void dispatchMatch(PostedRecv r, Incoming msg);
  void completeRecvFromEager(PostedRecv r, Incoming msg);
  void startRndvTransfer(PostedRecv r, Incoming msg);
  void deliverToHandler(HandlerFn& fn, Incoming msg);

  struct Handler {
    Tag tag;
    Tag mask;
    HandlerFn fn;
  };
  struct BufferedHandler {
    Tag tag;
    Tag mask;
    BufferProvider fn;
  };

  Context& ctx_;
  int pe_;

  sim::TagMatcher<PostedRecv, Incoming> matcher_;
  // One allocation per registration, none before the first: a handler's
  // address stays stable for deliverToHandler's deferred calls.
  std::vector<std::unique_ptr<Handler>> handlers_;
  std::vector<std::unique_ptr<BufferedHandler>> buffered_handlers_;
  std::uint64_t dups_suppressed_ = 0;
};

}  // namespace cux::ucx
