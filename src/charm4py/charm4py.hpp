#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "charm/charm.hpp"
#include "hw/cuda.hpp"
#include "obs/span.hpp"
#include "sim/future.hpp"
#include "sim/matcher.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/task.hpp"

/// \file charm4py.hpp
/// Charm4py's Channel API over the Charm++ runtime (paper Sections II-E and
/// III-D), with the Python/Cython layer replaced by a calibrated overhead
/// model: every user-level call pays the interpreter + Cython crossing cost
/// (py_call_us); completions that wake a suspended coroutine pay the
/// future-fulfilment cost (py_wakeup_us); host payload copies run at Python
/// buffer-copy bandwidth (py_host_copy_gbps).
///
/// Channels provide explicit ordered send/receive semantics between two
/// chares; a receive suspends the calling coroutine on a future until the
/// message arrives (paper: "retains asynchrony by suspending the caller
/// object until the respective communication is complete"). The GPU-aware
/// path hands device pointers straight to the Charm++ runtime, which routes
/// them through LrtsSendDevice exactly as in Fig. 9.

namespace cux::c4p {

class Charm4py;

/// One endpoint of a channel, bound to a PE. All calls must run from that
/// PE's context (a coroutine started with Charm4py::startOn).
class ChannelEnd {
 public:
  /// Sends `bytes` at `buf` (host or device) to the peer end.
  /// The returned future completes when the buffer is reusable.
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes);

  /// Receives the next in-order message into `buf` (capacity `bytes`).
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes);

  [[nodiscard]] int pe() const noexcept { return pe_; }

  /// True once the failure detector declared either endpoint's PE dead: the
  /// channel is aborted, and send/recv complete immediately without wire
  /// traffic (drain semantics — the caller observes the failure here, never
  /// through a hang).
  [[nodiscard]] bool aborted() const;

 private:
  friend class Charm4py;
  Charm4py* owner_ = nullptr;
  std::uint64_t chan_ = 0;
  int side_ = 0;  ///< 0 or 1
  int pe_ = -1;
};

/// A bidirectional ordered connection between two chares (paper [14]).
struct Channel {
  ChannelEnd* a = nullptr;
  ChannelEnd* b = nullptr;
};

class Charm4py {
 public:
  explicit Charm4py(ck::Runtime& rt);
  Charm4py(const Charm4py&) = delete;
  Charm4py& operator=(const Charm4py&) = delete;
  ~Charm4py();

  [[nodiscard]] ck::Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] hw::System& system() noexcept { return rt_.system(); }

  /// Establishes a channel between chares on `pe_a` and `pe_b`.
  Channel makeChannel(int pe_a, int pe_b);

  // --- failure model --------------------------------------------------------

  /// True once the detector declared a PE of either end dead. A dead
  /// channel's send/recv complete immediately (no seq consumed, no wire
  /// traffic); its queued state was orphaned at announcement time.
  [[nodiscard]] bool channelDead(std::uint64_t chan) const {
    return dead_chans_.count(chan) != 0;
  }
  /// Detector's announcement already processed for `pe`.
  [[nodiscard]] bool peFailed(int pe) const {
    return pe >= 0 && static_cast<std::size_t>(pe) < pe_dead_.size() &&
           pe_dead_[static_cast<std::size_t>(pe)] != 0;
  }
  /// Receives failed (promise force-completed) by failure sweeps.
  [[nodiscard]] std::uint64_t failedRecvs() const noexcept { return failed_recvs_; }
  /// Queued envelopes discarded because their channel died.
  [[nodiscard]] std::uint64_t orphanedEnvelopes() const noexcept { return orphaned_envelopes_; }
  /// send/recv calls refused (completed immediately) on dead channels.
  [[nodiscard]] std::uint64_t abortedOps() const noexcept { return aborted_ops_; }

  /// Launches a Python coroutine on `pe` (entry method invocation).
  void startOn(int pe, std::function<void()> fn);

  // --- charm.lib CUDA helpers (paper Fig. 8) -----------------------------
  /// The host-staging path calls these through Charm4py's Cython layer, so
  /// each pays the Python call overhead on top of the CUDA cost. The buffers
  /// come with the classification their allocation gave them.
  void cudaDtoH(int pe, hw::MemRef h_dst, hw::MemRef d_src, std::uint64_t n, cuda::Stream& s);
  void cudaHtoD(int pe, hw::MemRef d_dst, hw::MemRef h_src, std::uint64_t n, cuda::Stream& s);
  [[nodiscard]] sim::Future<void> streamSynchronize(int pe, cuda::Stream& s);

 private:
  friend class ChannelEnd;
  struct PerPeChare;

  struct Envelope {
    std::uint64_t bytes = 0;
    std::uint64_t dtag = 0;
    /// Lifecycle span of an inlined message (0 when observability is off);
    /// device-path envelopes correlate through `dtag` instead. Carried
    /// unconditionally so message contents do not depend on observability.
    std::uint64_t span = 0;
    bool inlined = false;
    std::vector<std::byte> data;
    bool src_host = false;  ///< host payload: the receiver pays a Python copy
    bool data_valid = true;
  };
  struct PendingRecv {
    void* buf = nullptr;  ///< classified when its message matches
    std::uint64_t capacity = 0;
    sim::Promise<void> done;
  };
  /// Per-direction endpoint state, keyed by (channel, receiving side).
  /// Queues allocate on their first item and then reuse their storage.
  struct EndpointState {
    sim::RingFifo<Envelope> arrived;     // in-order, ready to match
    sim::RingFifo<PendingRecv> waiting;  // recvs posted before arrival
    std::uint32_t seq_out = 0;           // next seq this side sends
    sim::Resequencer<Envelope> reseq;    // restores send order
  };

  sim::Future<void> sendImpl(ChannelEnd& end, const void* buf, std::uint64_t bytes);
  sim::Future<void> recvImpl(ChannelEnd& end, void* buf, std::uint64_t bytes);
  void onEnvelope(int pe, std::uint64_t chan, int side, std::uint32_t seq, Envelope env);
  /// `matched` is the span phase recorded for inlined envelopes consumed by
  /// this pass: MatchedPosted when called from onEnvelope (a receive was
  /// already waiting), MatchedUnexpected when called from recvImpl (the
  /// envelope arrived first).
  void matchOne(int pe, EndpointState& st, obs::Phase matched);
  EndpointState& endpoint(std::uint64_t chan, int side);
  /// Detector announcement: marks channels with an end on `pe` dead, fails
  /// waiting receives on both sides (survivors observe the failure, the dead
  /// side's coroutines drain to their abort exit) and orphans queued
  /// envelopes.
  void onPeFailed(int pe);
  /// Discards a queued envelope of a dead channel: closes its span
  /// (Errored) and counts it. The payload (device path) never lands — its
  /// machine-layer receive was never posted.
  void orphanEnvelope(int pe, Envelope& env);

  ck::Runtime& rt_;
  std::vector<ck::Proxy<PerPeChare>> chares_;  // one per PE
  // makeChannel appends side 0 then side 1 of each channel to both vectors,
  // so both are indexed by chan*2+side. Endpoint state is allocated on first
  // use, so making a channel allocates no queues.
  std::vector<std::unique_ptr<ChannelEnd>> ends_;
  std::vector<std::unique_ptr<EndpointState>> endpoints_;
  std::uint64_t next_chan_ = 0;
  std::unordered_set<std::uint64_t> dead_chans_;
  std::vector<char> pe_dead_;
  std::uint64_t failed_recvs_ = 0;
  std::uint64_t orphaned_envelopes_ = 0;
  std::uint64_t aborted_ops_ = 0;
  int failure_sub_ = 0;    ///< detector subscription (dtor deregisters)
  int stats_provider_ = 0; ///< obs registry handle (dtor deregisters)
};

}  // namespace cux::c4p
