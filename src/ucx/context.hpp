#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hw/system.hpp"
#include "sim/future.hpp"
#include "ucx/config.hpp"
#include "ucx/request.hpp"
#include "ucx/worker.hpp"

/// \file context.hpp
/// The mini-UCX application context (ucp_context): owns one Worker per PE
/// and implements the send-side protocol selection.
///
/// Protocol matrix (mirrors UCX on Summit as described in Sec. IV-B1):
///
/// | memory | size                     | protocol                            |
/// |--------|--------------------------|-------------------------------------|
/// | host   | <= host_eager_threshold  | eager (copy-out, header+payload)    |
/// | host   | larger                   | rendezvous zero-copy over host path |
/// | device | <= device_eager_threshold| eager via GDRCopy (or cudaMemcpy    |
/// |        |                          | staging when GDRCopy not detected)  |
/// | device | larger, intra-node       | rendezvous via CUDA-IPC direct path |
/// | device | larger, inter-node       | rendezvous, pipelined host staging  |

namespace cux::ucx {

class Context {
 public:
  Context(hw::System& sys, const UcxConfig& cfg);
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] hw::System& system() noexcept { return sys_; }
  [[nodiscard]] const UcxConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int numWorkers() const noexcept { return static_cast<int>(workers_.size()); }

  /// Worker bound to PE `pe` (one per PE, created eagerly at construction).
  [[nodiscard]] Worker& worker(int pe) { return *workers_.at(static_cast<std::size_t>(pe)); }

  /// Non-blocking tagged send of `len` bytes at `buf` (host or device
  /// memory; its carried classification decides the protocol, as the
  /// memory type does in real UCX) from `src_pe` to `dst_pe`. `buf` must
  /// remain valid until `cb` fires.
  RequestPtr tagSend(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                     CompletionFn cb);

  /// Active-message-style send whose payload is an owned byte vector
  /// (Converse host messages). Timing matches tagSend on host memory of the
  /// same size; the payload vector is handed to the receiving handler. The
  /// wire length is `payload.size() + phantom_bytes`: the phantom bytes
  /// stand for a source in unbacked (simulation-only) memory, so they are
  /// charged on every link, counted in bytesSent() and reported as
  /// Delivery::len, but never materialised on the host.
  RequestPtr amSend(int src_pe, int dst_pe, Tag tag, std::vector<std::byte> payload,
                    std::uint64_t phantom_bytes, CompletionFn cb = {});

  /// Like tagSend, but a device-memory source is first staged to the host
  /// (cudaMemcpy D2H through the GPU egress link) and then sent as a host
  /// message under the same tag. This is the degraded route DeviceComm falls
  /// back to when the GPU-aware path exhausts its retries or the link is
  /// down; a pre-posted receive for the tag still matches.
  RequestPtr tagSendHostStaged(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len,
                               Tag tag, CompletionFn cb);

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t sendsStarted() const noexcept { return sends_started_; }
  [[nodiscard]] std::uint64_t bytesSent() const noexcept { return bytes_sent_; }
  /// Retransmissions issued by the reliability layer (0 unless the fault
  /// injector is enabled).
  [[nodiscard]] std::uint64_t retransmits() const noexcept { return retransmits_; }
  /// Sends that exhausted max_retries and completed with ReqState::Error.
  [[nodiscard]] std::uint64_t sendErrors() const noexcept { return send_errors_; }
  /// Multi-path scheduler accounting (all zero unless multipath is enabled).
  [[nodiscard]] std::uint64_t multipathTransfers() const noexcept { return mp_transfers_; }
  [[nodiscard]] std::uint64_t multipathSplits() const noexcept { return mp_splits_; }
  [[nodiscard]] std::uint64_t multipathChunks() const noexcept { return mp_chunks_; }
  [[nodiscard]] std::uint64_t multipathReroutes() const noexcept { return mp_reroutes_; }
  /// Duplicate deliveries suppressed across all workers (retransmit raced a
  /// jitter-delayed original).
  [[nodiscard]] std::uint64_t duplicatesSuppressed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w->duplicatesSuppressed();
    return n;
  }

  // --- failure detector (active only with scheduled PE failures) -----------

  /// Subscribes to failure-detector announcements: `fn(pe, when)` runs once
  /// per scheduled sim::PeFailure, at failure time + failure_detect_us, from
  /// an engine event, after sweepDeadPe has ended every UCX request touching
  /// `pe`. Subscribers are the programming models that give a failure their
  /// own meaning (a revoked AMPI world, dead Charm4py channels, an aborted
  /// collective); they translate terminal states and never end UCX requests.
  /// Subscribe before engine.run(); announcements fired before subscription
  /// are not replayed. With no scheduled failures the detector schedules
  /// nothing, keeping trace hashes bit-identical.
  /// Returns a handle for removePeerFailureSub — subscribers that can die
  /// before the Context (sections, channel groups) MUST deregister in their
  /// destructor or a later announcement runs into freed memory.
  int onPeerFailure(std::function<void(int pe, sim::TimePoint when)> fn) {
    peer_failure_subs_.emplace_back(next_failure_sub_, std::move(fn));
    return next_failure_sub_++;
  }

  void removePeerFailureSub(int handle) {
    for (auto it = peer_failure_subs_.begin(); it != peer_failure_subs_.end(); ++it) {
      if (it->first == handle) {
        peer_failure_subs_.erase(it);
        return;
      }
    }
  }

  /// Detector's view: true once `pe`'s scheduled failure has passed the
  /// detection horizon at time `t` (i.e. t >= failure time +
  /// failure_detect_us). Between the failure and the horizon the PE is dead
  /// but not yet *known* dead — traffic blackholes, requests keep retrying.
  [[nodiscard]] bool peerKnownDead(sim::TimePoint t, int pe) const noexcept {
    if (!sys_.fault.enabled()) return false;
    const sim::Duration horizon = sim::usec(cfg_.failure_detect_us);
    for (const sim::PeFailure& f : sys_.fault.config().pe_failures) {
      if (f.pe == pe && t >= f.at + horizon) return true;
    }
    return false;
  }

  /// PE failures announced so far (one per scheduled failure once its
  /// detection horizon passes).
  [[nodiscard]] std::uint64_t peFailuresDetected() const noexcept {
    return pe_failures_detected_;
  }
  /// Requests completed with ReqState::PeerFailed, senders and receivers
  /// alike; each counts once.
  [[nodiscard]] std::uint64_t peerFailedRequests() const noexcept { return peer_failed_reqs_; }

  // --- allocation-light message path --------------------------------------

  /// Pooled Request allocation: every send/recv/AM request is one block
  /// (control block and Request fused) from the per-thread slab pool that
  /// futures use (sim/future.hpp), so the steady state performs no heap
  /// allocation per request, and a later machine on the same thread reuses
  /// the blocks of an earlier one. A RequestPtr may outlive this Context.
  /// A miss is a request whose block was carved from fresh slab space.
  [[nodiscard]] RequestPtr makeRequest() {
    const std::uint64_t carved = sim::detail::tCarvedBlocks;
    RequestPtr r = std::allocate_shared<Request>(sim::detail::PoolAlloc<Request>{});
    if (sim::detail::tCarvedBlocks == carved) {
      ++req_hits_;
    } else {
      ++req_misses_;
    }
    return r;
  }
  [[nodiscard]] std::uint64_t requestPoolHits() const noexcept { return req_hits_; }
  [[nodiscard]] std::uint64_t requestPoolMisses() const noexcept { return req_misses_; }

  /// Takes a recycled eager-payload buffer (resized to `len`) or allocates a
  /// fresh one on a pool miss. Buffers return through recycleBuffer() once
  /// the receive-side memcpy has consumed them.
  [[nodiscard]] std::vector<std::byte> takeBuffer(std::uint64_t len);
  /// Returns an eager-payload buffer to the bounded pool (dropped if the
  /// pool is full or the buffer grew past the retention cap).
  void recycleBuffer(std::vector<std::byte>&& buf);
  [[nodiscard]] std::uint64_t bufferPoolHits() const noexcept { return buf_hits_; }
  [[nodiscard]] std::uint64_t bufferPoolMisses() const noexcept { return buf_misses_; }

  /// Aggregated matching-engine statistics across all workers
  /// (`gpucomm_sweep --metric match`).
  [[nodiscard]] sim::MatchStats matchStats() const {
    sim::MatchStats total;
    for (const auto& w : workers_) total.merge(w->matchStats());
    return total;
  }

 private:
  friend class Worker;

  /// Sender-side staging cost for a small device buffer (GDRCopy or
  /// cudaMemcpy fallback); also used on the receive side for un-staging.
  [[nodiscard]] sim::TimePoint stageDeviceEager(sim::TimePoint t, int pe, std::uint64_t len,
                                                bool egress);

  /// A pooled send request carrying its completion, counted as started.
  [[nodiscard]] RequestPtr makeSendRequest(int dst_pe, std::uint64_t len, Tag tag,
                                           CompletionFn cb);

  /// Protocol selection body shared by tagSend and the host-staged fallback
  /// (which re-enters it with a host-space ref after the D2H copy).
  void startSend(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                 RequestPtr req);

  void sendEager(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                 RequestPtr req);
  void sendRndv(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                RequestPtr req);

  /// Result of the rendezvous data movement. `end` is Done when the data
  /// moved; otherwise it is the terminal state of the leg (CTS or data) that
  /// failed, as faultedLeg decided it. The sender has then been scheduled to
  /// end with it, and the receiver must end with it too instead of waiting
  /// forever.
  struct RndvResult {
    sim::TimePoint data_arrival = 0;
    ReqState end = ReqState::Done;
    [[nodiscard]] bool ok() const noexcept { return end == ReqState::Done; }
  };

  /// Executes the rendezvous data movement once the receiver has matched.
  /// Called by Worker::startRndvTransfer and deliverToHandler; `dst` is the
  /// posted buffer's carried classification. Returns the data arrival time
  /// and schedules sender-side completion (Done via ATS, or Error).
  RndvResult rndvTransfer(const Worker::Incoming& msg, int dst_pe, const hw::MemRef& dst);

  /// Multi-path data leg of a device->device rendezvous (replaces the
  /// single-route leg when UcxConfig::multipath is enabled): enumerates the
  /// machine's candidate routes, splits the payload into chunks, and commits
  /// each chunk to the route with the least projected completion time. The
  /// aggregate arrival is the latest chunk arrival. Fault semantics are per
  /// chunk: a dropped chunk re-routes through a surviving path (the route
  /// the lost attempt used is excluded from the retry) before the caller's
  /// host-staged fallback engages via the normal Error completion.
  RndvResult multipathRndvData(const Worker::Incoming& msg, int dst_pe, sim::TimePoint t_match);

  // --- reliability ----------------------------------------------------------

  /// True while the fault injector is enabled. Only ship() reads it: every
  /// other leg runs the faulted code unconditionally, which with the
  /// injector off decides nothing and adds no event. A wire message is the
  /// one real model difference: under faults its sender completes at
  /// delivery and each attempt schedules a retry deadline, and those events
  /// would change the fault-free timeline.
  [[nodiscard]] bool reliable() const noexcept { return sys_.fault.enabled(); }

  /// Attempt k is declared lost (and retransmitted) this long after it was
  /// sent: retry_base_us * 2^k, the classic exponential backoff.
  /// UcxConfig::validate() rejects configurations whose last deadline would
  /// wrap the 64-bit nanosecond clock, and the shift is saturated here as
  /// well so an overflow can never produce a bogus (tiny) deadline.
  [[nodiscard]] sim::Duration retryDelay(int attempt) const noexcept {
    const sim::Duration base = sim::usec(cfg_.retry_base_us);
    if (base == 0) return 0;
    if (attempt >= 63 || base > (~sim::Duration{0} >> attempt)) {
      return sim::Duration{1} << 62;  // saturated: ~146 years of virtual time
    }
    return base << attempt;
  }

  /// In-flight state of one reliable wire message: the Incoming template
  /// cloned for each (re)transmission attempt, plus delivery tracking.
  struct WireState;

  /// Arrival at `dst_pe` of a host-path wire message of class `cls` sent at
  /// `t`: control latency for a rendezvous RTS/CTS/ATS, otherwise `len`
  /// plus the header through the link reservations.
  [[nodiscard]] sim::TimePoint wireArrival(int src_pe, int dst_pe, sim::TimePoint t,
                                           sim::MsgClass cls, std::uint64_t len);

  /// Puts wire message `msg` (eager payload, AM or rendezvous RTS, by
  /// `cls`) on the host path from `src_pe` to `dst_pe` at `t0`. Fault-free,
  /// the arrival is scheduled now and an eager sender completes locally at
  /// t0 (scheduled first, so it wins the tie); under faults the message goes
  /// through reliableTransmit and `req` completes at delivery.
  void ship(Worker::Incoming msg, int src_pe, int dst_pe, sim::TimePoint t0, sim::MsgClass cls,
            RequestPtr req);

  /// Transmits attempt `attempt` of `ws` at the current engine time: consults
  /// the injector, schedules the arrival (unless dropped) and the retry
  /// deadline. Exhausting max_retries surfaces ReqState::Error through the
  /// completion callback — an operation never hangs.
  void reliableTransmit(const std::shared_ptr<WireState>& ws, int attempt);

  /// The failure detector's one sweep, run when `dead_pe` is announced at
  /// `t` and before the subscribers. It ends with PeerFailed every pending
  /// request the dead PE owns and every unmatched request addressed to it:
  ///  * the receives posted at the dead worker, and the senders whose RTS is
  ///    parked there (the RTSs are dropped: no receive will ever be posted);
  ///  * the dead PE's own rendezvous senders whose RTS is parked at a live
  ///    worker. The RTS stays parked: a receive posted later still matches
  ///    it and fails through faultedLeg;
  ///  * the receives posted at live workers that name the dead PE as their
  ///    source (Worker::tagRecv's `src_pe`).
  /// Requests posted after `t` end at Worker::tagRecv by the same rule, and
  /// requests in flight end at their next retry deadline or leg.
  void sweepDeadPe(int dead_pe, sim::TimePoint t);

  /// Ends `req`, posted at `owner_pe` for message `tag` of `len` bytes to or
  /// from `peer_pe` (-1: any), with PeerFailed at `t` unless it has ended
  /// already: counts it once, traces it and marks its span.
  void endPeerFailed(Request& req, sim::TimePoint t, int owner_pe, int peer_pe, std::uint64_t len,
                     Tag tag);

  /// Outcome of faultedLeg: the attempt that went out (or the last one
  /// tried), its injected jitter, and how the leg ends: Done when it got
  /// through, PeerFailed once either PE is known dead, Error after
  /// max_retries losses.
  struct Leg {
    sim::TimePoint start = 0;
    sim::Duration delay = 0;
    ReqState end = ReqState::Done;
    [[nodiscard]] bool ok() const noexcept { return end == ReqState::Done; }
  };

  /// Synchronous retry loop for a leg whose delivery time is computed inline
  /// (rendezvous CTS/ATS and data): each attempt from `t` on is faulted at
  /// its send time and a lost one is retried after the backoff. The terminal
  /// state is decided here, where the failure is found, and carried to both
  /// ends of the transfer. With the injector off it returns {t, 0, Done} at
  /// once.
  Leg faultedLeg(int src_pe, int dst_pe, sim::TimePoint t, sim::MsgClass cls, std::uint64_t len,
                 Tag tag, const char* what);

  /// A control message (CTS/ATS) sent at `t` through faultedLeg: returns
  /// {arrival time, how the leg ends}, the arrival including the control
  /// flight.
  std::pair<sim::TimePoint, ReqState> ctrlLeg(int src_pe, int dst_pe, sim::TimePoint t, Tag tag,
                                              const char* what);

  hw::System& sys_;
  UcxConfig cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int stats_provider_ = 0;  ///< obs registry handle (dtor deregisters)
  std::uint64_t sends_started_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t send_errors_ = 0;
  // Multi-path scheduler accounting (see multipathRndvData).
  std::uint64_t mp_transfers_ = 0;   ///< data legs routed through the scheduler
  std::uint64_t mp_splits_ = 0;      ///< legs whose bytes used more than one route
  std::uint64_t mp_chunks_ = 0;      ///< chunks committed across all legs
  std::uint64_t mp_reroutes_ = 0;    ///< chunk retries steered to a different route
  std::uint64_t mp_bytes_direct_ = 0;
  std::uint64_t mp_bytes_staged_ = 0;
  std::uint64_t mp_bytes_rail_ = 0;
  std::uint64_t pe_failures_detected_ = 0;
  std::uint64_t peer_failed_reqs_ = 0;
  std::vector<std::pair<int, std::function<void(int, sim::TimePoint)>>> peer_failure_subs_;
  int next_failure_sub_ = 1;

  // --- pools (see docs/architecture.md, "tag-matching engine") -------------
  /// Retention caps bound idle memory by BYTES, not entry count: eager
  /// payloads are small (<= host_eager_threshold), so a fixed entry count
  /// would either waste memory on large buffers or thrash on bursts of
  /// thousands of small in-flight messages. A single buffer above
  /// kMaxPooledBufferBytes is never retained.
  static constexpr std::size_t kMaxPooledBytes = 8 * 1024 * 1024;
  static constexpr std::size_t kMaxPooledBufferBytes = 512 * 1024;
  std::vector<std::vector<std::byte>> buf_pool_;
  std::size_t buf_pool_bytes_ = 0;  ///< sum of pooled capacities
  std::uint64_t buf_hits_ = 0;
  std::uint64_t buf_misses_ = 0;
  std::uint64_t req_hits_ = 0;  ///< makeRequest() blocks reused from the pool
  std::uint64_t req_misses_ = 0;
};

}  // namespace cux::ucx
