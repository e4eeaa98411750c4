#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "charm/charm.hpp"
#include "sim/matcher.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"
#include "ucx/worker.hpp"

/// \file ampi.hpp
/// Adaptive MPI: an MPI library implemented on the Charm++ runtime system
/// (paper Section II-D / III-C). Each rank is a chare; rank control flow is
/// a C++20 coroutine standing in for AMPI's migratable user-level threads.
///
/// GPU-aware path (paper Fig. 7): an MPI send whose buffer classifies as
/// device memory creates a CkDeviceBuffer, sends the payload directly with
/// LrtsSendDevice (which generates the machine-layer tag), and ships an
/// AMPI metadata message — src rank, MPI tag, size, device tag — through the
/// Charm++ runtime. The receiver matches the metadata against its posted
/// receive queue (or stores it in the unexpected queue) and only then posts
/// LrtsRecvDevice; completion callbacks notify both ranks.
///
/// Matching runs on ucx::Worker's engine, sim::TagMatcher, with AMPI's
/// (src, tag) key and kAnySource/kAnyTag predicate (detail::accepts); a
/// sim::Resequencer first restores each sender's order.
///
/// The surface is MPI_COMM_WORLD point-to-point (plus sendrecv): the one
/// every workload here runs. Collectives come from the rank-generic
/// templates in src/coll; failure recovery is checkpoint/restart, so a PE
/// failure only revokes the world (aborted()) and fails what is pending.
///
/// Host buffers are packed into a regular message when small and use the
/// Zero Copy rendezvous when large (the 128 KiB switch reproduces the AMPI-H
/// bandwidth dip in Fig. 12b). A per-rank software cache accelerates the
/// device-pointer classification, as the paper's per-PE cache does: each
/// buffer is classified at the MPI call and the result travels down the
/// stack as a hw::MemRef.

namespace cux::ampi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
};

namespace detail {
// AMPI's (src, tag) matching scheme, shared by World's matcher and its
// property test. matchKey folds the pair rather than packing it: accepts()
// re-checks the pair, so a fold collision costs a chain step, never a wrong
// match.
[[nodiscard]] constexpr bool concrete(int src, int tag) noexcept {
  return src != kAnySource && tag != kAnyTag;
}
[[nodiscard]] constexpr std::uint64_t matchKey(int src, int tag) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 24) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}
/// True when a receive for (src, tag), src possibly kAnySource and tag
/// possibly kAnyTag, accepts a message carrying (msg_src, msg_tag).
[[nodiscard]] constexpr bool accepts(int src, int tag, int msg_src, int msg_tag) noexcept {
  return (src == kAnySource || src == msg_src) && (tag == kAnyTag || tag == msg_tag);
}
}  // namespace detail

class World;

/// Handle through which a rank's main coroutine issues MPI operations.
class Rank {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] int pe() const;
  [[nodiscard]] hw::System& system() const;
  /// MPI_Wtime in virtual microseconds.
  [[nodiscard]] double timeUs() const;

  /// `dst` must be in [0, size()) and `src` in [0, size()) or kAnySource;
  /// anything else throws std::invalid_argument (a receive from a rank that
  /// does not exist could never match).
  ///
  /// Every operation returns its completion future (the MPI_Request): await
  /// one with `co_await f`, several with `co_await sim::allOf(fs)`.
  sim::Future<void> isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  sim::Future<void> irecv(void* buf, std::uint64_t bytes, int src, int tag) {
    return recv(buf, bytes, src, tag);
  }

  /// Blocking calls: awaitable futures (the coroutine suspends, the chare's
  /// PE keeps scheduling other work — AMPI's virtualisation semantics).
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return isend(buf, bytes, dst, tag);
  }
  /// `st`, when given, is written at completion, before the future is set.
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag,
                                       Status* st = nullptr);

  /// MPI_Sendrecv: simultaneous send and receive (deadlock-free pairwise
  /// exchange).
  [[nodiscard]] sim::Future<void> sendrecv(const void* sbuf, std::uint64_t sbytes, int dst,
                                           int stag, void* rbuf, std::uint64_t rbytes, int src,
                                           int rtag);

  /// True once the failure detector has revoked MPI_COMM_WORLD because a
  /// rank's PE died. Pending and later operations then complete at once
  /// instead of hanging; a collective drains and the caller recovers by
  /// restarting from a checkpoint.
  [[nodiscard]] bool aborted() const;

 private:
  friend class World;
  World* world_ = nullptr;
  int rank_ = -1;
};

/// MPI_COMM_WORLD: owns the rank chares and the matching state.
class World {
 public:
  /// `nranks` defaults to one rank per PE (the paper's no-virtualisation
  /// configuration); more ranks than PEs exercises AMPI virtualisation.
  explicit World(ck::Runtime& rt, int nranks = -1);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] int size() const noexcept { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] Rank& rank(int r) { return ranks_.at(static_cast<std::size_t>(r))->self; }
  [[nodiscard]] ck::Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] int peOf(int rank) const noexcept { return rank % rt_.numPes(); }

  /// Launches `main` for every rank at the current virtual time.
  void run(std::function<sim::FutureTask(Rank&)> main);

  /// Fulfilled when every rank's main has returned. Valid after run().
  [[nodiscard]] sim::Future<void> done() const { return done_.future(); }

  // --- device-pointer cache statistics (paper Sec. III-C1) ---------------
  [[nodiscard]] std::uint64_t cacheHits() const;
  [[nodiscard]] std::uint64_t cacheMisses() const;

  /// Aggregated matching-engine occupancy across every rank's matcher
  /// (`gpucomm_sweep --metric match`).
  [[nodiscard]] sim::MatchStats matchStats() const;

  // --- failure state (fed by the UCX failure detector) ---------------------
  /// Operations force-failed (or refused) because the world was revoked.
  [[nodiscard]] std::uint64_t abortedOps() const noexcept { return aborted_ops_; }
  /// Envelopes discarded because the world was revoked before a matching
  /// receive existed.
  [[nodiscard]] std::uint64_t orphanedEnvelopes() const noexcept { return orphaned_envelopes_; }

 private:
  friend class Rank;
  struct RankChare;

  struct Envelope {
    int src_rank = -1;
    int tag = 0;
    std::uint64_t bytes = 0;
    std::uint64_t dtag = 0;  ///< machine-layer tag (rendezvous modes)
    /// Lifecycle span of an inlined (eager) message; 0 when observability is
    /// off. Rendezvous envelopes correlate through `dtag` instead, so this
    /// stays 0 for them. Carried unconditionally so message contents do not
    /// depend on observability state.
    std::uint64_t span = 0;
    bool inlined = false;
    std::vector<std::byte> data;  ///< payload for inlined envelopes
    bool data_valid = true;

    [[nodiscard]] std::uint64_t matchKey() const noexcept {
      return detail::matchKey(src_rank, tag);
    }
  };
  /// A posted receive.
  struct PostedRecv {
    /// Completes the receive's future. Empty in the matcher's recycled
    /// slots: a Promise always owns a state, so `PostedRecv{}` must not
    /// build one.
    std::optional<sim::Promise<void>> done;
    Status* status = nullptr;  ///< recv()'s out-parameter, or null
    hw::MemRef buf;  ///< classified at irecv
    std::uint64_t capacity = 0;
    int src = kAnySource;
    int tag = kAnyTag;

    // sim::TagMatcher key and predicate.
    [[nodiscard]] bool exact() const noexcept { return detail::concrete(src, tag); }
    [[nodiscard]] std::uint64_t matchKey() const noexcept { return detail::matchKey(src, tag); }
    [[nodiscard]] bool matches(const Envelope& e) const noexcept {
      return detail::accepts(src, tag, e.src_rank, e.tag);
    }
  };
  struct RankState {
    Rank self;
    int pe = -1;
    ck::Proxy<RankChare> chare;
    /// The same matcher ucx::Worker runs, keyed by (src, tag).
    sim::TagMatcher<PostedRecv, Envelope> matcher;
    /// Send and expected-receive sequence state, kept only for the peers
    /// this rank has exchanged messages with (a Jacobi rank talks to at most
    /// six of the world's ranks).
    sim::PeerSeq seq_out;              ///< next seq per destination rank
    sim::Resequencer<Envelope> reseq;  ///< per-source FIFO, by source rank
    hw::PointerCache ptr_cache;  ///< the paper's GPU-pointer cache, per rank
  };

  sim::Future<void> isendImpl(int src_rank, const void* buf, std::uint64_t bytes, int dst,
                              int tag);
  sim::Future<void> irecvImpl(int dst_rank, void* buf, std::uint64_t bytes, int src, int tag,
                              Status* st);
  /// `seq` is the envelope's place in its sender's stream to `dst_rank`.
  void enqueueEnvelope(int dst_rank, std::uint32_t seq, Envelope env);
  void processEnvelope(int dst_rank, Envelope env);
  void deliver(int dst_rank, PostedRecv& p, Envelope& env);
  /// Detector callback: when a rank sits on the dead PE, revokes the world,
  /// fails every pending receive and orphans every queued envelope.
  void onPeFailed(int pe);
  /// Discards a message that can never be received (revoked world):
  /// recycles inline payloads, drains parked rendezvous transfers.
  void orphanEnvelope(int pe, Envelope& env, sim::TimePoint now);

  ck::Runtime& rt_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  std::function<sim::FutureTask(Rank&)> main_;  // must outlive rank coroutines
  sim::Promise<void> done_;
  // --- failure state ------------------------------------------------------
  bool revoked_ = false;
  std::uint64_t aborted_ops_ = 0;
  std::uint64_t orphaned_envelopes_ = 0;
  int stats_provider_ = 0;
  int failure_sub_ = 0;  ///< detector subscription (dtor deregisters)
};

}  // namespace cux::ampi
