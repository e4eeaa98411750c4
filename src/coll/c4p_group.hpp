#pragma once

#include <cstdint>
#include <vector>

#include "charm4py/charm4py.hpp"
#include "sim/future.hpp"

/// \file c4p_group.hpp
/// Charm4py collectives: a C4pGroup wires a full mesh of Channels between
/// the member PEs and exposes each member as a coll::C4pRank, so the
/// pipelined ring/tree algorithms run over Charm4py's Channel API — every
/// segment send/recv paying the interpreter-crossing overhead, exactly the
/// per-message Python tax the paper measures.
///
/// Channels carry no tags: matching is FIFO per channel direction. That is
/// sufficient for the coll:: algorithms because every (sender, receiver)
/// pair issues its segments in the same deterministic program order on both
/// sides (and the c4p layer resequences faulted retransmits by sequence
/// number). Collectives that must run *concurrently* on the same peer set —
/// e.g. the training workload's overlapping gradient buckets — use distinct
/// `lanes`: one independent channel mesh per lane.

namespace cux::coll {

class C4pGroup;

/// One member's view of the group; satisfies the coll:: rank surface.
/// Tags are accepted (the templates pass them) and ignored.
class C4pRank {
 public:
  C4pRank() = default;
  C4pRank(C4pGroup& grp, int rank, int lane) : grp_(&grp), rank_(rank), lane_(lane) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] int pe() const;
  [[nodiscard]] hw::System& system() const;

  sim::Future<void> isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  sim::Future<void> irecv(void* buf, std::uint64_t bytes, int src, int tag);
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return isend(buf, bytes, dst, tag);
  }
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag) {
    return irecv(buf, bytes, src, tag);
  }

  /// ULFM-ish abort surface consumed by the coll:: templates: true once the
  /// failure detector declared any group member dead. Channels touching the
  /// dead PE drain at the c4p layer (send/recv complete immediately);
  /// live-live channels keep working, so in-flight rings drain end to end.
  /// The caller recovers by restarting from a checkpoint.
  [[nodiscard]] bool aborted() const;

 private:
  C4pGroup* grp_ = nullptr;
  int rank_ = -1;
  int lane_ = 0;
};

/// A collective group over an explicit PE list with `lanes` independent
/// channel meshes (lane l, pair (i, j)): deterministic construction order,
/// so channel ids — and therefore traces — are reproducible.
class C4pGroup {
 public:
  C4pGroup(c4p::Charm4py& py, std::vector<int> pes, int lanes = 1);
  ~C4pGroup();
  C4pGroup(const C4pGroup&) = delete;
  C4pGroup& operator=(const C4pGroup&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(pes_.size()); }
  [[nodiscard]] int lanes() const noexcept { return lanes_; }
  [[nodiscard]] int peOf(int rank) const { return pes_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] C4pRank rank(int r, int lane = 0) { return C4pRank(*this, r, lane); }
  [[nodiscard]] c4p::Charm4py& charm4py() noexcept { return py_; }

  // --- failure model --------------------------------------------------------

  /// True once the failure detector declared any member PE dead.
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

 private:
  friend class C4pRank;

  [[nodiscard]] c4p::ChannelEnd* end(int lane, int me, int peer) {
    return ends_[static_cast<std::size_t>(lane)]
                [static_cast<std::size_t>(me) * pes_.size() + static_cast<std::size_t>(peer)];
  }
  void onPeFailed(int pe);

  c4p::Charm4py& py_;
  std::vector<int> pes_;
  int lanes_ = 1;
  std::vector<std::vector<c4p::ChannelEnd*>> ends_;  // [lane][me*n + peer]
  bool aborted_ = false;
  int failure_sub_ = 0;  ///< detector subscription (dtor deregisters)
};

}  // namespace cux::coll
