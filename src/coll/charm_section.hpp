#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "charm/charm.hpp"
#include "sim/future.hpp"

/// \file charm_section.hpp
/// Charm++ array-section collectives: a CharmSection groups one mailbox
/// chare per member PE and exposes each member as a coll::SectionRank — an
/// adapter satisfying the MPI-ish rank surface the coll:: templates expect
/// (rank/size/isend/recv/...), so the same pipelined ring and tree
/// algorithms run unchanged over Charm++ entry methods.
///
/// Mechanics: SectionRank::isend invokes the receiver mailbox's `seg` entry
/// with a ck::Buffer (GPU payloads ride LrtsSendDevice exactly like any
/// other nocopydevice parameter) plus the sender's section rank and tag as
/// host arguments. The mailbox performs (src, tag) matching:
///
///  * recv posted first — the post entry points the buffer straight at the
///    user destination: a zero-copy device receive.
///  * message arrives first — post entries must set destinations
///    synchronously, so the mailbox stages into a pool-allocated device
///    buffer and the late-posted recv pays a modelled device-to-device copy:
///    the same posted/unexpected asymmetry the UCX layer exhibits, surfaced
///    at the Charm++ level.

namespace cux::coll {

class CharmSection;

/// Per-member-PE endpoint chare of a CharmSection.
class SectionMailbox : public ck::Chare {
 public:
  /// Entry method: one collective segment. Runs once the payload landed.
  void seg(ck::Buffer b, std::int32_t src, std::uint64_t tag);
  /// Post entry: chooses the landing buffer at metadata arrival.
  void segPost(std::span<ck::Buffer> bufs, ck::Unpacker& u);

 private:
  friend class CharmSection;
  friend class SectionRank;

  struct PostedRecv {
    void* buf = nullptr;
    std::uint64_t capacity = 0;
    sim::Promise<void> done;
  };
  struct Staged {
    hw::MemRef stage;  ///< pool allocation, classified by the pool
    std::uint64_t bytes = 0;
  };
  /// Landing decision taken by the post entry, consumed by the regular
  /// entry for the same (src, tag) in FIFO order.
  struct Arrival {
    bool staged = false;
    hw::MemRef stage;
    PostedRecv pr;  ///< valid when !staged
  };

  void completeStaged(Staged s, PostedRecv pr);

  CharmSection* owner_ = nullptr;
  std::unordered_map<std::uint64_t, std::deque<PostedRecv>> posted_;
  std::unordered_map<std::uint64_t, std::deque<Staged>> unexpected_;
  std::unordered_map<std::uint64_t, std::deque<Arrival>> inflight_;
};

/// One member's view of the section; satisfies the coll:: rank surface.
class SectionRank {
 public:
  SectionRank() = default;
  SectionRank(CharmSection& sec, int rank) : sec_(&sec), rank_(rank) {}

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] int pe() const;
  [[nodiscard]] hw::System& system() const;

  sim::Future<void> isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  sim::Future<void> irecv(void* buf, std::uint64_t bytes, int src, int tag);
  /// ULFM-ish abort surface consumed by the coll:: templates: true once the
  /// failure detector declared any section member dead. Subsequent
  /// isend/irecv complete immediately without touching the wire, so
  /// collectives over the section drain structurally instead of hanging,
  /// and the caller recovers by restarting from a checkpoint.
  [[nodiscard]] bool aborted() const;
  [[nodiscard]] sim::Future<void> send(const void* buf, std::uint64_t bytes, int dst, int tag) {
    return isend(buf, bytes, dst, tag);
  }
  [[nodiscard]] sim::Future<void> recv(void* buf, std::uint64_t bytes, int src, int tag) {
    return irecv(buf, bytes, src, tag);
  }

 private:
  CharmSection* sec_ = nullptr;
  int rank_ = -1;
};

/// A section over an explicit PE list (need not be contiguous or start at
/// PE 0 — subsets model multi-job nodes).
class CharmSection {
 public:
  CharmSection(ck::Runtime& rt, std::vector<int> pes);
  ~CharmSection();
  CharmSection(const CharmSection&) = delete;
  CharmSection& operator=(const CharmSection&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(pes_.size()); }
  [[nodiscard]] int peOf(int rank) const { return pes_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] SectionRank rank(int r) { return SectionRank(*this, r); }
  [[nodiscard]] ck::Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] hw::System& system() noexcept { return rt_.system(); }

  // --- failure model --------------------------------------------------------

  /// True once the failure detector declared any member PE dead. From that
  /// point every member's isend/irecv completes immediately (no wire
  /// traffic) and posted receives have been failed — collectives drain.
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

 private:
  friend class SectionMailbox;
  friend class SectionRank;

  /// Detector announcement: when `pe` hosts a member, flips aborted_, fails
  /// every still-unmatched posted receive and frees unexpected staged chunks.
  void onPeFailed(int pe);

  ck::Runtime& rt_;
  std::vector<int> pes_;
  std::vector<ck::Proxy<SectionMailbox>> boxes_;
  bool aborted_ = false;
  int failure_sub_ = 0;  ///< detector subscription (dtor deregisters)
};

}  // namespace cux::coll
