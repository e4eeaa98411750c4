#include "coll/charm_section.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "hw/cuda.hpp"
#include "hw/system.hpp"
#include "sim/matcher.hpp"

namespace cux::coll {

namespace {

[[nodiscard]] std::uint64_t matchKey(int src, std::uint64_t tag) {
  return (tag << 16) | static_cast<std::uint64_t>(static_cast<std::uint32_t>(src) & 0xffffu);
}

/// Modelled cost of draining a staged segment into the late-posted user
/// buffer: a device-to-device copy, both directions through HBM.
[[nodiscard]] sim::Duration stagedCopyCost(hw::System& sys, std::uint64_t bytes) {
  return sim::transferTime(2 * bytes, sys.config.gpu_mem_bandwidth_gbps);
}

}  // namespace

// --- SectionMailbox --------------------------------------------------------

void SectionMailbox::segPost(std::span<ck::Buffer> bufs, ck::Unpacker& u) {
  const auto src = u.unpack<std::int32_t>();
  const auto tag = u.unpack<std::uint64_t>();
  const std::uint64_t k = matchKey(src, tag);
  ck::Buffer& b = bufs[0];

  auto& posted = posted_[k];
  Arrival arr;
  if (!posted.empty()) {
    // A matching receive is already waiting: land directly in its buffer.
    sim::checkFits("section", b.size(), posted.front().capacity);
    arr.staged = false;
    arr.pr = std::move(posted.front());
    posted.pop_front();
    b.setDestination(arr.pr.buf, arr.pr.capacity);
  } else {
    // Unexpected arrival: post entries must choose a destination now, so
    // stage into pool-backed device memory on this PE.
    hw::System& sys = owner_->system();
    arr.staged = true;
    arr.stage = sys.pool.alloc(myPe(), b.size(), sys.config.backed_device_memory);
    b.setDestination(arr.stage.ptr, b.size());
  }
  inflight_[k].push_back(std::move(arr));
}

void SectionMailbox::seg(ck::Buffer b, std::int32_t src, std::uint64_t tag) {
  const std::uint64_t k = matchKey(src, tag);
  auto& inflight = inflight_[k];
  assert(!inflight.empty() && "seg entry ran without a post-entry decision");
  Arrival arr = std::move(inflight.front());
  inflight.pop_front();

  if (!arr.staged) {
    // Payload already landed in the user buffer (zero-copy receive).
    arr.pr.done.set();
    return;
  }
  if (owner_->aborted_) {
    // Section aborted while this staged segment was in flight: no receive
    // will ever claim it (irecv refuses post-abort), so return the stage to
    // the pool instead of parking it in unexpected_ forever.
    hw::System& sys = owner_->system();
    sys.pool.free(arr.stage.ptr);
    sys.obs.registry.addCounter("section.orphaned_chunks", 1);
    return;
  }
  auto& posted = posted_[k];
  if (!posted.empty()) {
    // The receive was posted between metadata arrival and payload landing.
    PostedRecv pr = std::move(posted.front());
    posted.pop_front();
    completeStaged(Staged{arr.stage, b.size()}, std::move(pr));
    return;
  }
  unexpected_[k].push_back(Staged{arr.stage, b.size()});
}

void SectionMailbox::completeStaged(Staged s, PostedRecv pr) {
  sim::checkFits("section", s.bytes, pr.capacity);
  hw::System& sys = owner_->system();
  auto st = std::make_shared<Staged>(s);
  auto done = pr.done;
  // The late-posted receive's buffer is first needed here: classify it once.
  const hw::MemRef dst = sys.memory.classify(pr.buf);
  owner_->rt_.cmi().pe(myPe()).exec(stagedCopyCost(sys, s.bytes), [&sys, st, dst, done] {
    cuda::moveBytes(dst, st->stage, st->bytes);
    sys.pool.free(st->stage.ptr);
    done.set();
  });
}

// --- SectionRank -----------------------------------------------------------

int SectionRank::size() const { return sec_->size(); }
int SectionRank::pe() const { return sec_->peOf(rank_); }
hw::System& SectionRank::system() const { return sec_->rt_.system(); }
bool SectionRank::aborted() const { return sec_->aborted_; }

sim::Future<void> SectionRank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  sim::Promise<void> sent;
  if (sec_->aborted_) {
    // Drain semantics: the section is aborted, so refuse the send (a dead
    // destination's onSent would never fire) and complete immediately — the
    // caller observes the failure through aborted(), not through a hang.
    sent.set();
    return sent.future();
  }
  ck::Buffer b(buf, bytes);
  b.onSent([sent] { sent.set(); });
  sec_->boxes_[static_cast<std::size_t>(dst)].sendFrom<&SectionMailbox::seg>(
      pe(), std::move(b), static_cast<std::int32_t>(rank_),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  return sent.future();
}

sim::Future<void> SectionRank::irecv(void* buf, std::uint64_t bytes, int src, int tag) {
  auto* box = sec_->boxes_[static_cast<std::size_t>(rank_)].local();
  const std::uint64_t k =
      matchKey(src, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  sim::Promise<void> done;
  if (sec_->aborted_) {
    // Drain semantics: no data is coming (sends are refused post-abort and
    // unexpected chunks were orphaned by the sweep) — complete immediately,
    // buffer contents undefined, failure observable through aborted().
    done.set();
    return done.future();
  }

  auto& unexpected = box->unexpected_[k];
  if (!unexpected.empty()) {
    SectionMailbox::Staged s = unexpected.front();
    unexpected.pop_front();
    box->completeStaged(s, SectionMailbox::PostedRecv{buf, bytes, done});
  } else {
    box->posted_[k].push_back(SectionMailbox::PostedRecv{buf, bytes, done});
  }
  return done.future();
}

// --- CharmSection ----------------------------------------------------------

CharmSection::CharmSection(ck::Runtime& rt, std::vector<int> pes)
    : rt_(rt), pes_(std::move(pes)) {
  ck::setPostEntry<&SectionMailbox::seg, &SectionMailbox::segPost>();
  boxes_.reserve(pes_.size());
  for (const int pe : pes_) {
    auto proxy = rt_.create<SectionMailbox>(pe);
    proxy.local()->owner_ = this;
    boxes_.push_back(proxy);
  }
  failure_sub_ =
      rt_.cmi().ucx().onPeerFailure([this](int pe, sim::TimePoint) { onPeFailed(pe); });
}

CharmSection::~CharmSection() { rt_.cmi().ucx().removePeerFailureSub(failure_sub_); }

void CharmSection::onPeFailed(int pe) {
  if (aborted_ || std::find(pes_.begin(), pes_.end(), pe) == pes_.end()) return;
  aborted_ = true;
  hw::System& sys = rt_.system();
  std::uint64_t failed_recvs = 0;
  std::uint64_t orphaned = 0;
  for (auto& proxy : boxes_) {
    SectionMailbox* box = proxy.local();
    // Still-unmatched posted receives can never match now: post-abort no
    // member sends (isend refuses), and anything the dead PE had in flight
    // blackholed. Matched receives are NOT here — segPost moved them into
    // inflight_, and those drain through the entry method (live sender) or
    // the machine layer's peer-failed receive path (dead sender).
    for (auto& [key, posted] : box->posted_) {
      for (SectionMailbox::PostedRecv& pr : posted) {
        pr.done.set();
        ++failed_recvs;
      }
      posted.clear();
    }
    // Unexpected staged chunks will never be claimed by an irecv (refused
    // post-abort): return their pool memory.
    for (auto& [key, staged] : box->unexpected_) {
      for (SectionMailbox::Staged& s : staged) {
        sys.pool.free(s.stage.ptr);
        ++orphaned;
      }
      staged.clear();
    }
  }
  if (failed_recvs != 0) sys.obs.registry.addCounter("section.aborted_recvs", failed_recvs);
  if (orphaned != 0) sys.obs.registry.addCounter("section.orphaned_chunks", orphaned);
}

}  // namespace cux::coll
