#include "coll/c4p_group.hpp"

#include <algorithm>

namespace cux::coll {

int C4pRank::size() const { return grp_->size(); }
int C4pRank::pe() const { return grp_->peOf(rank_); }
hw::System& C4pRank::system() const { return grp_->py_.system(); }
bool C4pRank::aborted() const { return grp_->aborted_; }

sim::Future<void> C4pRank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  (void)tag;  // channels match by FIFO order, not tags
  return grp_->end(lane_, rank_, dst)->send(buf, bytes);
}

sim::Future<void> C4pRank::irecv(void* buf, std::uint64_t bytes, int src, int tag) {
  (void)tag;
  return grp_->end(lane_, rank_, src)->recv(buf, bytes);
}

C4pGroup::C4pGroup(c4p::Charm4py& py, std::vector<int> pes, int lanes)
    : py_(py), pes_(std::move(pes)), lanes_(lanes < 1 ? 1 : lanes) {
  const std::size_t n = pes_.size();
  ends_.resize(static_cast<std::size_t>(lanes_));
  for (auto& lane : ends_) lane.assign(n * n, nullptr);
  for (int l = 0; l < lanes_; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        c4p::Channel ch = py_.makeChannel(pes_[i], pes_[j]);
        ends_[static_cast<std::size_t>(l)][i * n + j] = ch.a;
        ends_[static_cast<std::size_t>(l)][j * n + i] = ch.b;
      }
    }
  }
  failure_sub_ = py_.runtime().cmi().ucx().onPeerFailure(
      [this](int pe, sim::TimePoint) { onPeFailed(pe); });
}

C4pGroup::~C4pGroup() { py_.runtime().cmi().ucx().removePeerFailureSub(failure_sub_); }

void C4pGroup::onPeFailed(int pe) {
  // Channel-level drain (failing waiting receives, orphaning envelopes)
  // already happened in the Charm4py subscriber; here the group only notes
  // that a member died, so the coll:: templates see the abort.
  if (std::find(pes_.begin(), pes_.end(), pe) != pes_.end()) aborted_ = true;
}

}  // namespace cux::coll
