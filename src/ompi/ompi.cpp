#include "ompi/ompi.hpp"

#include <stdexcept>
#include <string>

namespace cux::ompi {

int Rank::size() const { return world_->size(); }
hw::System& Rank::system() const { return world_->system(); }
double Rank::timeUs() const { return sim::toUs(world_->system().engine.now()); }

World::World(hw::System& sys, ucx::Context& ucx, const model::LayerCosts& costs)
    : sys_(sys), ucx_(ucx), costs_(costs) {
  const int n = sys.config.numPes();
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto st = std::make_unique<RankState>();
    st->self.world_ = this;
    st->self.rank_ = r;
    st->cpu = std::make_unique<cmi::Pe>(sys.engine, r);
    ranks_.push_back(std::move(st));
  }
}

void World::run(std::function<sim::FutureTask(Rank&)> main) {
  // Rank coroutine frames reference the closure object for their whole
  // lifetime; keep the callable alive in the World (see ampi::World::run).
  main_ = std::move(main);
  auto remaining = std::make_shared<int>(size());
  for (auto& st : ranks_) {
    Rank* rank = &st->self;
    sys_.engine.schedule(sys_.engine.now(), [this, rank, remaining] {
      main_(*rank).future().onReady([this, remaining] {
        if (--*remaining == 0) done_.set();
      });
    });
  }
}

sim::Future<void> Rank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  if (dst < 0 || dst >= world_->size()) {
    throw std::invalid_argument("ompi: send to rank " + std::to_string(dst) + " of " +
                                std::to_string(world_->size()));
  }
  auto& st = *world_->ranks_[static_cast<std::size_t>(rank_)];
  st.cpu->charge(sim::usec(world_->costs_.ompi_call_us));
  sim::Promise<void> sent;
  const ucx::Tag utag = detail::encodeTag(rank_, tag);
  const int src_rank = rank_;
  // The buffer enters the stack here: classify it once, through the rank's
  // cache, as UCX's memory-type cache would at ucp_tag_send_nbx.
  const hw::MemRef src = st.ptr_cache.classify(world_->sys_.memory, buf);
  // Inject once the call's CPU time has retired.
  world_->sys_.engine.schedule(
      st.cpu->busyUntil(), [this, src_rank, dst, src, bytes, utag, sent] {
        world_->ucx_.tagSend(src_rank, dst, src, bytes, utag,
                             [sent](ucx::Request&) { sent.set(); });
      });
  return sent.future();
}

sim::Future<void> Rank::recv(void* buf, std::uint64_t bytes, int src, int tag, Status* status) {
  if (src != kAnySource && (src < 0 || src >= world_->size())) {
    throw std::invalid_argument("ompi: receive from rank " + std::to_string(src) + " of " +
                                std::to_string(world_->size()));
  }
  auto& st = *world_->ranks_[static_cast<std::size_t>(rank_)];
  st.cpu->charge(sim::usec(world_->costs_.ompi_call_us));
  sim::Promise<void> done;
  const ucx::Tag utag = detail::encodeTag(src == kAnySource ? 0 : src, tag == kAnyTag ? 0 : tag);
  const ucx::Tag mask = detail::matchMask(src, tag);
  const int me = rank_;
  const hw::MemRef dst = st.ptr_cache.classify(world_->sys_.memory, buf);
  world_->sys_.engine.schedule(st.cpu->busyUntil(), [this, me, dst, bytes, utag, mask, done,
                                                     status] {
    world_->ucx_.worker(me).tagRecv(dst, bytes, utag, mask, [done, status](ucx::Request& r) {
      if (status != nullptr) {
        *status = Status{detail::srcOfTag(r.matched_tag), detail::userTagOf(r.matched_tag),
                         r.bytes};
      }
      done.set();
    });
  });
  return done.future();
}

}  // namespace cux::ompi
