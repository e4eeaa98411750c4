#include "ampi/ampi.hpp"

#include "hw/cuda.hpp"
#include "obs/span.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace cux::ampi {

// ---------------------------------------------------------------------------
// RankChare: the chare backing one AMPI rank. Its entry methods receive AMPI
// metadata/inline messages and feed the matching engine.
// ---------------------------------------------------------------------------

struct World::RankChare : ck::Chare {
  RankChare(World* w, int r) : world(w), rank(r) {}

  // `comm` is the communicator slot of AMPI's wire envelope. Only
  // MPI_COMM_WORLD (id 0) exists, but the slot stays so the metadata message
  // keeps its size on the wire, and with it every modelled time.
  void recvMeta(std::uint32_t src_rank, std::int32_t tag, std::int32_t /*comm*/,
                std::uint64_t bytes, std::uint64_t dtag, std::uint32_t seq) {
    Envelope env;
    env.src_rank = static_cast<int>(src_rank);
    env.tag = tag;
    env.bytes = bytes;
    env.dtag = dtag;
    env.inlined = false;
    world->enqueueEnvelope(rank, seq, std::move(env));
  }

  void recvInline(std::uint32_t src_rank, std::int32_t tag, std::int32_t /*comm*/,
                  std::uint32_t seq, ck::Bytes data, std::uint64_t span) {
    Envelope env;
    env.src_rank = static_cast<int>(src_rank);
    env.tag = tag;
    env.bytes = data.len;
    env.span = span;
    env.inlined = true;
    env.data = std::move(data.data);
    env.data_valid = data.valid;
    world->enqueueEnvelope(rank, seq, std::move(env));
  }

  World* world;
  int rank;
};

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

int Rank::size() const { return world_->size(); }
int Rank::pe() const { return world_->peOf(rank_); }
hw::System& Rank::system() const { return world_->runtime().system(); }
double Rank::timeUs() const { return sim::toUs(system().engine.now()); }

sim::Future<void> Rank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  return world_->isendImpl(rank_, buf, bytes, dst, tag);
}
sim::Future<void> Rank::recv(void* buf, std::uint64_t bytes, int src, int tag, Status* st) {
  return world_->irecvImpl(rank_, buf, bytes, src, tag, st);
}

sim::Future<void> Rank::sendrecv(const void* sbuf, std::uint64_t sbytes, int dst, int stag,
                                 void* rbuf, std::uint64_t rbytes, int src, int rtag) {
  std::vector<sim::Future<void>> both{isend(sbuf, sbytes, dst, stag),
                                      irecv(rbuf, rbytes, src, rtag)};
  return sim::allOf(both);
}

bool Rank::aborted() const { return world_->revoked_; }

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(ck::Runtime& rt, int nranks) : rt_(rt) {
  const int n = nranks < 0 ? rt.numPes() : nranks;
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto st = std::make_unique<RankState>();
    st->self.world_ = this;
    st->self.rank_ = r;
    st->pe = peOf(r);
    st->chare = rt_.create<RankChare>(st->pe, this, r);
    ranks_.push_back(std::move(st));
  }
  // ULFM-style failure propagation: when the UCX failure detector declares a
  // PE with a rank on it dead, the world is revoked and its pending receives
  // are failed — an AMPI operation never hangs on a dead peer.
  failure_sub_ = rt_.cmi().ucx().onPeerFailure([this](int pe, sim::TimePoint) { onPeFailed(pe); });
  stats_provider_ = rt_.system().obs.addStatsProvider([this](obs::Registry& r) {
    r.setGauge("ampi.aborted_ops", aborted_ops_);
    r.setGauge("ampi.orphaned_envelopes", orphaned_envelopes_);
    r.setGauge("ampi.revoked_comms", revoked_ ? 1 : 0);
  });
}

World::~World() {
  rt_.cmi().ucx().removePeerFailureSub(failure_sub_);
  rt_.system().obs.removeStatsProvider(stats_provider_);
}

void World::run(std::function<sim::FutureTask(Rank&)> main) {
  // The coroutine frames created by invoking `main` keep referencing the
  // closure object for their whole lifetime (lambda-coroutine semantics), so
  // the callable must outlive every rank: store it in the World and invoke
  // through the stable member.
  main_ = std::move(main);
  auto remaining = std::make_shared<int>(size());
  for (auto& st : ranks_) {
    Rank* rank = &st->self;
    rt_.startOn(st->pe, [this, rank, remaining] {
      main_(*rank).future().onReady([this, remaining] {
        if (--*remaining == 0) done_.set();
      });
    });
  }
}

void World::onPeFailed(int pe) {
  if (revoked_) return;
  bool hosts_rank = false;
  for (int r = 0; r < size() && !hosts_rank; ++r) hosts_rank = peOf(r) == pe;
  if (!hosts_rank) return;
  revoked_ = true;
  const auto all = [](const auto&) { return true; };
  // Phase 1: harvest. Every pending receive is pulled out of every rank's
  // matching stores, and every already-queued envelope is orphaned. Failing
  // a request resumes its coroutine, which may post new operations — so
  // mutation of the stores is kept strictly separate from the completions
  // below.
  std::vector<PostedRecv> to_fail;
  const sim::TimePoint now = rt_.system().engine.now();
  for (auto& st : ranks_) {
    auto [recvs, envs] = st->matcher.harvest(all, all);
    for (PostedRecv& p : recvs) to_fail.push_back(std::move(p));
    for (Envelope& env : envs) orphanEnvelope(st->pe, env, now);
  }
  // Phase 2: complete. A harvested receive is out of the matcher, so no
  // delivery can complete it a second time.
  for (PostedRecv& p : to_fail) {
    ++aborted_ops_;
    if (p.status != nullptr) *p.status = Status{-1, kAnyTag, 0};
    p.done->set();
  }
}

void World::orphanEnvelope(int pe, Envelope& env, sim::TimePoint now) {
  ++orphaned_envelopes_;
  if (env.inlined) {
    rt_.system().obs.spans.end(env.span, now, obs::Phase::Errored, pe);
    return;
  }
  // Rendezvous orphan: the sender's payload is parked in the machine layer
  // waiting for this receive to be posted (the "orphaned chunk" of the
  // recovery metrics); the machine layer drains it.
  rt_.dev().drainOrphan(pe, env.bytes, env.dtag, core::DeviceRecvType::Ampi);
}

std::uint64_t World::cacheHits() const {
  std::uint64_t n = 0;
  for (const auto& st : ranks_) n += st->ptr_cache.hits();
  return n;
}

std::uint64_t World::cacheMisses() const {
  std::uint64_t n = 0;
  for (const auto& st : ranks_) n += st->ptr_cache.misses();
  return n;
}

sim::Future<void> World::isendImpl(int src_rank, const void* buf, std::uint64_t bytes, int dst,
                                   int tag) {
  if (dst < 0 || dst >= size()) {
    throw std::invalid_argument("ampi: send to rank " + std::to_string(dst) + " of " +
                                std::to_string(size()));
  }
  RankState& st = *ranks_[static_cast<std::size_t>(src_rank)];
  RankState& dst_st = *ranks_[static_cast<std::size_t>(dst)];
  cmi::Pe& pe = rt_.cmi().pe(st.pe);
  const model::LayerCosts& costs = rt_.costs();
  pe.charge(sim::usec(costs.ampi_call_us + costs.ampi_overhead_send_us));

  sim::Promise<void> sent;
  if (revoked_) {
    // ULFM fail-fast: a revoked world carries no traffic, so the send is
    // refused and completes at once; the caller sees aborted().
    ++aborted_ops_;
    sent.set();
    return sent.future();
  }
  const std::uint32_t seq = st.seq_out[static_cast<std::size_t>(dst)]++;
  const hw::MemRef src = st.ptr_cache.classify(rt_.system().memory, buf);

  if (src.isDevice() || bytes >= costs.host_pack_threshold) {
    // Rendezvous path (paper Fig. 7): payload directly through the machine
    // layer, metadata through the Charm++ runtime. The CkCallback stored
    // with the CkDeviceBuffer completes the sender's request.
    core::CmiDeviceBuffer cdb{src, bytes, 0};
    rt_.dev().lrtsSendDevice(st.pe, dst_st.pe, cdb, [sent] { sent.set(); },
                             core::DeviceRecvType::Ampi);
    dst_st.chare.sendFrom<&RankChare::recvMeta>(st.pe, static_cast<std::uint32_t>(src_rank),
                                                static_cast<std::int32_t>(tag),
                                                std::int32_t{0}, bytes, cdb.tag, seq);
  } else {
    // Eager path: payload packed into the AMPI message straight from the
    // user buffer (one copy); an unbacked source travels as its length only.
    const ck::BytesRef data{buf, bytes, src.backed};
    // Inline messages bypass the machine layer, so the span is minted here
    // and rides in the message itself (0 when observability is off).
    std::uint64_t span = 0;
    obs::SpanCollector& spans = rt_.system().obs.spans;
    if (spans.enabled()) {
      const sim::TimePoint now = rt_.system().engine.now();
      span = spans.begin(now, st.pe, dst_st.pe, bytes, "ampi");
      spans.phase(span, now, obs::Phase::MetaSent, st.pe, bytes);
    }
    dst_st.chare.sendFrom<&RankChare::recvInline>(st.pe, static_cast<std::uint32_t>(src_rank),
                                                  static_cast<std::int32_t>(tag),
                                                  std::int32_t{0}, seq, data, span);
    // Buffered semantics: the send completes once the local copy retires.
    pe.exec(0, [sent] { sent.set(); });
  }
  return sent.future();
}

sim::Future<void> World::irecvImpl(int dst_rank, void* buf, std::uint64_t bytes, int src,
                                   int tag, Status* status) {
  if (src != kAnySource && (src < 0 || src >= size())) {
    throw std::invalid_argument("ampi: receive from rank " + std::to_string(src) + " of " +
                                std::to_string(size()));
  }
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  cmi::Pe& pe = rt_.cmi().pe(st.pe);
  const model::LayerCosts& costs = rt_.costs();
  pe.charge(sim::usec(costs.ampi_call_us + costs.ampi_match_us));

  sim::Promise<void> done;
  const sim::Future<void> f = done.future();
  if (revoked_) {
    ++aborted_ops_;
    if (status != nullptr) *status = Status{-1, tag, 0};
    done.set();
    return f;
  }
  PostedRecv p{std::move(done), status, st.ptr_cache.classify(rt_.system().memory, buf), bytes,
               src, tag};

  // Search the unexpected queue in arrival order (paper Sec. III-C2): a
  // fully-concrete receive probes its (src, tag) hash chain, a
  // wildcard receive walks arrival order.
  if (std::optional<Envelope> env = st.matcher.takeUnexpected(p)) {
    if (env->inlined) {
      rt_.system().obs.spans.phase(env->span, rt_.system().engine.now(),
                                   obs::Phase::MatchedUnexpected, st.pe, env->bytes);
    }
    deliver(dst_rank, p, *env);
    return f;
  }
  st.matcher.post(std::move(p));
  return f;
}

void World::enqueueEnvelope(int dst_rank, std::uint32_t seq, Envelope env) {
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  {
    // Metadata (or the whole inline message) has reached the receiver.
    obs::SpanCollector& spans = rt_.system().obs.spans;
    const std::uint64_t sp = env.inlined ? env.span : spans.spanForTag(env.dtag);
    spans.phase(sp, rt_.system().engine.now(), obs::Phase::MetaArrived, st.pe, env.bytes);
  }
  // Restore per-source FIFO order: envelopes may overtake each other in the
  // network when eager and rendezvous paths mix; MPI matching order must not.
  const auto src = static_cast<std::size_t>(env.src_rank);
  st.reseq.push(src, seq, std::move(env),
                [this, dst_rank](Envelope&& e) { processEnvelope(dst_rank, std::move(e)); });
}

void World::processEnvelope(int dst_rank, Envelope env) {
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  if (revoked_) {
    // Late arrival in a revoked world: no receive can ever match it
    // (pending ones were failed, new ones are refused), so discard it now
    // instead of leaking it into the unexpected store.
    orphanEnvelope(st.pe, env, rt_.system().engine.now());
    return;
  }
  if (std::optional<PostedRecv> p = st.matcher.takePosted(env)) {
    if (env.inlined) {
      rt_.system().obs.spans.phase(env.span, rt_.system().engine.now(),
                                   obs::Phase::MatchedPosted, st.pe, env.bytes);
    }
    deliver(dst_rank, *p, env);
    return;
  }
  if (env.inlined) {
    // Inline payload arrived before its receive was posted: the AMPI-level
    // analogue of the machine layer's early-arrival wait.
    rt_.system().obs.spans.phase(env.span, rt_.system().engine.now(), obs::Phase::EarlyArrival,
                                 st.pe, env.bytes);
  }
  st.matcher.pushUnexpected(std::move(env));
}

void World::deliver(int dst_rank, PostedRecv& p, Envelope& env) {
  sim::checkFits("ampi", env.bytes, p.capacity);
  RankState& st = *ranks_[static_cast<std::size_t>(dst_rank)];
  cmi::Pe& pe = rt_.cmi().pe(st.pe);
  const model::LayerCosts& costs = rt_.costs();
  // Writes recv()'s status, then completes the receive.
  auto complete = [done = std::move(*p.done), st = p.status,
                   status = Status{env.src_rank, env.tag, env.bytes}] {
    if (st != nullptr) *st = status;
    done.set();
  };

  if (env.inlined) {
    if (env.data_valid) cuda::moveBytes(p.buf, hw::MemRef::host(env.data.data()), env.data.size());
    const double copy_us =
        (static_cast<double>(env.bytes) / 1e3) / rt_.system().config.host_memcpy_gbps;
    const sim::Duration d = sim::usec(costs.ampi_overhead_recv_us + copy_us);
    // Close at the future completion time (when the copy retires) so the
    // span's extent matches what the request observes.
    rt_.system().obs.spans.end(env.span, rt_.system().engine.now() + d, obs::Phase::Completed,
                               st.pe);
    pe.exec(d, std::move(complete));
    return;
  }

  // Rendezvous: post the machine-layer receive now that metadata matched
  // (the paper's delayed-receive limitation lives exactly here).
  const double extra = costs.ampi_overhead_recv_us;
  core::DeviceRdmaOp op{p.buf, env.bytes, env.dtag};
  rt_.dev().lrtsRecvDevice(st.pe, op, core::DeviceRecvType::Ampi,
                           [complete = std::move(complete), &pe, extra]() mutable {
                             pe.exec(sim::usec(extra), std::move(complete));
                           });
}

sim::MatchStats World::matchStats() const {
  sim::MatchStats t;
  for (const auto& st : ranks_) t.merge(st->matcher.stats());
  return t;
}

}  // namespace cux::ampi
