#include "charm4py/charm4py.hpp"

namespace cux::c4p {

// ---------------------------------------------------------------------------
// PerPeChare: one chare per PE receiving channel messages for all channel
// endpoints that live there.
// ---------------------------------------------------------------------------

struct Charm4py::PerPeChare : ck::Chare {
  explicit PerPeChare(Charm4py* o) : owner(o) {}

  void chanMsg(std::uint64_t chan, std::uint8_t dst_side, std::uint64_t bytes,
               std::uint64_t dtag, std::uint32_t seq, std::uint8_t inlined, ck::Bytes data,
               std::uint8_t src_host, std::uint64_t span) {
    Envelope env;
    env.bytes = bytes;
    env.dtag = dtag;
    env.span = span;
    env.inlined = inlined != 0;
    env.data = std::move(data.data);
    env.src_host = src_host != 0;
    env.data_valid = data.valid;
    owner->onEnvelope(myPe(), chan, static_cast<int>(dst_side), seq, std::move(env));
  }

  Charm4py* owner;
};

Charm4py::Charm4py(ck::Runtime& rt) : rt_(rt) {
  chares_.reserve(static_cast<std::size_t>(rt.numPes()));
  for (int pe = 0; pe < rt.numPes(); ++pe) chares_.push_back(rt.create<PerPeChare>(pe, this));
  pe_dead_.assign(static_cast<std::size_t>(rt.numPes()), 0);
  failure_sub_ =
      rt_.cmi().ucx().onPeerFailure([this](int pe, sim::TimePoint) { onPeFailed(pe); });
  stats_provider_ = rt_.system().obs.addStatsProvider([this](obs::Registry& r) {
    r.setGauge("c4p.dead_channels", dead_chans_.size());
    r.setGauge("c4p.failed_recvs", failed_recvs_);
    r.setGauge("c4p.orphaned_envelopes", orphaned_envelopes_);
    r.setGauge("c4p.aborted_ops", aborted_ops_);
  });
}

Charm4py::~Charm4py() {
  rt_.cmi().ucx().removePeerFailureSub(failure_sub_);
  rt_.system().obs.removeStatsProvider(stats_provider_);
}

void Charm4py::onPeFailed(int pe) {
  if (pe >= 0 && static_cast<std::size_t>(pe) < pe_dead_.size()) {
    pe_dead_[static_cast<std::size_t>(pe)] = 1;
  }
  std::vector<std::uint64_t> newly_dead;
  for (const auto& e : ends_) {
    if (e->pe_ == pe && dead_chans_.insert(e->chan_).second) newly_dead.push_back(e->chan_);
  }
  // Harvest first, resume last: force-completing a waiting receive resumes
  // its coroutine, which may immediately call send/recv again (refused on a
  // dead channel, but still touching endpoint state mid-sweep otherwise).
  std::vector<sim::Promise<void>> to_fail;
  for (const std::uint64_t chan : newly_dead) {
    for (int side = 0; side < 2; ++side) {
      ChannelEnd* e = ends_[chan * 2 + static_cast<std::uint64_t>(side)].get();
      EndpointState& st = endpoint(chan, side);
      // Queued envelopes can never match: both sides refuse future receives
      // on a dead channel. Orphan on both sides so no span is left open.
      for (std::size_t i = 0; i < st.arrived.size(); ++i) orphanEnvelope(e->pe_, st.arrived[i]);
      for (Envelope& env : st.reseq.takeStashed()) orphanEnvelope(e->pe_, env);
      st.arrived.clear();
      // Waiting receives drain on BOTH sides: the live side observes the
      // failure instead of hanging, and the dead side's coroutine must still
      // reach its own abort exit (its subsequent calls are refused on the
      // dead channel) — a frame parked forever would outlive the run as a
      // leak.
      for (std::size_t i = 0; i < st.waiting.size(); ++i) {
        to_fail.push_back(st.waiting[i].done);
        ++failed_recvs_;
      }
      st.waiting.clear();
    }
  }
  for (sim::Promise<void>& p : to_fail) p.set();
}

void Charm4py::orphanEnvelope(int pe, Envelope& env) {
  ++orphaned_envelopes_;
  if (env.inlined) {
    rt_.system().obs.spans.end(env.span, rt_.system().engine.now(), obs::Phase::Errored, pe);
    return;
  }
  // Device-path orphan: its payload may be parked in UCX at `pe`; the
  // machine layer drains it, and the drained receive ends the span.
  rt_.dev().drainOrphan(pe, env.bytes, env.dtag, core::DeviceRecvType::Charm4py);
}

Channel Charm4py::makeChannel(int pe_a, int pe_b) {
  const std::uint64_t chan = next_chan_++;
  auto mk = [&](int side, int pe) {
    auto end = std::make_unique<ChannelEnd>();
    end->owner_ = this;
    end->chan_ = chan;
    end->side_ = side;
    end->pe_ = pe;
    ends_.push_back(std::move(end));
    return ends_.back().get();
  };
  endpoints_.resize(endpoints_.size() + 2);
  return Channel{mk(0, pe_a), mk(1, pe_b)};
}

void Charm4py::startOn(int pe, std::function<void()> fn) {
  // Launching a coroutine entry method costs one interpreter dispatch.
  rt_.cmi().pe(pe).charge(sim::usec(rt_.costs().py_call_us));
  rt_.startOn(pe, std::move(fn));
}

void Charm4py::cudaDtoH(int pe, hw::MemRef h_dst, hw::MemRef d_src, std::uint64_t n,
                        cuda::Stream& s) {
  // charm.lib shims are thin Cython wrappers over C++ (paper Fig. 8 caption):
  // cheaper than a full interpreter dispatch.
  rt_.cmi().pe(pe).charge(sim::usec(rt_.costs().py_cuda_call_us));
  s.memcpyAsync(h_dst, d_src, n, cuda::MemcpyKind::DeviceToHost);
}

void Charm4py::cudaHtoD(int pe, hw::MemRef d_dst, hw::MemRef h_src, std::uint64_t n,
                        cuda::Stream& s) {
  rt_.cmi().pe(pe).charge(sim::usec(rt_.costs().py_cuda_call_us));
  s.memcpyAsync(d_dst, h_src, n, cuda::MemcpyKind::HostToDevice);
}

sim::Future<void> Charm4py::streamSynchronize(int pe, cuda::Stream& s) {
  rt_.cmi().pe(pe).charge(sim::usec(rt_.costs().py_cuda_call_us));
  sim::Promise<void> done;
  const double wake = rt_.costs().py_wakeup_us;
  cmi::Pe& p = rt_.cmi().pe(pe);
  s.synchronize().onReady([done, wake, &p] {
    p.exec(sim::usec(wake), [done] { done.set(); });
  });
  return done.future();
}

sim::Future<void> ChannelEnd::send(const void* buf, std::uint64_t bytes) {
  return owner_->sendImpl(*this, buf, bytes);
}
sim::Future<void> ChannelEnd::recv(void* buf, std::uint64_t bytes) {
  return owner_->recvImpl(*this, buf, bytes);
}
bool ChannelEnd::aborted() const { return owner_->channelDead(chan_); }

Charm4py::EndpointState& Charm4py::endpoint(std::uint64_t chan, int side) {
  std::unique_ptr<EndpointState>& st = endpoints_[chan * 2 + static_cast<std::uint64_t>(side)];
  if (!st) st = std::make_unique<EndpointState>();
  return *st;
}

sim::Future<void> Charm4py::sendImpl(ChannelEnd& end, const void* buf, std::uint64_t bytes) {
  const int src_pe = end.pe_;
  const int dst_side = 1 - end.side_;
  // Destination PE: the other end of the channel.
  const ChannelEnd* peer = ends_[end.chan_ * 2 + static_cast<std::uint64_t>(dst_side)].get();
  const model::LayerCosts& costs = rt_.costs();
  cmi::Pe& pe = rt_.cmi().pe(src_pe);
  pe.charge(sim::usec(costs.py_call_us));

  if (channelDead(end.chan_)) {
    // Drain semantics on a dead channel: refuse before consuming a sequence
    // number (per-channel FIFO resequencing must stay intact) and complete
    // immediately — the caller observes the failure through aborted().
    ++aborted_ops_;
    sim::Promise<void> done;
    pe.exec(0, [done] { done.set(); });
    return done.future();
  }

  // The sender's own endpoint tracks the outbound sequence for (chan,
  // dst_side): envelopes are matched on the receiving side strictly in order.
  EndpointState& out = endpoint(end.chan_, end.side_);
  const std::uint32_t seq = out.seq_out++;

  sim::Promise<void> done;
  const hw::MemRef src = rt_.classify(src_pe, buf);
  const bool device = src.isDevice();
  // Host payloads always pay the Python-side buffer copy whatever the
  // transport underneath: the host-staging variant of Fig. 8 passes a host
  // array through channel.send, which Charm4py serialises on the way in.
  if (!device) {
    const double py_copy_us = (static_cast<double>(bytes) / 1e3) / costs.py_host_copy_gbps;
    pe.charge(sim::usec(py_copy_us));
  }
  if (device || bytes >= costs.host_pack_threshold) {
    // GPU-aware path (paper Fig. 9): buffer address propagated through the
    // Cython layer into a CkDeviceBuffer; payload through the machine layer.
    core::CmiDeviceBuffer cdb{src, bytes, 0};
    cmi::Pe* pe_ptr = &pe;
    const double wake = costs.py_wakeup_us;
    rt_.dev().lrtsSendDevice(
        src_pe, peer->pe_, cdb,
        [done, pe_ptr, wake] { pe_ptr->exec(sim::usec(wake), [done] { done.set(); }); },
        core::DeviceRecvType::Charm4py);
    chares_[static_cast<std::size_t>(peer->pe_)].sendFrom<&PerPeChare::chanMsg>(
        src_pe, end.chan_, static_cast<std::uint8_t>(dst_side), bytes, cdb.tag, seq,
        std::uint8_t{0}, ck::BytesRef{}, static_cast<std::uint8_t>(device ? 0 : 1),
        std::uint64_t{0});
  } else {
    // Packed straight from the user buffer (one copy); an unbacked source
    // travels as its length only.
    const ck::BytesRef data{buf, bytes, src.backed};
    // Inline messages bypass the machine layer: mint the span here and ship
    // it inside the message (0 when observability is off).
    std::uint64_t span = 0;
    obs::SpanCollector& spans = rt_.system().obs.spans;
    if (spans.enabled()) {
      const sim::TimePoint now = rt_.system().engine.now();
      span = spans.begin(now, src_pe, peer->pe_, bytes, "charm4py");
      spans.phase(span, now, obs::Phase::MetaSent, src_pe, bytes);
    }
    chares_[static_cast<std::size_t>(peer->pe_)].sendFrom<&PerPeChare::chanMsg>(
        src_pe, end.chan_, static_cast<std::uint8_t>(dst_side), bytes, std::uint64_t{0}, seq,
        std::uint8_t{1}, data, std::uint8_t{1}, span);
    pe.exec(0, [done] { done.set(); });
  }
  return done.future();
}

sim::Future<void> Charm4py::recvImpl(ChannelEnd& end, void* buf, std::uint64_t bytes) {
  const model::LayerCosts& costs = rt_.costs();
  cmi::Pe& pe = rt_.cmi().pe(end.pe_);
  pe.charge(sim::usec(costs.py_call_us));

  if (channelDead(end.chan_)) {
    // No data is coming on a dead channel (sends are refused and the sweep
    // orphaned everything queued): complete immediately, buffer contents
    // undefined, failure observable through aborted().
    ++aborted_ops_;
    sim::Promise<void> done;
    pe.exec(0, [done] { done.set(); });
    return done.future();
  }

  EndpointState& st = endpoint(end.chan_, end.side_);
  PendingRecv pending;
  pending.buf = buf;
  pending.capacity = bytes;
  auto fut = pending.done.future();
  st.waiting.push_back(std::move(pending));
  matchOne(end.pe_, st, obs::Phase::MatchedUnexpected);
  return fut;
}

void Charm4py::onEnvelope(int pe, std::uint64_t chan, int side, std::uint32_t seq,
                          Envelope env) {
  if (channelDead(chan)) {
    // A pre-failure envelope that was still in flight when the channel died:
    // the receiving side refuses new receives, so it can never match.
    orphanEnvelope(pe, env);
    return;
  }
  EndpointState& st = endpoint(chan, side);
  {
    // Metadata (or the whole inline message) has reached the receiver.
    obs::SpanCollector& spans = rt_.system().obs.spans;
    const std::uint64_t sp = env.inlined ? env.span : spans.spanForTag(env.dtag);
    spans.phase(sp, rt_.system().engine.now(), obs::Phase::MetaArrived, pe, env.bytes);
  }
  // Channel matching is strictly FIFO: an envelope entering `arrived` behind
  // more backlog than there are waiting receives has no receive posted for
  // it yet — the inline analogue of the machine layer's early-arrival wait.
  st.reseq.push(0, seq, std::move(env), [this, pe, &st](Envelope&& e) {
    if (e.inlined && st.waiting.size() <= st.arrived.size()) {
      rt_.system().obs.spans.phase(e.span, rt_.system().engine.now(), obs::Phase::EarlyArrival,
                                   pe, e.bytes);
    }
    st.arrived.push_back(std::move(e));
  });
  matchOne(pe, st, obs::Phase::MatchedPosted);
}

void Charm4py::matchOne(int pe, EndpointState& st, obs::Phase matched) {
  while (!st.arrived.empty() && !st.waiting.empty()) {
    sim::checkFits("charm4py", st.arrived.front().bytes, st.waiting.front().capacity);
    Envelope env = std::move(st.arrived.front());
    st.arrived.pop_front();
    PendingRecv p = std::move(st.waiting.front());
    st.waiting.pop_front();

    const model::LayerCosts& costs = rt_.costs();
    cmi::Pe& cpu = rt_.cmi().pe(pe);
    auto done = p.done;
    // The receive buffer enters the stack here, on its PE's pointer cache:
    // keeping the ref out of PendingRecv keeps every endpoint's queue small.
    const hw::MemRef dst = rt_.classify(pe, p.buf);
    if (env.inlined) {
      if (env.data_valid) {
        cuda::moveBytes(dst, hw::MemRef::host(env.data.data()), env.data.size());
      }
      const double py_copy_us =
          (static_cast<double>(env.bytes) / 1e3) / costs.py_host_copy_gbps;
      const sim::Duration d = sim::usec(costs.py_wakeup_us + py_copy_us);
      obs::SpanCollector& spans = rt_.system().obs.spans;
      const sim::TimePoint now = rt_.system().engine.now();
      spans.phase(env.span, now, matched, pe, env.bytes);
      // Close at the future wake-up time so the span extent matches what the
      // receiving coroutine observes.
      spans.end(env.span, now + d, obs::Phase::Completed, pe);
      cpu.exec(d, [done] { done.set(); });
    } else {
      cmi::Pe* cpu_ptr = &cpu;
      // Host zero-copy payloads are still copied out through the Python
      // buffer layer on arrival; device payloads land in place.
      const double extra_us =
          costs.py_wakeup_us +
          (env.src_host ? (static_cast<double>(env.bytes) / 1e3) / costs.py_host_copy_gbps
                        : 0.0);
      rt_.dev().lrtsRecvDevice(pe, core::DeviceRdmaOp{dst, env.bytes, env.dtag},
                               core::DeviceRecvType::Charm4py, [done, cpu_ptr, extra_us] {
                                 cpu_ptr->exec(sim::usec(extra_us), [done] { done.set(); });
                               });
    }
  }
}

}  // namespace cux::c4p
