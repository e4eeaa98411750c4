#include <algorithm>
#include <cstring>
#include <utility>

#include "hw/cuda.hpp"
#include "hw/path_sched.hpp"
#include "ucx/context.hpp"
#include "ucx/worker.hpp"

namespace cux::ucx {

namespace {

[[nodiscard]] bool tagsMatch(Tag msg_tag, Tag recv_tag, Tag mask) noexcept {
  return (msg_tag & mask) == (recv_tag & mask);
}

}  // namespace

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(hw::System& sys, const UcxConfig& cfg) : sys_(sys), cfg_(cfg) {
  cfg_.validate();
  const int pes = sys.config.numPes();
  workers_.reserve(static_cast<std::size_t>(pes));
  for (int pe = 0; pe < pes; ++pe) workers_.push_back(std::make_unique<Worker>(*this, pe));
  // Re-home the scattered per-context stats behind the System's registry:
  // a snapshot provider runs only when someone dumps, so the send/recv hot
  // paths keep their plain member counters.
  stats_provider_ = sys_.obs.addStatsProvider([this](obs::Registry& r) {
    r.setGauge("ucx.sends_started", sends_started_);
    r.setGauge("ucx.bytes_sent", bytes_sent_);
    r.setGauge("ucx.retransmits", retransmits_);
    r.setGauge("ucx.send_errors", send_errors_);
    r.setGauge("ucx.pe_failures_detected", pe_failures_detected_);
    r.setGauge("ucx.peer_failed_reqs", peer_failed_reqs_);
    r.setGauge("ucx.duplicates_suppressed", duplicatesSuppressed());
    r.setGauge("ucx.mp.transfers", mp_transfers_);
    r.setGauge("ucx.mp.splits", mp_splits_);
    r.setGauge("ucx.mp.chunks", mp_chunks_);
    r.setGauge("ucx.mp.reroutes", mp_reroutes_);
    r.setGauge("ucx.mp.bytes.direct", mp_bytes_direct_);
    r.setGauge("ucx.mp.bytes.staged", mp_bytes_staged_);
    r.setGauge("ucx.mp.bytes.rail", mp_bytes_rail_);
    r.setGauge("ucx.req_pool.hits", req_hits_);
    r.setGauge("ucx.req_pool.misses", req_misses_);
    r.setGauge("ucx.buf_pool.hits", buf_hits_);
    r.setGauge("ucx.buf_pool.misses", buf_misses_);
    r.setGauge("ucx.buf_pool.bytes", buf_pool_bytes_);
    const sim::MatchStats s = matchStats();
    r.setGauge("ucx.match.posted", s.posted);
    r.setGauge("ucx.match.unexpected", s.unexpected);
    r.setGauge("ucx.match.posted_hwm", s.posted_hwm);
    r.setGauge("ucx.match.unexpected_hwm", s.unexpected_hwm);
    r.setGauge("ucx.match.posted_max_chain", s.posted_max_chain);
    r.setGauge("ucx.match.unexpected_max_chain", s.unexpected_max_chain);
    r.setGauge("ucx.match.scan_steps", s.scan_steps);
  });
  // Failure detector: one announcement event per scheduled fail-stop PE
  // death, at failure time + failure_detect_us (modelling the heartbeat
  // round-trip + suspicion threshold without per-heartbeat traffic). With no
  // scheduled failures nothing is scheduled — the engine timeline, and hence
  // the trace hashes, stay bit-identical to a failure-free build.
  if (sys_.fault.enabled() && sys_.fault.anyPeFailures()) {
    for (const sim::PeFailure& f : sys_.fault.config().pe_failures) {
      const sim::TimePoint when = f.at + sim::usec(cfg_.failure_detect_us);
      sys_.engine.schedule(when, [this, pe = f.pe, when] {
        ++pe_failures_detected_;
        sys_.trace.record(when, sim::TraceCat::PeFail, pe, pe, 0, 0, "detected");
        sweepDeadPe(pe, when);
        // Copy: a subscriber's callback may register or remove subscribers
        // (a section, group or world built or destroyed mid-announcement).
        auto subs = peer_failure_subs_;
        for (const auto& [id, fn] : subs) fn(pe, when);
      });
    }
  }
}

Context::~Context() { sys_.obs.removeStatsProvider(stats_provider_); }

void Context::sweepDeadPe(int dead_pe, sim::TimePoint t) {
  // Everything that ends is collected first and ended after: a completion
  // may post or send again, and must find every store consistent. A parked
  // RTS's retry deadline stopped at its delivery, so only this sweep can
  // still end its sender. (Eager senders already completed at delivery.)
  struct Ended {
    RequestPtr req;
    int owner_pe, peer_pe;
    std::uint64_t len;
    Tag tag;
  };
  std::vector<Ended> ended;
  for (const auto& w : workers_) {
    const int pe = w->pe();
    const bool dead = pe == dead_pe;
    auto [recvs, rts] = w->matcher_.harvest(
        [&](const Worker::PostedRecv& r) { return dead || r.req->peer_pe == dead_pe; },
        [&](const Worker::Incoming& m) { return dead && m.is_rndv && m.send_req; });
    for (Worker::PostedRecv& r : recvs) {
      const int src_pe = r.req->peer_pe;
      ended.push_back({std::move(r.req), pe, src_pe, r.len, r.tag});
    }
    for (Worker::Incoming& m : rts) {
      ended.push_back({std::move(m.send_req), m.src_pe, pe, m.len, m.tag});
    }
    if (dead) continue;
    w->matcher_.forEachUnexpected([&](const Worker::Incoming& m) {
      if (m.src_pe == dead_pe && m.is_rndv && m.send_req) {
        ended.push_back({m.send_req, m.src_pe, pe, m.len, m.tag});
      }
    });
  }
  for (Ended& e : ended) endPeerFailed(*e.req, t, e.owner_pe, e.peer_pe, e.len, e.tag);
}

void Context::endPeerFailed(Request& req, sim::TimePoint t, int owner_pe, int peer_pe,
                            std::uint64_t len, Tag tag) {
  if (req.state != ReqState::Pending) return;
  ++peer_failed_reqs_;
  sys_.trace.record(t, sim::TraceCat::PeFail, owner_pe, peer_pe, len, tag, "peer-failed");
  sys_.obs.spans.phase(sys_.obs.spans.spanForTag(tag), t, obs::Phase::PeFailed, owner_pe);
  complete(req, ReqState::PeerFailed);
}

// ---------------------------------------------------------------------------
// Wire path and reliability layer (ship() is the one fork on reliable())
// ---------------------------------------------------------------------------

/// In-flight state of one reliable wire message. Every (re)transmission
/// attempt shares this state, so duplicate suppression is exact and O(1):
/// the first arriving copy flips `delivered` and takes `proto`; later copies
/// see the flag and are dropped before they touch the matching engine.
struct Context::WireState {
  Worker::Incoming proto;
  int src_pe = -1;
  int dst_pe = -1;
  /// RndvCtrl marks a rendezvous RTS: it flies at control latency, and the
  /// sender request is completed later by the ATS (or by exhaustion here).
  sim::MsgClass cls = sim::MsgClass::Eager;
  RequestPtr req;  ///< sender request (owns the completion)
  bool delivered = false;

  [[nodiscard]] bool ctrl() const noexcept { return cls == sim::MsgClass::RndvCtrl; }
};

sim::TimePoint Context::wireArrival(int src_pe, int dst_pe, sim::TimePoint t, sim::MsgClass cls,
                                    std::uint64_t len) {
  const hw::Path path = sys_.machine.hostToHostPath(src_pe, dst_pe);
  return cls == sim::MsgClass::RndvCtrl ? hw::Machine::ctrlTransfer(path, t, cfg_.header_bytes)
                                        : sys_.machine.transfer(path, t, len + cfg_.header_bytes);
}

void Context::ship(Worker::Incoming msg, int src_pe, int dst_pe, sim::TimePoint t0,
                   sim::MsgClass cls, RequestPtr req) {
  sim::Engine& engine = sys_.engine;
  if (reliable()) {
    // Sender completion models the transport ack: Done on first delivered
    // attempt (never locally at t0, which would hide a lost message), Error
    // after the retry budget; an RTS sender completes via the ATS instead.
    auto ws = std::make_shared<WireState>(
        WireState{std::move(msg), src_pe, dst_pe, cls, std::move(req), false});
    engine.schedule(t0, [this, ws] { reliableTransmit(ws, 0); });
    return;
  }
  // Eager sends complete locally once the payload has been captured.
  if (cls != sim::MsgClass::RndvCtrl) {
    engine.schedule(t0, [req = std::move(req)] { complete(*req, ReqState::Done); });
  }
  const sim::TimePoint arrival = wireArrival(src_pe, dst_pe, t0, cls, msg.len);
  Worker& dst = worker(dst_pe);
  engine.schedule(arrival,
                  [&dst, msg = std::move(msg)]() mutable { dst.onArrival(std::move(msg)); });
}

void Context::reliableTransmit(const std::shared_ptr<WireState>& ws, int attempt) {
  sim::Engine& engine = sys_.engine;
  const sim::TimePoint now = engine.now();
  const auto dec = sys_.fault.decide(now, ws->cls, ws->src_pe, ws->dst_pe);
  if (dec.drop) {
    sys_.trace.record(now, sim::TraceCat::Drop, ws->src_pe, ws->dst_pe, ws->proto.len,
                      ws->proto.tag, ws->ctrl() ? "rts" : "wire");
  } else {
    const sim::TimePoint arrival =
        wireArrival(ws->src_pe, ws->dst_pe, now, ws->cls, ws->proto.len) + dec.delay;
    engine.schedule(arrival, [this, ws] {
      if (ws->delivered) {
        // A retransmit raced the delivered copy: suppress it here, at the
        // shared in-flight state, so a duplicate can never double-deliver or
        // grow the unexpected queue. (proto's scalars stay valid after the
        // move below — only the payload storage was taken.)
        worker(ws->dst_pe).noteDuplicateSuppressed(ws->src_pe, ws->proto.len, ws->proto.tag);
        return;
      }
      // Fail-stop: a copy in flight when the destination died blackholes at
      // arrival (the injector only faults at transmit time, so an in-flight
      // message to a PE that dies mid-flight must be dropped here). The
      // sender stays Pending and the retry machinery surfaces PeerFailed.
      if (sys_.fault.peDead(sys_.engine.now(), ws->dst_pe)) {
        sys_.trace.record(sys_.engine.now(), sim::TraceCat::Drop, ws->src_pe, ws->dst_pe,
                          ws->proto.len, ws->proto.tag, "pe-dead");
        return;
      }
      ws->delivered = true;
      // Sender completion models the transport-level ack: Done at first
      // delivery (rendezvous RTS senders instead complete via ATS).
      if (!ws->ctrl() && ws->req) {
        ws->req->data_delivered = true;
        complete(*ws->req, ReqState::Done);
      }
      worker(ws->dst_pe).onArrival(std::move(ws->proto));
    });
  }
  // Retry deadline: attempt k is declared lost retry_base_us * 2^k after it
  // was sent. Exhaustion surfaces ReqState::Error — an operation never hangs.
  engine.schedule(now + retryDelay(attempt), [this, ws, attempt] {
    if (ws->delivered) return;
    // Once the failure detector has declared either endpoint dead, stop
    // retrying and surface the dedicated terminal state. This bounds the
    // failure latency of a pending request by the detection horizon plus one
    // backoff interval — strictly before plain exhaustion with the default
    // knobs (500 us detect vs ~3.1 ms cumulative backoff).
    const sim::TimePoint t = sys_.engine.now();
    if (peerKnownDead(t, ws->dst_pe) || peerKnownDead(t, ws->src_pe)) {
      if (ws->req) endPeerFailed(*ws->req, t, ws->src_pe, ws->dst_pe, ws->proto.len, ws->proto.tag);
      return;
    }
    if (attempt >= cfg_.max_retries) {
      ++send_errors_;
      sys_.trace.record(sys_.engine.now(), sim::TraceCat::Drop, ws->src_pe, ws->dst_pe,
                        ws->proto.len, ws->proto.tag, "retries-exhausted");
      if (ws->req) complete(*ws->req, ReqState::Error);
      return;
    }
    ++retransmits_;
    sys_.trace.record(sys_.engine.now(), sim::TraceCat::Retry, ws->src_pe, ws->dst_pe,
                      ws->proto.len, ws->proto.tag, ws->ctrl() ? "rts" : "wire");
    sys_.obs.spans.phase(sys_.obs.spans.spanForTag(ws->proto.tag), sys_.engine.now(),
                         obs::Phase::Retry, ws->src_pe,
                         static_cast<std::uint64_t>(attempt) + 1);
    reliableTransmit(ws, attempt + 1);
  });
}

Context::Leg Context::faultedLeg(int src_pe, int dst_pe, sim::TimePoint t, sim::MsgClass cls,
                                 std::uint64_t len, Tag tag, const char* what) {
  for (int attempt = 0;; ++attempt) {
    // A leg to or from a known-dead PE can never succeed: fail it at the
    // decision point instead of burning the whole retry budget.
    if (peerKnownDead(t, src_pe) || peerKnownDead(t, dst_pe)) {
      sys_.trace.record(t, sim::TraceCat::PeFail, src_pe, dst_pe, len, tag, what);
      return {t, 0, ReqState::PeerFailed};
    }
    const auto dec = sys_.fault.decide(t, cls, src_pe, dst_pe);
    if (!dec.drop) return {t, dec.delay, ReqState::Done};
    sys_.trace.record(t, sim::TraceCat::Drop, src_pe, dst_pe, len, tag, what);
    if (attempt >= cfg_.max_retries) return {t, 0, ReqState::Error};
    ++retransmits_;
    sys_.trace.record(t, sim::TraceCat::Retry, src_pe, dst_pe, len, tag, what);
    sys_.obs.spans.phase(sys_.obs.spans.spanForTag(tag), t, obs::Phase::Retry, src_pe,
                         static_cast<std::uint64_t>(attempt) + 1);
    t += retryDelay(attempt);
  }
}

std::pair<sim::TimePoint, ReqState> Context::ctrlLeg(int src_pe, int dst_pe, sim::TimePoint t,
                                                     Tag tag, const char* what) {
  const Leg leg = faultedLeg(src_pe, dst_pe, t, sim::MsgClass::RndvCtrl, 0, tag, what);
  return {wireArrival(src_pe, dst_pe, leg.start, sim::MsgClass::RndvCtrl, 0) + leg.delay, leg.end};
}

sim::TimePoint Context::stageDeviceEager(sim::TimePoint t, int pe, std::uint64_t len,
                                         bool egress) {
  if (cfg_.gdrcopy_enabled) {
    // GDRCopy: CPU-driven copy through the BAR window; does not occupy the
    // NVLink brick the way bulk DMA does.
    return t + sim::usec(cfg_.gdr_latency_us) + sim::transferTime(len, cfg_.gdr_bandwidth_gbps);
  }
  // Fallback: cudaMemcpy staging through the copy engine (the slow path the
  // paper warns about when GDRCopy is not detected).
  const hw::GpuId gpu = sys_.machine.gpuOfPe(pe);
  hw::Link& link = egress ? sys_.machine.gpuUp(gpu) : sys_.machine.gpuDown(gpu);
  return link.reserve(t + sim::usec(cfg_.cuda_stage_latency_us), len);
}

std::vector<std::byte> Context::takeBuffer(std::uint64_t len) {
  if (!buf_pool_.empty()) {
    std::vector<std::byte> v = std::move(buf_pool_.back());
    buf_pool_.pop_back();
    buf_pool_bytes_ -= v.capacity();
    if (v.capacity() >= len) {
      ++buf_hits_;
    } else {
      ++buf_misses_;  // undersized recycled buffer: resize reallocates below
    }
    v.resize(len);
    return v;
  }
  ++buf_misses_;
  std::vector<std::byte> v;
  v.resize(len);
  return v;
}

void Context::recycleBuffer(std::vector<std::byte>&& buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxPooledBufferBytes ||
      buf_pool_bytes_ + buf.capacity() > kMaxPooledBytes) {
    return;  // dropped: keep idle memory bounded
  }
  buf.clear();
  buf_pool_bytes_ += buf.capacity();
  buf_pool_.push_back(std::move(buf));
}

RequestPtr Context::makeSendRequest(int dst_pe, std::uint64_t len, Tag tag, CompletionFn cb) {
  auto req = makeRequest();
  req->peer_pe = dst_pe;
  req->bytes = len;
  req->matched_tag = tag;
  req->completion = std::move(cb);
  ++sends_started_;
  bytes_sent_ += len;
  return req;
}

RequestPtr Context::tagSend(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                            CompletionFn cb) {
  auto req = makeSendRequest(dst_pe, len, tag, std::move(cb));
  startSend(src_pe, dst_pe, buf, len, tag, req);
  return req;
}

void Context::startSend(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                        RequestPtr req) {
  const bool src_device = buf.isDevice();
  const std::uint64_t eager_limit = src_device ? cfg_.device_eager_threshold
                                               : cfg_.host_eager_threshold;
  if (len <= eager_limit) {
    sys_.trace.record(sys_.engine.now(), sim::TraceCat::UcxSend, src_pe, dst_pe, len, tag,
                      src_device ? "eager-device" : "eager-host");
    sendEager(src_pe, dst_pe, buf, len, tag, std::move(req));
  } else {
    sys_.trace.record(sys_.engine.now(), sim::TraceCat::UcxSend, src_pe, dst_pe, len, tag,
                      src_device ? "rndv-device" : "rndv-host");
    sendRndv(src_pe, dst_pe, buf, len, tag, std::move(req));
  }
}

RequestPtr Context::tagSendHostStaged(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len,
                                      Tag tag, CompletionFn cb) {
  if (!buf.isDevice()) return tagSend(src_pe, dst_pe, buf, len, tag, std::move(cb));

  auto req = makeSendRequest(dst_pe, len, tag, std::move(cb));

  // Degraded route: cudaMemcpy D2H through the GPU egress link first, then a
  // plain host-memory send under the same tag (a pre-posted receive still
  // matches). This is the path the real machine layer takes when the
  // GPU-aware transport is unavailable.
  sim::Engine& engine = sys_.engine;
  const hw::GpuId gpu = sys_.machine.gpuOfPe(src_pe);
  const sim::TimePoint staged =
      sys_.machine.gpuUp(gpu).reserve(engine.now() + sim::usec(cfg_.cuda_stage_latency_us), len);
  // The staged copy is host memory holding the source's bytes: the send
  // goes out as host memory, and reads the source itself when it is backed.
  const hw::MemRef staged_ref{buf.ptr, -1, hw::MemSpace::Host, buf.backed};
  engine.schedule(staged, [this, src_pe, dst_pe, staged_ref, len, tag, req]() mutable {
    startSend(src_pe, dst_pe, staged_ref, len, tag, std::move(req));
  });
  return req;
}

RequestPtr Context::amSend(int src_pe, int dst_pe, Tag tag, std::vector<std::byte> payload,
                           std::uint64_t phantom_bytes, CompletionFn cb) {
  const std::uint64_t len = payload.size() + phantom_bytes;
  auto req = makeSendRequest(dst_pe, len, tag, std::move(cb));
  const sim::TimePoint t0 = sys_.engine.now() + sim::usec(cfg_.send_overhead_us);
  Worker::Incoming msg;
  msg.tag = tag;
  msg.src_pe = src_pe;
  msg.len = len;
  if (len <= cfg_.host_eager_threshold) {
    msg.payload = std::move(payload);
    ship(std::move(msg), src_pe, dst_pe, t0, sim::MsgClass::Am, req);
    return req;
  }
  // Large owned payload: rendezvous timing; the vector lives in the in-flight
  // message, and the "transfer" pulls from its storage. Ownership travels as
  // `payload_owner`: the receiver-side copy can execute after the
  // sender-side ATS completion when recv_overhead exceeds the ATS control
  // latency, so tying the payload's lifetime to the sender callback (as an
  // earlier revision did) is a use-after-free.
  auto shared_payload = std::make_shared<std::vector<std::byte>>(std::move(payload));
  msg.is_rndv = true;
  msg.src_ptr = shared_payload->data();
  msg.send_req = req;
  msg.payload_owner = std::move(shared_payload);
  ship(std::move(msg), src_pe, dst_pe, t0, sim::MsgClass::RndvCtrl, req);
  return req;
}

void Context::sendEager(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                        RequestPtr req) {
  sim::TimePoint t0 = sys_.engine.now() + sim::usec(cfg_.send_overhead_us);
  if (buf.isDevice()) t0 = stageDeviceEager(t0, src_pe, len, /*egress=*/true);

  Worker::Incoming msg;
  msg.tag = tag;
  msg.src_pe = src_pe;
  msg.len = len;
  msg.src_device = buf.isDevice();
  if (buf.backed && len > 0) {
    msg.payload = takeBuffer(len);
    std::memcpy(msg.payload.data(), buf.ptr, len);
  } else {
    msg.payload_valid = (len == 0);
  }
  ship(std::move(msg), src_pe, dst_pe, t0, sim::MsgClass::Eager, std::move(req));
}

void Context::sendRndv(int src_pe, int dst_pe, hw::MemRef buf, std::uint64_t len, Tag tag,
                       RequestPtr req) {
  Worker::Incoming msg;
  msg.tag = tag;
  msg.src_pe = src_pe;
  msg.len = len;
  msg.is_rndv = true;
  msg.src_ptr = buf.ptr;
  msg.src_device = buf.isDevice();
  msg.src_backed = buf.backed;
  msg.send_req = req;
  ship(std::move(msg), src_pe, dst_pe, sys_.engine.now() + sim::usec(cfg_.send_overhead_us),
       sim::MsgClass::RndvCtrl, std::move(req));
}

Context::RndvResult Context::rndvTransfer(const Worker::Incoming& msg, int dst_pe,
                                          const hw::MemRef& dst) {
  sim::Engine& engine = sys_.engine;
  hw::Machine& machine = sys_.machine;
  const int src_pe = msg.src_pe;
  const bool src_device = msg.src_device;
  const bool dst_device = dst.isDevice();
  const std::uint64_t len = msg.len;

  const sim::TimePoint t_match = engine.now() + sim::usec(cfg_.rndv_handshake_us);
  sys_.trace.record(engine.now(), sim::TraceCat::UcxRndv, dst_pe, src_pe, len, msg.tag,
                    "matched");

  const bool same_node = machine.sameNode(src_pe, dst_pe);

  // One pass of the data movement starting at `start`. It fails only when
  // the CTS leg fails (inter-node device pipeline only — the other shapes
  // are receiver pulls with no sender-bound control message).
  auto computeOnce = [&](sim::TimePoint start) -> RndvResult {
    if (src_device && dst_device && same_node) {
      // CUDA-IPC-style direct pull across NVLink (possibly via X-Bus).
      return {machine.transfer(machine.deviceToDevicePath(src_pe, dst_pe), start, len)};
    }
    if (src_device && dst_device) {
      // Inter-node: pipelined host staging in chunks (the UCX cuda pipeline).
      // CTS travels back to the sender, which then pushes chunks through
      // D2H -> NIC -> NIC -> H2D; per-link FIFO occupancy pipelines chunks.
      const auto [cts_t, cts_end] = ctrlLeg(dst_pe, src_pe, start, msg.tag, "cts");
      if (cts_end != ReqState::Done) return {cts_t, cts_end};
      const sim::TimePoint cts_arrival = cts_t + sim::usec(cfg_.rndv_handshake_us);
      const std::uint64_t chunk = cfg_.rndv_pipeline_chunk;
      hw::Link& up = machine.gpuUp(machine.gpuOfPe(src_pe));
      hw::Link& nic_up = machine.nicUp(machine.nodeOfPe(src_pe));
      hw::Link& nic_down = machine.nicDown(machine.nodeOfPe(dst_pe));
      hw::Link& down = machine.gpuDown(machine.gpuOfPe(dst_pe));
      std::uint64_t remaining = len;
      sim::TimePoint last = cts_arrival;
      while (remaining > 0) {
        const std::uint64_t c = remaining < chunk ? remaining : chunk;
        const sim::TimePoint a = up.reserve(cts_arrival, c);
        const sim::TimePoint b = nic_up.reserve(a, c);
        // Chunk management occupies the injection stage, capping the pipeline
        // below wire speed (paper: ~10 of 12.5 GB/s).
        nic_up.setFreeAt(nic_up.freeAt() + sim::usec(cfg_.rndv_pipeline_overhead_us));
        const sim::TimePoint d = nic_down.reserve(b, c);
        last = down.reserve(d, c);
        remaining -= c;
      }
      return {last};
    }
    if (!src_device && !dst_device && !same_node) {
      // Inter-node host rendezvous from unregistered (pageable) memory: UCX
      // chunks through pre-registered bounce buffers; the bounce copy shares
      // the CPU with NIC posting, so each chunk occupies the injection stage
      // beyond its wire time. This is what keeps the -H variants below the
      // GPU-aware pipeline even though EDR bounds both.
      const std::uint64_t chunk = cfg_.rndv_pipeline_chunk;
      hw::Link& nic_up = machine.nicUp(machine.nodeOfPe(src_pe));
      hw::Link& nic_down = machine.nicDown(machine.nodeOfPe(dst_pe));
      std::uint64_t remaining = len;
      sim::TimePoint last = start;
      while (remaining > 0) {
        const std::uint64_t c = remaining < chunk ? remaining : chunk;
        const sim::TimePoint b = nic_up.reserve(start, c);
        nic_up.setFreeAt(nic_up.freeAt() + sim::usec(cfg_.host_rndv_chunk_overhead_us));
        last = nic_down.reserve(b, c);
        remaining -= c;
      }
      return {last};
    }
    // Mixed or intra-node host: compose egress/host/ingress segments.
    hw::Path path;
    if (src_device) path.append(machine.deviceEgressPath(src_pe));
    path.append(machine.hostToHostPath(src_pe, dst_pe));
    if (dst_device) path.append(machine.deviceIngressPath(dst_pe));
    const sim::TimePoint arrival = machine.transfer(path, start, len);
    return {path.empty() ? start : arrival};  // empty path: self-send
  };

  RndvResult data;
  if (cfg_.multipath.enabled && src_device && dst_device && src_pe != dst_pe) {
    // Multi-path engine: replaces both the single computation and the
    // whole-leg retry loop — fault decisions happen per chunk inside, so a
    // lost chunk re-routes instead of replaying the entire transfer.
    data = multipathRndvData(msg, dst_pe, t_match);
  } else {
    // Each attempt is faulted at transmit time; a dropped attempt is
    // retransmitted after the backoff, re-running the link reservations (the
    // retransmission occupies real wire time). A failed leg has no jitter.
    const Leg leg = faultedLeg(src_pe, dst_pe, t_match, sim::MsgClass::RndvData, len, msg.tag,
                               "rndv-data");
    data = leg.ok() ? computeOnce(leg.start) : RndvResult{leg.start, leg.end};
    data.data_arrival += leg.delay;
  }
  const sim::TimePoint data_arrival = data.data_arrival;

  RequestPtr send_req = msg.send_req;

  if (!data.ok()) {
    // The CTS or data leg exhausted its budget (Error) or found a peer known
    // dead (PeerFailed): the transfer fails permanently with the state the
    // leg decided. The sender ends with it here, unless the detector's sweep
    // ended it already (a dead sender whose RTS was parked); the caller ends
    // the receive side with it.
    if (send_req && send_req->state == ReqState::Pending) {
      if (data.end == ReqState::PeerFailed) {
        ++peer_failed_reqs_;
        sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), data_arrival,
                             obs::Phase::PeFailed, src_pe);
      } else {
        ++send_errors_;
      }
    }
    sys_.trace.record(data_arrival, sim::TraceCat::Drop, src_pe, dst_pe, len, msg.tag,
                      "rndv-failed");
    engine.schedule(data_arrival, [send_req = std::move(send_req), end = data.end] {
      if (send_req) complete(*send_req, end);
    });
    return {data_arrival, data.end};
  }

  // Rendezvous data leg succeeded: record the (scheduled) arrival; the ATS
  // leg is appended below once its arrival time is known.
  sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), data_arrival, obs::Phase::RndvData,
                       dst_pe, len);

  // Sender-side completion: ATS control message back after the data is out.
  // Under faults the ATS is receiver-driven and retried; if every attempt is
  // lost, the data did arrive (receiver completes Done) but the sender can
  // never learn it — it completes with Error.
  const auto [ats_t, ats_end] = ctrlLeg(dst_pe, src_pe, data_arrival, msg.tag, "ats");
  const sim::TimePoint ats_arrival = ats_t + sim::usec(cfg_.rndv_handshake_us);
  if (ats_end != ReqState::Done) {
    ++(ats_end == ReqState::PeerFailed ? peer_failed_reqs_ : send_errors_);
  }
  sys_.obs.spans.phase(sys_.obs.spans.spanForTag(msg.tag), ats_arrival, obs::Phase::RndvAts,
                       src_pe, ats_end == ReqState::Done ? 1 : 0);
  engine.schedule(ats_arrival, [send_req = std::move(send_req), ats_end] {
    if (send_req && send_req->state == ReqState::Pending) {
      // The data leg finished before the ATS was even attempted, so the
      // receiver has the payload either way; an Error (or PeerFailed, when
      // the ATS found a dead endpoint) here means only the ack was lost.
      // Callers must not resend: the matched receive is consumed, and a
      // resend under the same tag could never match.
      send_req->data_delivered = true;
      complete(*send_req, ats_end);
    }
  });
  return {data_arrival};
}

Context::RndvResult Context::multipathRndvData(const Worker::Incoming& msg, int dst_pe,
                                               sim::TimePoint t_match) {
  hw::Machine& machine = sys_.machine;
  const int src_pe = msg.src_pe;
  const std::uint64_t len = msg.len;
  const UcxConfig::MultipathConfig& mp = cfg_.multipath;
  const bool same_node = machine.sameNode(src_pe, dst_pe);
  constexpr std::size_t npos = hw::PathScheduler::npos;

  // Inter-node the sender drives chunk submission, so the CTS must travel
  // back first — same shape and fault handling as the single-rail pipeline.
  // Intra-node stays a receiver pull (CUDA-IPC semantics), no CTS.
  sim::TimePoint start = t_match;
  if (!same_node) {
    const auto [cts_t, cts_end] = ctrlLeg(dst_pe, src_pe, start, msg.tag, "cts");
    if (cts_end != ReqState::Done) return {cts_t, cts_end};
    start = cts_t + sim::usec(cfg_.rndv_handshake_us);
  }

  hw::PathScheduler sched(machine.deviceRoutes(src_pe, dst_pe));
  if (sched.numRoutes() == 0) return {start};  // same GPU: nothing to move

  const hw::PathScheduler::Params pp{mp.chunk_bytes, mp.min_split_bytes};
  const std::uint64_t nchunks = hw::PathScheduler::numChunks(len, pp);
  ++mp_transfers_;
  mp_chunks_ += nchunks;

  // Chunk submission overhead: one batched CUDA-graph launch covers every
  // chunk, so each chunk is ready one runtime call plus one graph launch
  // after the data leg starts.
  const sim::TimePoint submitted =
      start + sim::usec(sys_.config.cuda_call_us) + sim::usec(sys_.config.cuda_graph_launch_us);

  // Below the split threshold the transfer stays single-path: chunks still
  // pipeline, but all on the one route that projects best at submission.
  const bool split = len >= mp.min_split_bytes && sched.numRoutes() > 1;
  std::size_t locked = npos;

  const std::uint64_t span = sys_.obs.spans.spanForTag(msg.tag);
  sim::TimePoint last = start;
  std::uint64_t remaining = len;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    const std::uint64_t c = remaining < mp.chunk_bytes ? remaining : mp.chunk_bytes;
    remaining -= c;
    sim::TimePoint t = submitted;
    std::size_t exclude = npos;
    for (int attempt = 0;; ++attempt) {
      // Route this attempt rides; a lost attempt consumes no wire time, but
      // its choice is what the retry steers away from.
      std::size_t pick;
      if (!split && exclude == npos) {
        if (locked == npos) locked = sched.best(t, c);
        pick = locked;
      } else {
        pick = sched.best(t, c, exclude);
      }
      if (peerKnownDead(t, src_pe) || peerKnownDead(t, dst_pe)) {
        sys_.trace.record(t, sim::TraceCat::PeFail, src_pe, dst_pe, c, msg.tag, "mp-chunk");
        return {t, ReqState::PeerFailed};
      }
      const auto dec = sys_.fault.decide(t, sim::MsgClass::RndvData, src_pe, dst_pe);
      if (dec.drop) {
        sys_.trace.record(t, sim::TraceCat::Drop, src_pe, dst_pe, c, msg.tag, "mp-chunk");
        if (attempt >= cfg_.max_retries) return {t, ReqState::Error};
        ++retransmits_;
        sys_.trace.record(t, sim::TraceCat::Retry, src_pe, dst_pe, c, msg.tag, "mp-chunk");
        sys_.obs.spans.phase(span, t, obs::Phase::Retry, src_pe,
                             static_cast<std::uint64_t>(attempt) + 1);
        if (sched.numRoutes() > 1) {
          // Re-route: the retry is barred from the lost attempt's route,
          // so a chunk on a downed/lossy path moves to a surviving one
          // before the caller's host-staged fallback ever engages.
          exclude = pick;
          ++mp_reroutes_;
        }
        t += retryDelay(attempt);
        continue;
      }
      const char* kind = sched.route(pick).kind;
      const sim::Duration chunk_overhead =
          std::strcmp(kind, "rail") == 0
              ? sim::usec(cfg_.rndv_pipeline_overhead_us)
              : (std::strcmp(kind, "direct") == 0 ? 0
                                                  : sim::usec(mp.stage_chunk_overhead_us));
      const sim::TimePoint arrival = sched.commit(pick, t, c, chunk_overhead) + dec.delay;
      if (arrival > last) last = arrival;
      break;
    }
  }

  // Per-route accounting: one MultiPath/RailChunk span event per route that
  // carried bytes (aux = obs::packRouteBytes(route, bytes)), and the
  // registry byte counters by route kind.
  const std::vector<std::uint64_t>& per_route = sched.bytesPerRoute();
  std::size_t routes_used = 0;
  for (std::size_t r = 0; r < per_route.size(); ++r) {
    if (per_route[r] == 0) continue;
    ++routes_used;
    const char* kind = sched.route(r).kind;
    const bool rail = std::strcmp(kind, "rail") == 0;
    if (rail) {
      mp_bytes_rail_ += per_route[r];
    } else if (std::strcmp(kind, "direct") == 0) {
      mp_bytes_direct_ += per_route[r];
    } else {
      mp_bytes_staged_ += per_route[r];
    }
    sys_.obs.spans.phase(span, last, rail ? obs::Phase::RailChunk : obs::Phase::MultiPath,
                         src_pe, obs::packRouteBytes(static_cast<unsigned>(r), per_route[r]));
  }
  if (routes_used > 1) ++mp_splits_;
  return {last};
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

void Worker::dispatchMatch(PostedRecv r, Incoming msg) {
  sim::checkFits("ucx", msg.len, r.len);
  if (msg.is_rndv) {
    startRndvTransfer(std::move(r), std::move(msg));
  } else {
    completeRecvFromEager(std::move(r), std::move(msg));
  }
}

RequestPtr Worker::tagRecv(hw::MemRef buf, std::uint64_t len, Tag tag, Tag mask, CompletionFn cb,
                           int src_pe) {
  RequestPtr req = ctx_.makeRequest();
  req->completion = std::move(cb);
  req->peer_pe = src_pe;
  // The detector's rule (Context::sweepDeadPe) for a receive posted after
  // the announcement: one posted by a PE known dead ends at once, and so
  // does one whose named source is known dead, unless that source's message
  // is already here to match (its rendezvous then fails in faultedLeg).
  const sim::TimePoint now = ctx_.system().engine.now();
  if (ctx_.peerKnownDead(now, pe_)) {
    ctx_.endPeerFailed(*req, now, pe_, src_pe, len, tag);
    return req;
  }
  PostedRecv r{req, buf, len, tag, mask};

  // A hit in the unexpected store ends the early-arrival wait: the payload
  // got here before this receive was posted (the paper's limitation); the
  // span timeline records how long it sat queued.
  if (std::optional<Incoming> msg = matcher_.takeUnexpected(r)) {
    obs::SpanCollector& spans = ctx_.system().obs.spans;
    spans.phase(spans.spanForTag(msg->tag), now, obs::Phase::MatchedUnexpected, pe_, msg->len);
    dispatchMatch(std::move(r), std::move(*msg));
    return req;
  }
  if (src_pe >= 0 && ctx_.peerKnownDead(now, src_pe)) {
    ctx_.endPeerFailed(*req, now, pe_, src_pe, len, tag);
    return req;
  }
  matcher_.post(std::move(r));
  return req;
}

void Worker::setHandler(Tag tag, Tag mask, HandlerFn fn) {
  handlers_.push_back(std::make_unique<Handler>(Handler{tag, mask, std::move(fn)}));
}

void Worker::setBufferedHandler(Tag tag, Tag mask, BufferProvider fn) {
  buffered_handlers_.push_back(
      std::make_unique<BufferedHandler>(BufferedHandler{tag, mask, std::move(fn)}));
}

void Worker::noteDuplicateSuppressed(int src_pe, std::uint64_t len, Tag tag) {
  // Reliable-mode duplicate suppression: a retransmit racing a late
  // (jitter-delayed) original must not double-deliver. The decision is made
  // in Context::reliableTransmit off the shared WireState; this is the
  // receiver-side accounting for it.
  ++dups_suppressed_;
  hw::System& sys = ctx_.system();
  sys.trace.record(sys.engine.now(), sim::TraceCat::Drop, pe_, src_pe, len, tag, "duplicate");
}

void Worker::onArrival(Incoming msg) {
  obs::SpanCollector& spans = ctx_.system().obs.spans;
  const std::uint64_t arrival_span = spans.spanForTag(msg.tag);
  if (std::optional<PostedRecv> r = matcher_.takePosted(msg)) {
    spans.phase(arrival_span, ctx_.system().engine.now(), obs::Phase::MatchedPosted, pe_,
                msg.len);
    dispatchMatch(std::move(*r), std::move(msg));
    return;
  }
  // Active-message style: a buffered handler supplies the destination at
  // match time, so even rendezvous payloads start moving immediately — no
  // metadata wait, no unexpected queue (the paper's Sec. VI improvement).
  for (const auto& bh : buffered_handlers_) {
    if (!tagsMatch(msg.tag, bh->tag, bh->mask)) continue;
    auto [buf, cb] = bh->fn(msg.len, msg.tag, msg.src_pe);
    if (buf.ptr == nullptr && msg.len > 0) continue;  // declined
    PostedRecv r{ctx_.makeRequest(), buf, msg.len, msg.tag, kFullMask};
    r.req->completion = std::move(cb);
    dispatchMatch(std::move(r), std::move(msg));
    return;
  }
  for (const auto& h : handlers_) {
    if (tagsMatch(msg.tag, h->tag, h->mask)) {
      deliverToHandler(h->fn, std::move(msg));
      return;
    }
  }
  // No receive posted yet: the payload outran the metadata/post. This is
  // the early arrival the paper's totals hide — the matching tagRecv later
  // records MatchedUnexpected, closing the wait interval.
  spans.phase(arrival_span, ctx_.system().engine.now(), obs::Phase::EarlyArrival, pe_, msg.len);
  matcher_.pushUnexpected(std::move(msg));
}

void Worker::completeRecvFromEager(PostedRecv r, Incoming msg) {
  Context& ctx = ctx_;
  sim::Engine& engine = ctx.system().engine;
  sim::TimePoint t = engine.now() + sim::usec(ctx.config().recv_overhead_us);
  if (r.buf.isDevice()) t = ctx.stageDeviceEager(t, pe_, msg.len, /*egress=*/false);

  RequestPtr req = std::move(r.req);
  req->matched_tag = msg.tag;
  req->bytes = msg.len;
  req->peer_pe = msg.src_pe;
  // Capture the payload fields individually instead of the whole Incoming;
  // the completion itself stays in the request.
  engine.schedule(t, [this, req = std::move(req), buf = r.buf, payload = std::move(msg.payload),
                      payload_valid = msg.payload_valid]() mutable {
    hw::System& sys = ctx_.system();
    if (payload_valid) cuda::moveBytes(buf, hw::MemRef::host(payload.data()), payload.size());
    // The payload has been consumed: its storage goes back to the eager pool
    // so the steady-state path stops allocating per message.
    ctx_.recycleBuffer(std::move(payload));
    sys.trace.record(sys.engine.now(), sim::TraceCat::UcxRecv, pe_, req->peer_pe, req->bytes,
                     req->matched_tag, "eager");
    complete(*req, ReqState::Done);
  });
}

void Worker::startRndvTransfer(PostedRecv r, Incoming msg) {
  Context& ctx = ctx_;
  sim::Engine& engine = ctx.system().engine;
  const Context::RndvResult res = ctx.rndvTransfer(msg, pe_, r.buf);

  RequestPtr req = std::move(r.req);
  req->matched_tag = msg.tag;
  req->bytes = msg.len;
  req->peer_pe = msg.src_pe;

  if (!res.ok()) {
    // A rendezvous leg exhausted its retransmission budget or found a peer
    // known dead: end the receive with the state the leg decided (the
    // sender's end is already scheduled) instead of leaving it pending.
    if (res.end == ReqState::PeerFailed) ++ctx.peer_failed_reqs_;
    engine.schedule(res.data_arrival, [&sys = ctx.system(), req = std::move(req), pe = pe_,
                                       end = res.end] {
      sys.trace.record(sys.engine.now(), sim::TraceCat::UcxRecv, pe, req->peer_pe, req->bytes,
                       req->matched_tag, "rndv-failed");
      complete(*req, end);
    });
    return;
  }

  const sim::TimePoint done = res.data_arrival + sim::usec(ctx.config().recv_overhead_us);
  // An amSend-owned payload may carry fewer bytes than the wire length (the
  // rest travelled as length only); copy what it holds. `owner` keeps it
  // alive until this copy executes — the sender-side ATS completion may
  // already have fired by then.
  const std::uint64_t copy_len =
      msg.payload_owner ? std::min<std::uint64_t>(msg.len, msg.payload_owner->size()) : msg.len;
  engine.schedule(done, [&sys = ctx.system(), req = std::move(req), buf = r.buf, src = msg.src(),
                         copy_len, pe = pe_, owner = std::move(msg.payload_owner)] {
    cuda::moveBytes(buf, src, copy_len);
    sys.trace.record(sys.engine.now(), sim::TraceCat::UcxRecv, pe, req->peer_pe, req->bytes,
                     req->matched_tag, "rndv");
    complete(*req, ReqState::Done);
  });
}

void Worker::deliverToHandler(HandlerFn& fn, Incoming msg) {
  Context& ctx = ctx_;
  sim::Engine& engine = ctx.system().engine;
  HandlerFn* fp = &fn;  // handlers_ entries are stable for the worker's life
  if (!msg.is_rndv) {
    const sim::TimePoint t = engine.now() + sim::usec(ctx.config().recv_overhead_us);
    Delivery d;
    d.payload = std::move(msg.payload);
    d.payload_valid = msg.payload_valid;
    d.tag = msg.tag;
    d.src_pe = msg.src_pe;
    d.len = msg.len;
    engine.schedule(t, [fp, d = std::move(d)]() mutable { (*fp)(std::move(d)); });
    return;
  }
  // Rendezvous into a handler. An amSend-owned payload moves into the
  // Delivery when the receive completes — by then the receiver is its only
  // holder — so no second buffer is filled. A caller-anchored source is
  // pulled into a fresh owned buffer.
  const bool owned = msg.payload_owner != nullptr;
  const bool src_deref = owned || msg.src_backed;
  auto storage = owned ? std::move(msg.payload_owner) : std::make_shared<std::vector<std::byte>>();
  if (!owned && src_deref) storage->resize(msg.len);
  const Context::RndvResult res = ctx.rndvTransfer(
      msg, pe_, hw::MemRef::host(owned || storage->empty() ? nullptr : storage->data()));
  if (!res.ok()) return;  // transfer failed permanently; the sender ends with res.end
  const sim::TimePoint done = res.data_arrival + sim::usec(ctx.config().recv_overhead_us);
  engine.schedule(done, [fp, storage = std::move(storage), owned, src_deref, src = msg.src_ptr,
                         len = msg.len, tag = msg.tag, src_pe = msg.src_pe] {
    Delivery d;
    if (owned && storage.use_count() == 1) {
      d.payload = std::move(*storage);
    } else if (owned) {
      d.payload = *storage;  // still shared (a retransmit copy holds it): copy
    } else {
      if (src_deref && len > 0) std::memcpy(storage->data(), src, len);
      d.payload = std::move(*storage);
    }
    d.payload_valid = src_deref;
    d.tag = tag;
    d.src_pe = src_pe;
    d.len = len;
    (*fp)(std::move(d));
  });
}

}  // namespace cux::ucx
