#include "core/device_comm.hpp"

#include "hw/cuda.hpp"

namespace cux::core {

namespace {

/// Span kind label for the model that issued the transfer (static strings —
/// stored by pointer in SpanInfo).
[[nodiscard]] const char* spanKind(DeviceRecvType t) noexcept {
  switch (t) {
    case DeviceRecvType::Charm:
      return "charm";
    case DeviceRecvType::Ampi:
      return "ampi";
    case DeviceRecvType::Charm4py:
      return "charm4py";
    case DeviceRecvType::Raw:
      return "raw";
  }
  return "?";
}

}  // namespace

DeviceComm::DeviceComm(cmi::Converse& cmi)
    : cmi_(cmi), counters_(static_cast<std::size_t>(cmi.numPes()), 0) {
  obs::Observability& obs = cmi_.system().obs;
  send_bytes_hist_ = obs.registry.histogram("lrts.send_bytes");
  stats_provider_ = obs.addStatsProvider([this](obs::Registry& r) {
    r.setGauge("lrts.device_sends", device_sends_);
    r.setGauge("lrts.multipath_eligible", multipath_eligible_);
    r.setGauge("lrts.fallbacks", fallbacks_);
    r.setGauge("lrts.recv_reposts", recv_reposts_);
    r.setGauge("lrts.acks_lost", acks_lost_);
    r.setGauge("lrts.peer_failed_sends", peer_failed_sends_);
    r.setGauge("lrts.peer_failed_recvs", peer_failed_recvs_);
    r.setGauge("lrts.sends.charm", sendsByType(DeviceRecvType::Charm));
    r.setGauge("lrts.sends.ampi", sendsByType(DeviceRecvType::Ampi));
    r.setGauge("lrts.sends.charm4py", sendsByType(DeviceRecvType::Charm4py));
    r.setGauge("lrts.sends.raw", sendsByType(DeviceRecvType::Raw));
    r.setGauge("lrts.recvs.charm", recvsByType(DeviceRecvType::Charm));
    r.setGauge("lrts.recvs.ampi", recvsByType(DeviceRecvType::Ampi));
    r.setGauge("lrts.recvs.charm4py", recvsByType(DeviceRecvType::Charm4py));
    r.setGauge("lrts.recvs.raw", recvsByType(DeviceRecvType::Raw));
  });
}

DeviceComm::~DeviceComm() { cmi_.system().obs.removeStatsProvider(stats_provider_); }

void DeviceComm::failDeadRecv(int pe_id, const DeviceRdmaOp& op, DoneFn cb) {
  ++peer_failed_recvs_;
  hw::System& sys = cmi_.system();
  sys.trace.record(sys.engine.now(), sim::TraceCat::PeFail, pe_id,
                   static_cast<int>(cmi_.tags().peOf(op.tag)), op.size, op.tag,
                   "recv-peer-failed");
  // The model callback still runs: a matched-but-in-flight receive must
  // drain (the coroutine behind it would otherwise hang forever). The data
  // never arrived — survivors observe that through the model layer's
  // revocation/abort surface, not through this completion.
  erroredDrain(pe_id, op.tag, std::move(cb));
}

void DeviceComm::erroredDrain(int pe_id, std::uint64_t tag, DoneFn cb) {
  hw::System& sys = cmi_.system();
  sys.obs.spans.end(sys.obs.spans.spanForTag(tag), sys.engine.now(), obs::Phase::Errored, pe_id);
  runCallback(pe_id, std::move(cb));
}

void DeviceComm::runCallback(int pe_id, DoneFn cb) {
  if (cb) cmi_.pe(pe_id).exec(sim::usec(cmi_.costs().callback_us), std::move(cb));
}

void DeviceComm::issueSend(int src_pe, int dst_pe, hw::MemRef src, std::uint64_t size,
                           std::uint64_t tag, DoneFn on_complete) {
  hw::System& sys = cmi_.system();
  if (cmi_.ucx().peerKnownDead(sys.engine.now(), dst_pe)) {
    // The destination is already declared dead: every route blackholes, so
    // issuing the send would only burn wire time and retry budget. The
    // buffer is trivially safe to reuse (nothing will ever read it) —
    // complete the sender; the model layer observes the failure through the
    // detector's revocation path.
    ++peer_failed_sends_;
    sys.trace.record(sys.engine.now(), sim::TraceCat::PeFail, src_pe, dst_pe, size, tag,
                     "send-dead-dst");
    erroredDrain(src_pe, tag, std::move(on_complete));
    return;
  }
  if (sys.fault.linkDown(sys.engine.now(), src_pe, dst_pe)) {
    // The link is down right now: don't burn the retry budget on a path that
    // cannot deliver — degrade to the host-staged route immediately.
    startFallback(src_pe, dst_pe, src, size, tag, std::move(on_complete), "link-down");
    return;
  }
  sys.obs.spans.phase(sys.obs.spans.spanForTag(tag), sys.engine.now(), obs::Phase::PayloadSent,
                      src_pe, size);
  // The send request carries the destination, length and tag, so the
  // completion captures only what it lacks: the source and its class.
  auto done = [this, src_pe, src, cb = std::move(on_complete)](ucx::Request& r) mutable {
    const int dst_pe = r.peer_pe;
    const std::uint64_t size = r.bytes;
    const std::uint64_t tag = r.matched_tag;
    if (r.peerFailed() && !r.data_delivered) {
      // The detector blamed a dead endpoint: the host-staged fallback would
      // blackhole too. Close the span and complete the sender so its model
      // layer can drain.
      ++peer_failed_sends_;
      erroredDrain(src_pe, tag, std::move(cb));
      return;
    }
    if (r.failed() && !r.data_delivered) {
      startFallback(src_pe, dst_pe, src, size, tag, std::move(cb), "retries-exhausted");
      return;
    }
    // r.failed() with data_delivered: the rendezvous data landed and the
    // receiver completed Done — only the ATS was lost. The receive is
    // consumed, so a resend under this tag could never match: suppress the
    // fallback and complete normally.
    if (r.failed()) ++acks_lost_;
    runCallback(src_pe, std::move(cb));
  };
  static_assert(ucx::CompletionFn::fitsInline<decltype(done)>());
  cmi_.ucx().tagSend(src_pe, dst_pe, src, size, tag, std::move(done));
}

void DeviceComm::startFallback(int src_pe, int dst_pe, hw::MemRef src, std::uint64_t size,
                               std::uint64_t tag, DoneFn on_complete, const char* why) {
  ++fallbacks_;
  hw::System& sys = cmi_.system();
  sys.trace.record(sys.engine.now(), sim::TraceCat::Fallback, src_pe, dst_pe, size, tag, why);
  sys.obs.spans.phase(sys.obs.spans.spanForTag(tag), sys.engine.now(), obs::Phase::Fallback,
                      src_pe, size);
  // Graceful degradation: stage the device buffer to the host and resend as
  // a plain host message under the SAME tag, so the posted (or re-posted)
  // receive still matches — the transfer recovers, only the timing suffers.
  cmi_.ucx().tagSendHostStaged(
      src_pe, dst_pe, src, size, tag,
      [this, src_pe, dst_pe, size, tag, cb = std::move(on_complete)](ucx::Request& r) mutable {
        if (r.peerFailed() && !r.data_delivered) {
          // The peer died while the fallback was in flight. Unlike the
          // live-peer terminal failure below, withholding on_complete here
          // would hang the sender forever — the buffer is safe to reuse
          // (the dead PE will never read it), so complete and let the model
          // layer surface the failure through revocation.
          ++peer_failed_sends_;
          hw::System& sys = cmi_.system();
          sys.trace.record(sys.engine.now(), sim::TraceCat::PeFail, src_pe, dst_pe, size, tag,
                           "fallback-peer-failed");
          erroredDrain(src_pe, tag, std::move(cb));
          return;
        }
        if (r.failed() && !r.data_delivered) {
          // Even the degraded route died with the data undelivered. Withhold
          // on_complete — reporting a buffer as reusable/arrived when it
          // never moved would be a silent corruption; the drop is traced and
          // the engine drains instead of hanging in a retry loop.
          hw::System& sys = cmi_.system();
          sys.trace.record(sys.engine.now(), sim::TraceCat::Drop, src_pe, dst_pe, size, tag,
                           "fallback-failed");
          // Terminal even for the degraded route: the span can never
          // complete — close it as errored so no span is left orphaned.
          sys.obs.spans.end(sys.obs.spans.spanForTag(tag), sys.engine.now(),
                            obs::Phase::Errored, src_pe);
          return;
        }
        runCallback(src_pe, std::move(cb));
      });
}

void DeviceComm::lrtsSendDevice(int src_pe, int dst_pe, CmiDeviceBuffer& buf,
                                DoneFn on_complete, DeviceRecvType recv_type) {
  const TagScheme& tags = cmi_.tags();  // Converse checked that every PE fits PE_BITS
  auto& counter = counters_[static_cast<std::size_t>(src_pe)];
  const MsgType type = buf.src.isDevice() ? MsgType::Device : MsgType::ZcopyHost;
  buf.tag = tags.make(type, static_cast<std::uint64_t>(src_pe), counter);
  counter = (counter + 1) % tags.cntModulus();
  sendTagged(src_pe, dst_pe, buf, std::move(on_complete), recv_type, type);
}

void DeviceComm::lrtsSendDeviceUserTag(int src_pe, int dst_pe, CmiDeviceBuffer& buf,
                                       std::uint64_t user_tag, DoneFn on_complete,
                                       DeviceRecvType recv_type) {
  const TagScheme& tags = cmi_.tags();
  // The whole PE+CNT field carries the user tag; uniqueness is the caller's
  // contract (as it would be with MPI tags).
  buf.tag = tags.make(MsgType::DeviceUser, user_tag >> tags.cnt_bits, user_tag);
  sendTagged(src_pe, dst_pe, buf, std::move(on_complete), recv_type, MsgType::DeviceUser);
}

void DeviceComm::sendTagged(int src_pe, int dst_pe, const CmiDeviceBuffer& buf,
                            DoneFn on_complete, DeviceRecvType recv_type, MsgType type) {
  ++device_sends_;
  ++sends_by_type_[static_cast<std::size_t>(recv_type)];
  // Large device sends ride the multi-path scheduler's split protocol on
  // their rendezvous data leg when it is enabled; count them so the sweep
  // can correlate lrts traffic with ucx.mp.* scheduler activity.
  const ucx::UcxConfig::MultipathConfig& mp = cmi_.ucx().config().multipath;
  if (mp.enabled && buf.src.isDevice() && buf.size >= mp.min_split_bytes) ++multipath_eligible_;
  cmi_.system().obs.registry.observe(send_bytes_hist_, buf.size);

  // Span begins here: the machine layer mints the tag, so this is the first
  // point the whole lifecycle can be correlated. The model layers attach
  // their own phases afterwards through the tag (or the envelope-carried
  // span id on inline paths).
  const bool user_tag = type == MsgType::DeviceUser;
  obs::SpanCollector& spans = cmi_.system().obs.spans;
  if (spans.enabled()) {
    const sim::TimePoint now = cmi_.system().engine.now();
    const std::uint64_t span =
        spans.begin(now, src_pe, dst_pe, buf.size, user_tag ? "user-tag" : spanKind(recv_type));
    spans.bindTag(span, buf.tag);
    // The model layer ships the metadata message synchronously after this
    // call returns (same engine timestamp). User-tag receives are pre-posted
    // (before any span exists), so those spans have no metadata and no
    // RecvPosted/post-delay phase — by construction the scheme eliminates
    // it (paper Sec. VI).
    if (!user_tag && recv_type != DeviceRecvType::Raw) {
      spans.phase(span, now, obs::Phase::MetaSent, src_pe, buf.size);
    }
  }

  cmi_.system().trace.record(
      cmi_.system().engine.now(), sim::TraceCat::LrtsSend, src_pe, dst_pe, buf.size, buf.tag,
      user_tag ? "device-user-tag" : (type == MsgType::Device ? "device" : "zcopy-host"));
  // Machine-layer bookkeeping (tag generation, request allocation) is PE
  // time on the sender; the UCX send is issued once that work retires.
  // Zero-copy host sends additionally pin/register the user buffer.
  cmi::Pe& pe = cmi_.pe(src_pe);
  pe.charge(sim::usec(cmi_.costs().device_meta_send_us +
                      (type == MsgType::ZcopyHost ? cmi_.costs().zcopy_reg_us : 0.0)));
  const hw::MemRef src = buf.src;
  const std::uint64_t size = buf.size;
  const std::uint64_t tag = buf.tag;
  // Injected, not scheduled at pe.busyUntil(): in SMP mode injection
  // serialises through the node's comm thread, and a bypass would let
  // user-tag sends overtake regular device sends from the same PE.
  cmi_.inject(src_pe,
              [this, src_pe, dst_pe, src, size, tag, cb = std::move(on_complete)]() mutable {
                issueSend(src_pe, dst_pe, src, size, tag, std::move(cb));
              });
}

void DeviceComm::lrtsRecvDeviceUserTag(int pe_id, hw::MemRef dst, std::uint64_t size,
                                       std::uint64_t user_tag, DeviceRecvType type,
                                       DoneFn on_complete) {
  const TagScheme& tags = cmi_.tags();
  DeviceRdmaOp op;
  op.dst = dst;
  op.size = size;
  op.tag = tags.make(MsgType::DeviceUser, user_tag >> tags.cnt_bits, user_tag);
  lrtsRecvDevice(pe_id, op, type, std::move(on_complete));
}

void DeviceComm::lrtsRecvDevice(int pe_id, const DeviceRdmaOp& op, DeviceRecvType type,
                                DoneFn on_complete) {
  ++recvs_by_type_[static_cast<std::size_t>(type)];
  cmi_.system().trace.record(cmi_.system().engine.now(), sim::TraceCat::LrtsRecv, pe_id, -1,
                             op.size, op.tag, "");
  // The paper's delayed-receive limitation, now measurable: the gap between
  // the metadata's MetaArrived and this RecvPosted is the post-delay.
  obs::SpanCollector& spans = cmi_.system().obs.spans;
  spans.phase(spans.spanForTag(op.tag), cmi_.system().engine.now(), obs::Phase::RecvPosted,
              pe_id, op.size);
  cmi::Pe& pe = cmi_.pe(pe_id);
  pe.charge(sim::usec(cmi_.costs().device_meta_recv_us));
  postDeviceRecv(pe_id, op, std::move(on_complete));
}

void DeviceComm::drainOrphan(int pe_id, std::uint64_t bytes, std::uint64_t tag,
                             DeviceRecvType type) {
  cuda::HostBuffer sink(cmi_.system(), bytes);
  const DeviceRdmaOp op{sink.ref(), bytes, tag};
  lrtsRecvDevice(pe_id, op, type, [sink = std::move(sink)] {});
}

void DeviceComm::postDeviceRecv(int pe_id, const DeviceRdmaOp& op,
                                DoneFn on_complete) {
  // Receives post through inject(): in SMP mode the comm thread owns the
  // UCX worker, so posting from the worker PE would race (in ordering terms)
  // with the sends the comm thread serialises.
  cmi_.inject(pe_id, [this, pe_id, op, cb = std::move(on_complete)]() mutable {
    auto done = [this, posted = PostedOp(pe_id, op), cb = std::move(cb)](ucx::Request& r) mutable {
      const int pe_id = posted.pe;
      const DeviceRdmaOp op = posted.op();
      if (r.peerFailed()) {
        // UCX ended the receive because its source or its own PE is known
        // dead (unmatched at the announcement, posted after it, or a matched
        // rendezvous whose remaining legs can never finish). No fallback is
        // coming from a dead sender, so re-posting would hang; drain
        // instead.
        failDeadRecv(pe_id, op, std::move(cb));
        return;
      }
      if (r.failed()) {
        // A matched rendezvous exhausted its retry budget: the buffer was
        // never written, and the sender is degrading to the host-staged
        // route under the same tag. Re-post so the fallback can match —
        // completing here would report data that never arrived, and the
        // fallback message would rot in the unexpected queue. Each
        // re-post consumes one terminal failure, so this cannot spin.
        ++recv_reposts_;
        hw::System& sys = cmi_.system();
        sys.trace.record(sys.engine.now(), sim::TraceCat::Retry, pe_id, r.peer_pe, op.size,
                         op.tag, "recv-repost");
        sys.obs.spans.phase(sys.obs.spans.spanForTag(op.tag), sys.engine.now(),
                            obs::Phase::RecvRepost, pe_id, op.size);
        postDeviceRecv(pe_id, op, std::move(cb));
        return;
      }
      // Span terminal: data delivered at the machine layer (the model
      // layer's own callback cost comes after and is not part of the
      // wire lifecycle).
      hw::System& sys = cmi_.system();
      sys.obs.spans.end(sys.obs.spans.spanForTag(op.tag), sys.engine.now(),
                        obs::Phase::Completed, pe_id);
      runCallback(pe_id, std::move(cb));
    };
    static_assert(ucx::CompletionFn::fitsInline<decltype(done)>());
    // Device/ZcopyHost tags name their source PE, which UCX ends the receive
    // for if it dies; DeviceUser tags repurpose that field for the user
    // value, so their source is unknown here.
    const MsgType mt = cmi_.tags().typeOf(op.tag);
    const int src_pe = mt == MsgType::Device || mt == MsgType::ZcopyHost
                           ? static_cast<int>(cmi_.tags().peOf(op.tag))
                           : -1;
    cmi_.ucx().worker(pe_id).tagRecv(op.dst, op.size, op.tag, ucx::kFullMask, std::move(done),
                                     src_pe);
  });
}

}  // namespace cux::core
