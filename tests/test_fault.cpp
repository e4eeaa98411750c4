#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "apps/jacobi/jacobi.hpp"
#include "apps/osu/osu.hpp"
#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "trace_sink.hpp"
#include "ucx/context.hpp"

/// Fault injection and the retry/fallback reliability layer.
///
/// The deterministic injector lets these tests assert *exact* counter values
/// for engineered fault patterns (certain loss, link flaps, over-eager
/// retransmission), and fixed seeds make the probabilistic runs (10% loss
/// through the full Charm++/AMPI/Charm4py stacks) reproducible.

namespace {

using namespace cux;

struct FaultFixture {
  explicit FaultFixture(const sim::FaultConfig& fault, int nodes = 2, int max_retries = -1,
                        double retry_base_us = -1.0, double failure_detect_us = -1.0)
      : m(model::summit(nodes)) {
    m.machine.fault = fault;
    if (max_retries >= 0) m.ucx.max_retries = max_retries;
    if (retry_base_us > 0) m.ucx.retry_base_us = retry_base_us;
    if (failure_detect_us > 0) m.ucx.failure_detect_us = failure_detect_us;
    sys = std::make_unique<hw::System>(m.machine);
    sys->trace.enable(&trace);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    cmi = std::make_unique<cmi::Converse>(*sys, *ctx, m.costs);
    dev = std::make_unique<core::DeviceComm>(*cmi);
  }
  model::Model m;
  test::TraceSink trace;  ///< outlives the machine that feeds it
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<cmi::Converse> cmi;
  std::unique_ptr<core::DeviceComm> dev;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  sim::SplitMix64 rng(seed);
  rng.fill(v.data(), n);
  return v;
}

// --------------------------------------------------------------------------
// FaultInjector unit behaviour
// --------------------------------------------------------------------------

TEST(FaultInjector, DisabledMakesNoDecisionsAndNeverDrops) {
  sim::FaultInjector inj;
  sim::FaultConfig cfg;  // enabled == false, but knobs configured
  cfg.setAllClasses(sim::FaultPolicy{1.0, 100.0});
  cfg.down_windows.push_back(sim::LinkDownWindow{0, sim::sec(1.0), -1, -1});
  inj.configure(cfg);
  for (int i = 0; i < 100; ++i) {
    const auto d = inj.decide(static_cast<sim::TimePoint>(i), sim::MsgClass::Eager, 0, 1);
    EXPECT_FALSE(d.drop);
    EXPECT_EQ(d.delay, 0u);
  }
  EXPECT_EQ(inj.decisions(), 0u);
  EXPECT_EQ(inj.dropsInjected(), 0u);
}

TEST(FaultInjector, CertainDropDropsEveryMessageOfItsClassOnly) {
  sim::FaultInjector inj;
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.policy[static_cast<std::size_t>(sim::MsgClass::RndvData)].drop_prob = 1.0;
  inj.configure(cfg);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.decide(0, sim::MsgClass::RndvData, 0, 1).drop);
    EXPECT_FALSE(inj.decide(0, sim::MsgClass::Eager, 0, 1).drop);
  }
  EXPECT_EQ(inj.decisions(), 100u);
  EXPECT_EQ(inj.dropsInjected(), 50u);
}

TEST(FaultInjector, DropRateConvergesToConfiguredProbability) {
  sim::FaultInjector inj;
  inj.configure(sim::FaultConfig::uniformLoss(0.1, 99));
  int drops = 0;
  for (int i = 0; i < 10000; ++i) {
    if (inj.decide(0, sim::MsgClass::Am, 0, 1).drop) ++drops;
  }
  EXPECT_GT(drops, 800);
  EXPECT_LT(drops, 1200);
}

TEST(FaultInjector, LinkDownWindowsAreDirectionalAndTimeBounded) {
  sim::FaultInjector inj;
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.down_windows.push_back(sim::LinkDownWindow{100, 200, 0, 6});   // 0 -> 6 only
  cfg.down_windows.push_back(sim::LinkDownWindow{300, 400, -1, 2});  // anyone -> 2
  inj.configure(cfg);
  EXPECT_FALSE(inj.linkDown(99, 0, 6));
  EXPECT_TRUE(inj.linkDown(100, 0, 6));
  EXPECT_TRUE(inj.linkDown(199, 0, 6));
  EXPECT_FALSE(inj.linkDown(200, 0, 6));  // half-open interval
  EXPECT_FALSE(inj.linkDown(150, 6, 0));  // reverse direction unaffected
  EXPECT_TRUE(inj.linkDown(350, 5, 2));   // wildcard source
  EXPECT_FALSE(inj.linkDown(350, 2, 5));
  // Messages during the window are dropped without consuming randomness.
  EXPECT_TRUE(inj.decide(150, sim::MsgClass::Eager, 0, 6).drop);
}

TEST(FaultInjector, SameSeedSameDecisionStream) {
  sim::FaultInjector a, b;
  a.configure(sim::FaultConfig::uniformLoss(0.3, 1234));
  b.configure(sim::FaultConfig::uniformLoss(0.3, 1234));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.decide(0, sim::MsgClass::Eager, 0, 1).drop,
              b.decide(0, sim::MsgClass::Eager, 0, 1).drop);
  }
}

// --------------------------------------------------------------------------
// Retry state machine (exact, engineered fault patterns)
// --------------------------------------------------------------------------

TEST(FaultRetry, ExhaustionSurfacesErrorWithExactCounters) {
  // Certain loss, max_retries = 2: exactly 3 attempts (original + 2), all
  // dropped, then ReqState::Error through the completion callback. Nothing
  // hangs: the engine drains with the receive still pending.
  FaultFixture f(sim::FaultConfig::uniformLoss(1.0, 7), 2, /*max_retries=*/2);
  auto src = pattern(64, 1);
  std::vector<std::byte> dst(64);
  bool recv_done = false;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 64, 0x1, ucx::kFullMask,
                           [&](ucx::Request&) { recv_done = true; });
  int send_completions = 0;
  auto req = f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, 0x1, [&](ucx::Request& r) {
    ++send_completions;
    EXPECT_TRUE(r.failed());
  });
  f.sys->engine.run();
  EXPECT_EQ(send_completions, 1);
  EXPECT_TRUE(req->failed());
  EXPECT_FALSE(recv_done);
  EXPECT_EQ(f.sys->fault.decisions(), 3u);
  EXPECT_EQ(f.sys->fault.dropsInjected(), 3u);
  EXPECT_EQ(f.ctx->retransmits(), 2u);
  EXPECT_EQ(f.ctx->sendErrors(), 1u);
  EXPECT_EQ(f.trace.count(sim::TraceCat::Retry), 2u);
}

TEST(FaultRetry, PartialLossRecoversWithRetransmissions) {
  // 30% loss, default retry budget: every message must still arrive intact
  // (failure needs 6 consecutive losses, p ~ 7e-4 per message; the fixed
  // seed makes the outcome reproducible either way, and this seed passes).
  FaultFixture f(sim::FaultConfig::uniformLoss(0.3, 0xBEEF));
  constexpr int kMsgs = 20;
  std::vector<std::vector<std::byte>> srcs, dsts;
  int done = 0;
  for (int i = 0; i < kMsgs; ++i) {
    srcs.push_back(pattern(256, 100 + static_cast<std::uint64_t>(i)));
    dsts.emplace_back(256);
  }
  for (int i = 0; i < kMsgs; ++i) {
    const auto tag = static_cast<ucx::Tag>(i);
    const int dst_pe = (i % 2 == 0) ? 1 : 6;  // intra- and inter-node
    f.ctx->worker(dst_pe).tagRecv(hw::MemRef::host(dsts[static_cast<std::size_t>(i)].data()), 256,
                                  tag, ucx::kFullMask, [&](ucx::Request& r) {
                                    EXPECT_TRUE(r.done());
                                    ++done;
                                  });
    f.ctx->tagSend(0, dst_pe, hw::MemRef::host(srcs[static_cast<std::size_t>(i)].data()), 256, tag,
                   {});
  }
  f.sys->engine.run();
  EXPECT_EQ(done, kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(dsts[static_cast<std::size_t>(i)], srcs[static_cast<std::size_t>(i)]) << i;
  }
  // At 30% loss over 20+ wire messages, some retransmissions must happen.
  EXPECT_GT(f.ctx->retransmits(), 0u);
  EXPECT_EQ(f.ctx->sendErrors(), 0u);
}

TEST(FaultRetry, DuplicatesFromOverEagerRetransmitAreSuppressed) {
  // No loss at all, but a retry deadline (1 ns) far below the wire flight
  // time: every attempt is retransmitted, all max_retries + 1 copies arrive,
  // and the receiver's sequence filter must keep exactly one.
  sim::FaultConfig fc;
  fc.enabled = true;  // zero drop probability, zero jitter
  FaultFixture f(fc, 2, /*max_retries=*/5, /*retry_base_us=*/0.001);
  auto src = pattern(128, 3);
  std::vector<std::byte> dst(128);
  int recv_completions = 0;
  f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), 128, 0x2, ucx::kFullMask,
                           [&](ucx::Request&) { ++recv_completions; });
  auto req = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), 128, 0x2, {});
  f.sys->engine.run();
  EXPECT_EQ(recv_completions, 1);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.ctx->retransmits(), 5u);
  EXPECT_EQ(f.ctx->worker(6).duplicatesSuppressed(), 5u);
  EXPECT_EQ(f.ctx->duplicatesSuppressed(), 5u);
  // All deadlines fired before the first copy landed, so the sender
  // (spuriously but safely) reported Error — exactly once.
  EXPECT_TRUE(req->failed());
  EXPECT_EQ(f.ctx->sendErrors(), 1u);
}

TEST(FaultRetry, UnexpectedQueueStaysBoundedUnderDuplicateStorm) {
  // Same over-eager retransmit setup, but nothing is posted: every copy
  // lands in the unexpected queue. Without the dedup filter the queue would
  // hold (max_retries + 1) * kMsgs entries; with it, at most kMsgs.
  sim::FaultConfig fc;
  fc.enabled = true;
  FaultFixture f(fc, 2, /*max_retries=*/5, /*retry_base_us=*/0.001);
  constexpr int kMsgs = 16;
  // A tag-type nibble no runtime registers a handler for, so unmatched
  // arrivals queue as unexpected instead of dispatching into Converse.
  constexpr ucx::Tag kRawType = ucx::Tag{0xF} << 60;
  std::vector<std::vector<std::byte>> srcs;
  for (int i = 0; i < kMsgs; ++i) {
    srcs.push_back(pattern(64, 40 + static_cast<std::uint64_t>(i)));
    f.ctx->tagSend(0, 6, hw::MemRef::host(srcs.back().data()), 64,
                   kRawType | static_cast<ucx::Tag>(0x50 + i), {});
  }
  f.sys->engine.run();
  EXPECT_EQ(f.ctx->worker(6).matchStats().unexpected, static_cast<std::size_t>(kMsgs));
  EXPECT_LE(f.ctx->worker(6).matchStats().unexpected_hwm, static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(f.ctx->worker(6).duplicatesSuppressed(), 5u * kMsgs);
  // Late receives still drain the queue correctly.
  std::vector<std::byte> dst(64);
  bool got = false;
  f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), 64, kRawType | 0x50, ucx::kFullMask,
                           [&](ucx::Request&) { got = true; });
  f.sys->engine.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(dst, srcs[0]);
}

TEST(FaultRetry, JitterDelaysDeliveryWithoutLoss) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.setAllClasses(sim::FaultPolicy{0.0, 30.0});  // jitter only
  FaultFixture f(fc);
  auto src = pattern(64, 5);
  std::vector<std::byte> dst(64);
  bool done = false;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 64, 0x3, ucx::kFullMask,
                           [&](ucx::Request&) { done = true; });
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, 0x3, {});
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(dst, src);
  EXPECT_GE(f.sys->fault.delaysInjected(), 1u);
  EXPECT_EQ(f.ctx->sendErrors(), 0u);
}

TEST(FaultRetry, LinkFlapRecoversByRetransmittingPastTheWindow) {
  // Link 0 -> 6 down for the first 120 us. Attempt 0 (~0.3 us) and attempt 1
  // (~50 us) fall inside the window and are dropped without consuming
  // randomness; attempt 2 (~150 us) goes through.
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.down_windows.push_back(sim::LinkDownWindow{0, sim::usec(120.0), 0, 6});
  FaultFixture f(fc);
  auto src = pattern(64, 6);
  std::vector<std::byte> dst(64);
  bool done = false;
  f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), 64, 0x4, ucx::kFullMask,
                           [&](ucx::Request&) { done = true; });
  auto req = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), 64, 0x4, {});
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(req->done());
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.ctx->retransmits(), 2u);
  EXPECT_EQ(f.sys->fault.dropsInjected(), 2u);
  EXPECT_GT(f.sys->now(), sim::usec(120.0));
}

TEST(FaultRetry, RendezvousDataLossFailsBothSidesTerminally) {
  // Kill the rendezvous data leg outright: the sender must complete with
  // Error AND the matched receive must fail too — neither side hangs.
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.policy[static_cast<std::size_t>(sim::MsgClass::RndvData)].drop_prob = 1.0;
  FaultFixture f(fc, 2, /*max_retries=*/2, /*retry_base_us=*/5.0);
  auto src = pattern(64 * 1024, 8);  // > host_eager_threshold: rendezvous
  std::vector<std::byte> dst(64 * 1024);
  bool recv_completed = false;
  ucx::RequestPtr recv_req;
  recv_req = f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), dst.size(), 0x5, ucx::kFullMask,
                                      [&](ucx::Request& r) {
                                        recv_completed = true;
                                        EXPECT_TRUE(r.failed());
                                      });
  bool send_completed = false;
  auto req = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), src.size(), 0x5,
                            [&](ucx::Request& r) {
                              send_completed = true;
                              EXPECT_TRUE(r.failed());
                            });
  f.sys->engine.run();
  EXPECT_TRUE(send_completed);
  EXPECT_TRUE(recv_completed);
  EXPECT_TRUE(req->failed());
  EXPECT_TRUE(recv_req->failed());
  EXPECT_GE(f.ctx->sendErrors(), 1u);
}

// --------------------------------------------------------------------------
// DeviceComm graceful degradation
// --------------------------------------------------------------------------

TEST(FaultFallback, DeviceRndvExhaustionFallsBackToHostStagedEager) {
  // 8 KB device buffer: above device_eager_threshold (4 KB) so the GPU-aware
  // path goes rendezvous — whose control leg we kill — but at the
  // host_eager_threshold (8 KB), so the host-staged fallback ships it as a
  // clean eager message. The pre-posted receive matches either route (same
  // tag), so the transfer recovers with the data intact.
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.policy[static_cast<std::size_t>(sim::MsgClass::RndvCtrl)].drop_prob = 1.0;
  FaultFixture f(fc, 2, /*max_retries=*/1, /*retry_base_us=*/5.0);
  cuda::DeviceBuffer src(*f.sys, 0, 8192, true), dst(*f.sys, 6, 8192, true);
  const auto ref = pattern(8192, 9);
  std::memcpy(src.get(), ref.data(), ref.size());

  core::CmiDeviceBuffer buf{src.ref(), 8192, 0};
  bool sent = false, recvd = false;
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 6, buf, [&] { sent = true; }, core::DeviceRecvType::Charm);
    f.cmi->runOn(6, [&] {
      f.dev->lrtsRecvDevice(6, core::DeviceRdmaOp{dst.ref(), 8192, buf.tag},
                            core::DeviceRecvType::Charm, [&] { recvd = true; });
    });
  });
  f.sys->engine.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(recvd);
  EXPECT_EQ(f.dev->fallbacks(), 1u);
  EXPECT_EQ(f.trace.count(sim::TraceCat::Fallback), 1u);
  EXPECT_EQ(std::memcmp(dst.get(), ref.data(), ref.size()), 0);
}

TEST(FaultFallback, LinkDownAtIssueTimeSkipsStraightToFallback) {
  // The outage covers the issue instant, so issueSend degrades immediately
  // instead of burning the retry budget; the fallback's own eager attempts
  // retransmit past the end of the window and deliver.
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.down_windows.push_back(sim::LinkDownWindow{0, sim::usec(100.0), 0, 6});
  FaultFixture f(fc);
  cuda::DeviceBuffer src(*f.sys, 0, 2048, true), dst(*f.sys, 6, 2048, true);
  const auto ref = pattern(2048, 10);
  std::memcpy(src.get(), ref.data(), ref.size());

  core::CmiDeviceBuffer buf{src.ref(), 2048, 0};
  bool sent = false, recvd = false;
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 6, buf, [&] { sent = true; }, core::DeviceRecvType::Ampi);
    f.cmi->runOn(6, [&] {
      f.dev->lrtsRecvDevice(6, core::DeviceRdmaOp{dst.ref(), 2048, buf.tag},
                            core::DeviceRecvType::Ampi, [&] { recvd = true; });
    });
  });
  f.sys->engine.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(recvd);
  EXPECT_EQ(f.dev->fallbacks(), 1u);
  EXPECT_EQ(std::memcmp(dst.get(), ref.data(), ref.size()), 0);
  EXPECT_EQ(f.dev->sendsByType(core::DeviceRecvType::Ampi), 1u);
  EXPECT_EQ(f.dev->recvsByType(core::DeviceRecvType::Ampi), 1u);
}

TEST(FaultFallback, MatchedRndvExhaustionRepostsReceiveAndRecovers) {
  // Kill only the rendezvous *data* leg: the RTS is delivered, the posted
  // receive matches, then the transfer fails terminally on both sides. The
  // receiver must NOT report completion (its buffer was never written) —
  // it re-posts under the same tag so the sender's host-staged fallback
  // still finds a match, and on_complete fires only when the data has
  // actually arrived.
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.policy[static_cast<std::size_t>(sim::MsgClass::RndvData)].drop_prob = 1.0;
  FaultFixture f(fc, 2, /*max_retries=*/1, /*retry_base_us=*/5.0);
  cuda::DeviceBuffer src(*f.sys, 0, 8192, true), dst(*f.sys, 6, 8192, true);
  const auto ref = pattern(8192, 12);
  std::memcpy(src.get(), ref.data(), ref.size());

  core::CmiDeviceBuffer buf{src.ref(), 8192, 0};
  int sent = 0, recvd = 0;
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 6, buf, [&] { ++sent; }, core::DeviceRecvType::Charm);
    f.cmi->runOn(6, [&] {
      f.dev->lrtsRecvDevice(6, core::DeviceRdmaOp{dst.ref(), 8192, buf.tag},
                            core::DeviceRecvType::Charm, [&] { ++recvd; });
    });
  });
  f.sys->engine.run();
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(recvd, 1);
  EXPECT_EQ(f.dev->fallbacks(), 1u);
  EXPECT_EQ(f.dev->recvReposts(), 1u);
  EXPECT_EQ(f.dev->acksLost(), 0u);
  // The recovered data is intact, and the fallback message did not rot in
  // the unexpected queue (it matched the re-posted receive).
  EXPECT_EQ(std::memcmp(dst.get(), ref.data(), ref.size()), 0);
  EXPECT_EQ(f.ctx->worker(6).matchStats().unexpected, 0u);
}

TEST(FaultFallback, AtsLossCompletesSendWithoutSpuriousResend) {
  // Intra-node device rendezvous with the receiver->sender direction dead:
  // the data leg (direct NVLink pull) succeeds and the receiver completes
  // Done, but every ATS attempt is lost — the sender sees ReqState::Error
  // with data_delivered set. The receive is already consumed, so a fallback
  // resend could never match again: DeviceComm must suppress it (no leaked
  // unexpected-queue entry, no double-charged bandwidth) and complete.
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.down_windows.push_back(sim::LinkDownWindow{0, sim::sec(1.0), 1, 0});
  FaultFixture f(fc, 2, /*max_retries=*/2, /*retry_base_us=*/5.0);
  cuda::DeviceBuffer src(*f.sys, 0, 8192, true), dst(*f.sys, 1, 8192, true);
  const auto ref = pattern(8192, 13);
  std::memcpy(src.get(), ref.data(), ref.size());

  core::CmiDeviceBuffer buf{src.ref(), 8192, 0};
  int sent = 0, recvd = 0;
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 1, buf, [&] { ++sent; }, core::DeviceRecvType::Charm);
    f.cmi->runOn(1, [&] {
      f.dev->lrtsRecvDevice(1, core::DeviceRdmaOp{dst.ref(), 8192, buf.tag},
                            core::DeviceRecvType::Charm, [&] { ++recvd; });
    });
  });
  f.sys->engine.run();
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(recvd, 1);
  EXPECT_EQ(std::memcmp(dst.get(), ref.data(), ref.size()), 0);
  EXPECT_EQ(f.dev->acksLost(), 1u);
  EXPECT_EQ(f.dev->fallbacks(), 0u);
  EXPECT_EQ(f.dev->recvReposts(), 0u);
  EXPECT_GE(f.ctx->sendErrors(), 1u);
  EXPECT_EQ(f.ctx->worker(1).matchStats().unexpected, 0u);
}

TEST(FaultFallback, UserTagPrePostedPathSurvivesLoss) {
  // The user-tag improvement pre-posts the receive before any metadata
  // exchange; under 10% uniform loss the transfer must still complete and
  // verify (retries recover lost legs; the pre-posted receive is oblivious).
  FaultFixture f(sim::FaultConfig::uniformLoss(0.1, 0xCAFE));
  cuda::DeviceBuffer src(*f.sys, 0, 32768, true), dst(*f.sys, 6, 32768, true);
  const auto ref = pattern(32768, 11);
  std::memcpy(src.get(), ref.data(), ref.size());

  bool sent = false, recvd = false;
  f.cmi->runOn(6, [&] {
    f.dev->lrtsRecvDeviceUserTag(6, dst.ref(), 32768, 0x77, core::DeviceRecvType::Charm4py,
                                 [&] { recvd = true; });
    f.cmi->runOn(0, [&] {
      core::CmiDeviceBuffer buf{src.ref(), 32768, 0};
      f.dev->lrtsSendDeviceUserTag(0, 6, buf, 0x77, [&] { sent = true; },
                                   core::DeviceRecvType::Charm4py);
    });
  });
  f.sys->engine.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(recvd);
  EXPECT_EQ(std::memcmp(dst.get(), ref.data(), ref.size()), 0);
}

// --------------------------------------------------------------------------
// Determinism of faulty timelines
// --------------------------------------------------------------------------

std::uint64_t faultyTimelineHash(std::uint64_t seed) {
  FaultFixture f(sim::FaultConfig::uniformLoss(0.2, seed));
  std::vector<std::vector<std::byte>> srcs, dsts;
  for (int i = 0; i < 12; ++i) {
    srcs.push_back(pattern(1024, static_cast<std::uint64_t>(i)));
    dsts.emplace_back(1024);
    const auto tag = static_cast<ucx::Tag>(0x30 + i);
    const int dst_pe = (i % 3 == 0) ? 6 : 1;
    f.ctx->worker(dst_pe).tagRecv(hw::MemRef::host(dsts.back().data()), 1024, tag, ucx::kFullMask,
                                  {});
    f.ctx->tagSend(0, dst_pe, hw::MemRef::host(srcs.back().data()), 1024, tag, {});
  }
  f.sys->engine.run();
  return f.sys->trace.hash();
}

TEST(FaultDeterminism, SameSeedSameTimelineDifferentSeedDifferentTimeline) {
  EXPECT_EQ(faultyTimelineHash(21), faultyTimelineHash(21));
  EXPECT_NE(faultyTimelineHash(21), faultyTimelineHash(22));
}

// --------------------------------------------------------------------------
// Exactly-once completion
// --------------------------------------------------------------------------

TEST(FaultExactlyOnce, EveryCompletionFiresOnceUnderLossAndPeDeath) {
  // Every request owns its completion and reaches its terminal state through
  // one helper, whatever races it: retransmits arriving after their retry
  // deadline (jitter far above the backoff), a rendezvous RTS declared
  // exhausted while a late copy still starts the transfer and its ATS, and
  // a PE dying with traffic in flight.
  sim::FaultConfig fc = sim::FaultConfig::uniformLoss(0.3, 0x0DD5);
  fc.setAllClasses(sim::FaultPolicy{0.3, 40.0});
  fc.killPe(7, sim::usec(10.0));
  FaultFixture f(fc, 2, /*max_retries=*/4, /*retry_base_us=*/4.0, /*failure_detect_us=*/20.0);
  constexpr ucx::Tag kTaggedType = ucx::Tag{0xF} << 60;
  constexpr ucx::Tag kAmType = ucx::Tag{0xE} << 60;
  constexpr ucx::Tag kTypeMask = ucx::Tag{0xF} << 60;
  constexpr std::size_t kSmall = 256;        // eager
  constexpr std::size_t kLarge = 64 * 1024;  // rendezvous
  const int dsts[] = {1, 6, 7};

  struct Op {
    ucx::RequestPtr send, recv;
    int send_calls = 0, recv_calls = 0;
    ucx::ReqState send_seen = ucx::ReqState::Pending, recv_seen = ucx::ReqState::Pending;
    bool rndv = false;
  };
  std::vector<std::unique_ptr<Op>> tagged, am;
  std::vector<std::vector<std::byte>> bufs;
  bufs.reserve(400);
  std::vector<int> am_deliveries;
  for (int pe : dsts) {
    f.ctx->worker(pe).setHandler(kAmType, kTypeMask, [&am_deliveries](ucx::Delivery d) {
      ++am_deliveries[static_cast<std::size_t>(d.tag & 0xFFFF)];
    });
  }
  for (int i = 0; i < 60; ++i) {
    const int dst = dsts[i % 3];
    const bool rndv = (i / 3) % 2 == 1;
    const std::size_t n = rndv ? kLarge : kSmall;
    // Tagged send + posted receive.
    auto op = std::make_unique<Op>();
    op->rndv = rndv;
    bufs.push_back(pattern(n, 500 + static_cast<std::uint64_t>(i)));
    const void* src = bufs.back().data();
    bufs.emplace_back(n);
    void* dbuf = bufs.back().data();
    const ucx::Tag tag = kTaggedType | static_cast<ucx::Tag>(i);
    Op* o = op.get();
    op->recv = f.ctx->worker(dst).tagRecv(hw::MemRef::host(dbuf), n, tag, ucx::kFullMask,
                                          [o](ucx::Request& r) {
                                            ++o->recv_calls;
                                            o->recv_seen = r.state;
                                          });
    op->send = f.ctx->tagSend(0, dst, hw::MemRef::host(src), n, tag, [o](ucx::Request& r) {
      ++o->send_calls;
      o->send_seen = r.state;
    });
    tagged.push_back(std::move(op));
    // Active message with an owned payload.
    auto a = std::make_unique<Op>();
    a->rndv = rndv;
    Op* ao = a.get();
    am_deliveries.push_back(0);
    a->send = f.ctx->amSend(0, dst, kAmType | static_cast<ucx::Tag>(i), pattern(n, 900 + i), 0,
                            [ao](ucx::Request& r) {
                              ++ao->send_calls;
                              ao->send_seen = r.state;
                            });
    am.push_back(std::move(a));
  }
  f.sys->engine.run();

  int rts_ats_races = 0;
  // A terminal state, once reported, never changes afterwards.
  for (const auto& op : tagged) {
    EXPECT_EQ(op->send_calls, 1);
    EXPECT_NE(op->send->state, ucx::ReqState::Pending);
    EXPECT_EQ(op->send->state, op->send_seen);
    EXPECT_LE(op->recv_calls, 1);
    EXPECT_EQ(op->recv_calls == 1, op->recv->state != ucx::ReqState::Pending);
    EXPECT_EQ(op->recv->state, op->recv_seen);
    // Delivered data always completes the matching receive.
    if (op->send->done()) {
      EXPECT_EQ(op->recv_calls, 1);
    }
    // The sender gave up on its RTS while a late copy still moved the data.
    if (op->rndv && op->send->failed() && op->recv->done()) ++rts_ats_races;
  }
  for (std::size_t i = 0; i < am.size(); ++i) {
    EXPECT_EQ(am[i]->send_calls, 1) << "AM " << i;
    EXPECT_NE(am[i]->send->state, ucx::ReqState::Pending);
    EXPECT_EQ(am[i]->send->state, am[i]->send_seen) << "AM " << i;
    EXPECT_LE(am_deliveries[i], 1) << "AM " << i;
  }
  EXPECT_GT(rts_ats_races, 0);
  EXPECT_GT(f.ctx->retransmits(), 0u);
  EXPECT_GT(f.ctx->peerFailedRequests(), 0u);
  EXPECT_GT(f.ctx->duplicatesSuppressed(), 0u);
}

// --------------------------------------------------------------------------
// Full application stacks under loss
// --------------------------------------------------------------------------

class FaultStack : public ::testing::TestWithParam<osu::Stack> {};

TEST_P(FaultStack, OsuPingPongCompletesAt10PercentLoss) {
  osu::BenchConfig clean;
  clean.stack = GetParam();
  clean.mode = osu::Mode::Device;
  clean.place = osu::Placement::InterNode;
  clean.iters = 10;
  clean.warmup = 2;
  osu::BenchConfig faulty = clean;
  faulty.model.machine.fault = sim::FaultConfig::uniformLoss(0.1, 0xFA11);

  const double base_us = osu::latencyPoint(clean, 4096);
  const double lossy_us = osu::latencyPoint(faulty, 4096);
  // Completion (a hang would drain the engine early and report 0), and loss
  // can only cost time, never save it.
  ASSERT_GT(base_us, 0.0);
  ASSERT_GT(lossy_us, 0.0);
  EXPECT_GE(lossy_us, base_us);
}

TEST_P(FaultStack, JacobiVerifiesAt10PercentLoss) {
  jacobi::JacobiConfig cfg;
  cfg.stack = GetParam();
  cfg.mode = jacobi::Mode::Device;
  cfg.nodes = 2;
  cfg.grid = {24, 12, 6};  // 12 blocks: inter-node halos
  cfg.iters = 2;
  cfg.warmup = 0;
  cfg.backed = true;
  cfg.model.machine.fault = sim::FaultConfig::uniformLoss(0.1, 0x1ACB);

  const auto got = jacobi::runJacobiVerified(cfg);
  const auto ref = jacobi::referenceJacobi(cfg.grid, cfg.iters);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], ref[i]) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Stacks, FaultStack,
                         ::testing::Values(osu::Stack::Charm, osu::Stack::Ampi,
                                           osu::Stack::Charm4py),
                         [](const ::testing::TestParamInfo<osu::Stack>& info) {
                           switch (info.param) {
                             case osu::Stack::Charm: return "Charm";
                             case osu::Stack::Ampi: return "Ampi";
                             case osu::Stack::Charm4py: return "Charm4py";
                             default: return "Other";
                           }
                         });

}  // namespace
