#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ampi/ampi.hpp"
#include "apps/train/train.hpp"
#include "charm4py/charm4py.hpp"
#include "coll/c4p_group.hpp"
#include "coll/charm_section.hpp"
#include "coll/coll.hpp"
#include "model/model.hpp"
#include "sim/fault.hpp"
#include "ucx/context.hpp"

/// Fail-stop PE failures end to end: the heartbeat detector turns requests
/// against a dead PE terminal (never a hang), collectives with a failed
/// member abort on every survivor within the detection + retry budget on
/// all three stacks, and the training workload checkpoint/restarts to a
/// final model state bit-identical to an unfailed run. Transient outages (LinkDownWindow, including the
/// bidirectional helper) are recoverable by retransmission alone and must
/// not abort anything.

namespace {

using namespace cux;

struct StackFixture {
  explicit StackFixture(int nodes, sim::FaultConfig fault = {}) : m(model::summit(nodes)) {
    m.machine.fault = fault;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
};

// Device send/recv buffers, one pair per member; member r's send buffer
// holds 100*r + j.
struct MemberBufs {
  MemberBufs(hw::System& sys, const std::vector<int>& pes, std::uint64_t count) {
    for (std::size_t r = 0; r < pes.size(); ++r) {
      send.push_back(std::make_unique<cuda::DeviceBuffer>(sys, pes[r], count * 8));
      recv.push_back(std::make_unique<cuda::DeviceBuffer>(sys, pes[r], count * 8));
      auto* p = send.back()->as<double>();
      for (std::uint64_t j = 0; j < count; ++j) {
        p[j] = 100.0 * static_cast<double>(r) + static_cast<double>(j);
      }
    }
  }
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> send, recv;
};

template <class RankT>
sim::FutureTask memberTask(RankT r, std::function<sim::FutureTask(RankT&)> body,
                           std::shared_ptr<int> left, sim::Promise<void> all_done) {
  co_await body(r);
  if (--*left == 0) all_done.set();
}

sim::Future<void> runSection(coll::CharmSection& sec,
                             std::function<sim::FutureTask(coll::SectionRank&)> body) {
  auto left = std::make_shared<int>(sec.size());
  sim::Promise<void> done;
  for (int r = 0; r < sec.size(); ++r) {
    coll::SectionRank sr = sec.rank(r);
    sec.runtime().startOn(sec.peOf(r), [sr, body, left, done] {
      (void)memberTask(sr, body, left, done);
    });
  }
  return done.future();
}

sim::Future<void> runGroup(coll::C4pGroup& grp,
                           std::function<sim::FutureTask(coll::C4pRank&)> body) {
  auto left = std::make_shared<int>(grp.size());
  sim::Promise<void> done;
  for (int r = 0; r < grp.size(); ++r) {
    coll::C4pRank cr = grp.rank(r);
    grp.charm4py().startOn(grp.peOf(r), [cr, body, left, done] {
      (void)memberTask(cr, body, left, done);
    });
  }
  return done.future();
}

// A fault config whose only event is PE `pe` halting at `at_us`.
sim::FaultConfig killAt(int pe, double at_us) {
  sim::FaultConfig fc;
  fc.killPe(pe, sim::usec(at_us));
  return fc;
}

// --------------------------------------------------------------------------
// Detector: requests against a dead PE terminate, bounded by the
// detection horizon plus the retry budget — the engine always drains.
// (Context-only fixture: raw tagSend with a ck::Runtime registered would
// dispatch into the chare table.)
// --------------------------------------------------------------------------

struct CtxFixture {
  explicit CtxFixture(const sim::FaultConfig& fault) : m(model::summit(2)) {
    m.machine.fault = fault;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
};

TEST(FailstopDetect, RendezvousSendToDeadPeTurnsPeerFailedNotHang) {
  // The destination is dead before the RTS can land: every copy blackholes
  // at arrival, and the retry machinery — not an infinite resend loop —
  // must surface PeerFailed once the detector has blamed the dead endpoint.
  CtxFixture f(killAt(6, 0.0));
  std::vector<std::byte> src(64 * 1024);
  bool send_done = false;
  auto req = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), src.size(), 0x9,
                            [&](ucx::Request& r) {
                              send_done = true;
                              EXPECT_TRUE(r.failed());
                            });
  f.sys->engine.run();  // returning at all proves nothing hung
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(req->peerFailed());
  EXPECT_GE(f.ctx->peFailuresDetected(), 1u);
  EXPECT_GE(f.ctx->peerFailedRequests(), 1u);
}

TEST(FailstopDetect, DeadPesOwnInflightSendTerminates) {
  // The dying PE had an undelivered rendezvous send of its own in flight
  // (its link went down with it): the peerKnownDead check is src/dst
  // symmetric, so the dead side's request reaches a terminal state too and
  // nothing is parked forever.
  sim::FaultConfig fc = killAt(1, 20.0);
  fc.down_windows.push_back(sim::LinkDownWindow{0, sim::usec(5000.0), 1, 0});
  CtxFixture f(fc);
  std::vector<std::byte> src(64 * 1024);
  auto sreq = f.ctx->tagSend(1, 0, hw::MemRef::host(src.data()), src.size(), 0xB, {});
  f.sys->engine.run();
  EXPECT_TRUE(sreq->failed()) << "dead PE's own in-flight send must terminate";
  EXPECT_TRUE(sreq->peerFailed());
  EXPECT_GE(f.ctx->peFailuresDetected(), 1u);
}

TEST(FailstopDetect, RtsParkedAtPeThatDiesTurnsPeerFailed) {
  // The RTS lands at PE 6 before it dies and parks in its unexpected store:
  // no receive is ever posted, and the delivery stopped the RTS's retry
  // deadline, so only the detector announcement can end the sender.
  CtxFixture f(killAt(6, 50.0));
  std::vector<std::byte> src(64 * 1024);
  bool send_done = false;
  auto req = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), src.size(), 0x9,
                            [&](ucx::Request&) { send_done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(req->peerFailed());
  EXPECT_FALSE(req->data_delivered);
  EXPECT_EQ(f.ctx->peerFailedRequests(), 1u);
  EXPECT_EQ(f.ctx->worker(6).matchStats().unexpected, 0u);  // nothing left parked
}

TEST(FailstopDetect, AmpiDeviceSendToRankThatDiesUnreceivedCompletes) {
  // A live rank's device isend to a rank that dies before posting the
  // receive: the revoked world fails receives only, so the sender's request
  // ends through the machine layer's parked-RTS sweep, never a hang.
  StackFixture f(2, killAt(6, 50.0));
  constexpr std::uint64_t kBytes = 64 * 1024;
  cuda::DeviceBuffer src(*f.sys, 0, kBytes);
  ampi::World world(*f.rt, 7);  // rank r on PE r
  bool send_done = false;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() != 0) co_return;
    co_await r.isend(src.get(), kBytes, 6, 0);
    send_done = true;
    EXPECT_TRUE(r.aborted());
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "the device isend never completed";
  EXPECT_TRUE(send_done);
}

TEST(FailstopDetect, AmpiDeviceSendFromRankThatDiesUnreceivedCompletes) {
  // The mirror case: the sender dies after its RTS parked at a live rank
  // that never posted the receive. The announcement's sweep ends the dead
  // rank's send; the revoked world then orphans the envelope into a sink
  // receive, which matches the parked RTS and fails, so nothing stays
  // parked and the dead rank's coroutine reaches its end.
  StackFixture f(2, killAt(0, 50.0));
  constexpr std::uint64_t kBytes = 64 * 1024;
  cuda::DeviceBuffer src(*f.sys, 0, kBytes);
  ampi::World world(*f.rt, 7);  // rank r on PE r
  bool send_done = false;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() != 0) co_return;
    co_await r.isend(src.get(), kBytes, 6, 0);
    send_done = true;
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "the dead rank's device isend never completed";
  EXPECT_TRUE(send_done);
  EXPECT_EQ(f.ctx->worker(6).matchStats().unexpected, 0u);  // nothing left parked
}

sim::FutureTask channelSend(c4p::ChannelEnd* end, const void* buf, std::uint64_t n, bool* done) {
  co_await end->send(buf, n);
  *done = true;
}

TEST(FailstopDetect, Charm4pyDeviceSendFromPeThatDiesCompletes) {
  // The same mirror case on a Charm4py channel: UCX's sweep ends the dead
  // sender's device send; no receive on the channel ever posts for it.
  StackFixture f(2, killAt(0, 50.0));
  constexpr std::uint64_t kBytes = 64 * 1024;
  cuda::DeviceBuffer src(*f.sys, 0, kBytes);
  c4p::Charm4py py(*f.rt);
  const c4p::Channel ch = py.makeChannel(0, 6);
  bool send_done = false;
  py.startOn(0, [&] { (void)channelSend(ch.a, src.get(), kBytes, &send_done); });
  f.sys->engine.run();
  EXPECT_TRUE(send_done) << "the dead PE's channel send never completed";
  // The sender, and the receive that drained its orphaned envelope.
  EXPECT_EQ(f.ctx->peerFailedRequests(), 2u);
}

TEST(FailstopDetect, Charm4pyDeadChannelLeavesNoParkedRts) {
  // The dead channel orphans the envelope of PE 0's device send, whose RTS
  // is parked at live PE 6. The orphan drains through a sink receive that
  // takes the RTS out of PE 6's unexpected store, as AMPI's revoked world
  // does, instead of leaving it there until teardown.
  StackFixture f(2, killAt(0, 50.0));
  constexpr std::uint64_t kBytes = 64 * 1024;
  cuda::DeviceBuffer src(*f.sys, 0, kBytes);
  c4p::Charm4py py(*f.rt);
  const c4p::Channel ch = py.makeChannel(0, 6);
  bool send_done = false;
  py.startOn(0, [&] { (void)channelSend(ch.a, src.get(), kBytes, &send_done); });
  f.sys->engine.run();
  EXPECT_TRUE(send_done);
  EXPECT_EQ(f.ctx->worker(6).matchStats().unexpected, 0u);
}

TEST(FailstopDetect, RtsFromPeThatDiesTurnsPeerFailed) {
  // The RTS lands at live PE 6 and parks; its sender, PE 0, then dies. The
  // delivery stopped the RTS's retry deadline, so only the announcement can
  // end the sender. The RTS itself stays parked for a later receive.
  CtxFixture f(killAt(0, 50.0));
  std::vector<std::byte> src(64 * 1024);
  int send_calls = 0;
  auto req = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), src.size(), 0x9,
                            [&](ucx::Request&) { ++send_calls; });
  f.sys->engine.run();
  EXPECT_EQ(send_calls, 1);
  EXPECT_TRUE(req->peerFailed());
  EXPECT_FALSE(req->data_delivered);
  EXPECT_EQ(f.ctx->peerFailedRequests(), 1u);
}

TEST(FailstopDetect, RecvPostedAfterDetectionMatchesDeadSendersRtsAndFails) {
  // A raw receive posted after the announcement still matches the dead
  // sender's parked RTS; the rendezvous then fails where it finds the dead
  // PE. The receive ends PeerFailed: never Done (no data can come), never
  // pending.
  CtxFixture f(killAt(0, 50.0));
  std::vector<std::byte> src(64 * 1024);
  std::vector<std::byte> dst(64 * 1024);
  auto sreq = f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), src.size(), 0x9, {});
  f.sys->engine.run();
  ASSERT_TRUE(f.ctx->peerKnownDead(f.sys->engine.now(), 0));
  ASSERT_TRUE(sreq->peerFailed());
  int recv_calls = 0;
  auto rreq = f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), dst.size(), 0x9,
                                       ucx::kFullMask, [&](ucx::Request&) { ++recv_calls; });
  f.sys->engine.run();
  EXPECT_EQ(recv_calls, 1);
  EXPECT_EQ(rreq->state, ucx::ReqState::PeerFailed);
  EXPECT_EQ(f.ctx->worker(6).matchStats().unexpected, 0u);
  EXPECT_TRUE(sreq->peerFailed());  // the sender's end did not change
}

// --------------------------------------------------------------------------
// Kill-offset invariant: a PE 0 -> PE 6 device transfer, with PE 0 or PE 6
// dying at offsets from before the first byte to after the last. The
// receive is posted at 40 us, before any detection, or at 1200 us, after
// every one (detection lands failure_detect_us = 500 us after the death).
// Whatever the offset, every request ends exactly once, Done or PeerFailed,
// and the engine drains.
// --------------------------------------------------------------------------

enum class KillStack { Raw, Ampi };

struct KillCase {
  KillStack stack;
  bool dead_sender;
  std::uint64_t bytes;  ///< 4 KiB: device eager; 64 KiB: rendezvous
  double kill_us;
  double post_us;  ///< when PE 6 posts its receive
};

std::string killCaseName(const ::testing::TestParamInfo<KillCase>& i) {
  const KillCase& c = i.param;
  return std::string(c.stack == KillStack::Raw ? "raw" : "ampi") +
         (c.dead_sender ? "_deadSender_" : "_deadReceiver_") +
         (c.bytes <= 4096 ? "eager" : "rndv") + "_kill" +
         std::to_string(static_cast<int>(c.kill_us)) + "us_post" +
         std::to_string(static_cast<int>(c.post_us)) + "us";
}

std::vector<KillCase> killCases() {
  std::vector<KillCase> out;
  for (const KillStack stack : {KillStack::Raw, KillStack::Ampi}) {
    for (const bool dead_sender : {true, false}) {
      for (const std::uint64_t bytes : {std::uint64_t{4096}, std::uint64_t{64 * 1024}}) {
        for (const double at : {0.0, 5.0, 20.0, 50.0, 60.0, 200.0, 600.0}) {
          for (const double post : {40.0, 1200.0}) {
            out.push_back({stack, dead_sender, bytes, at, post});
          }
        }
      }
    }
  }
  return out;
}

class FailstopKillOffset : public ::testing::TestWithParam<KillCase> {};

TEST_P(FailstopKillOffset, EveryRequestEndsExactlyOnce) {
  const KillCase& c = GetParam();
  const sim::FaultConfig fault = killAt(c.dead_sender ? 0 : 6, c.kill_us);
  if (c.stack == KillStack::Raw) {
    CtxFixture f(fault);
    cuda::DeviceBuffer src(*f.sys, 0, c.bytes);
    cuda::DeviceBuffer dst(*f.sys, 6, c.bytes);
    int send_calls = 0;
    int recv_calls = 0;
    auto sreq = f.ctx->tagSend(0, 6, src.ref(), c.bytes, 0x9,
                               [&](ucx::Request&) { ++send_calls; });
    ucx::RequestPtr rreq;
    f.sys->engine.schedule(sim::usec(c.post_us), [&] {
      rreq = f.ctx->worker(6).tagRecv(dst.ref(), c.bytes, 0x9, ucx::kFullMask,
                                      [&](ucx::Request&) { ++recv_calls; }, /*src_pe=*/0);
    });
    f.sys->engine.run();
    EXPECT_TRUE(f.sys->engine.empty());
    EXPECT_EQ(f.sys->engine.pastClamped(), 0u);
    EXPECT_EQ(send_calls, 1);
    EXPECT_EQ(recv_calls, 1);
    ASSERT_TRUE(rreq);
    for (const ucx::Request* r : {sreq.get(), rreq.get()}) {
      EXPECT_TRUE(r->state == ucx::ReqState::Done || r->state == ucx::ReqState::PeerFailed)
          << "state " << static_cast<int>(r->state);
    }
    EXPECT_EQ(f.ctx->matchStats().posted, 0u);
    return;
  }
  StackFixture f(2, fault);
  cuda::DeviceBuffer src(*f.sys, 0, c.bytes);
  cuda::DeviceBuffer dst(*f.sys, 6, c.bytes);
  ampi::World world(*f.rt, 7);  // rank r on PE r
  sim::Promise<void> post_gate;
  f.sys->engine.schedule(sim::usec(c.post_us), [post_gate] { post_gate.set(); });
  int send_ends = 0;
  int recv_ends = 0;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      co_await r.isend(src.get(), c.bytes, 6, 0);
      ++send_ends;
    } else if (r.rank() == 6) {
      co_await post_gate.future();
      co_await r.irecv(dst.get(), c.bytes, 0, 0);
      ++recv_ends;
    }
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "a rank never finished";
  EXPECT_TRUE(f.sys->engine.empty());
  EXPECT_EQ(f.sys->engine.pastClamped(), 0u);
  EXPECT_EQ(send_ends, 1);
  EXPECT_EQ(recv_ends, 1);
  EXPECT_EQ(f.ctx->matchStats().posted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Offsets, FailstopKillOffset, ::testing::ValuesIn(killCases()),
                         killCaseName);

// --------------------------------------------------------------------------
// FaultConfig::bidirectionalOutage covers both directions of the pair.
// --------------------------------------------------------------------------

TEST(FailstopOutage, BidirectionalOutageDropsBothDirectionsDuringWindow) {
  sim::FaultInjector inj;
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.bidirectionalOutage(sim::usec(100.0), sim::usec(200.0), 2, 5);
  inj.configure(cfg);
  EXPECT_FALSE(inj.linkDown(sim::usec(99.0), 2, 5));
  EXPECT_TRUE(inj.linkDown(sim::usec(150.0), 2, 5));
  EXPECT_TRUE(inj.linkDown(sim::usec(150.0), 5, 2));  // reverse leg too
  EXPECT_FALSE(inj.linkDown(sim::usec(200.0), 2, 5));  // half-open interval
  EXPECT_FALSE(inj.linkDown(sim::usec(150.0), 2, 4));  // other pairs untouched
  EXPECT_FALSE(inj.linkDown(sim::usec(150.0), 4, 2));
}

// --------------------------------------------------------------------------
// Collectives under a transient bidirectional outage: retransmission alone
// recovers — correct sums, no abort — on all three stacks.
// --------------------------------------------------------------------------

void expectSum(const MemberBufs& bufs, int n, std::uint64_t count, const char* what) {
  for (int r = 0; r < n; ++r) {
    const auto* p = bufs.recv[static_cast<std::size_t>(r)]->as<double>();
    for (std::uint64_t j = 0; j < count; j += 61) {
      const double expected =
          100.0 * (n * (n - 1) / 2) + static_cast<double>(n) * static_cast<double>(j);
      ASSERT_DOUBLE_EQ(p[j], expected) << what << ": member " << r << " element " << j;
    }
  }
}

sim::FaultConfig outage23() {
  sim::FaultConfig fc;
  fc.enabled = true;
  // Both directions of the PE2<->PE3 link dead for 100 us mid-collective;
  // well under the retry budget, so retransmits recover without aborting.
  fc.bidirectionalOutage(sim::usec(20.0), sim::usec(120.0), 2, 3);
  return fc;
}

TEST(FailstopOutage, AmpiAllreduceRidesOutLinkOutage) {
  StackFixture f(2, outage23());
  const int n = 8;
  const std::uint64_t count = 4096;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, count);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  ampi::World world(*f.rt, n);
  bool any_abort = false;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
    any_abort |= r.aborted();
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "allreduce under outage deadlocked";
  EXPECT_FALSE(any_abort) << "transient outage must not revoke the communicator";
  expectSum(bufs, n, count, "ampi@outage");
}

TEST(FailstopOutage, SectionAllreduceRidesOutLinkOutage) {
  StackFixture f(2, outage23());
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint64_t count = 4096;
  MemberBufs bufs(*f.sys, pes, count);
  coll::CharmSection sec(*f.rt, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  auto done = runSection(sec, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "section allreduce under outage deadlocked";
  EXPECT_FALSE(sec.aborted());
  expectSum(bufs, static_cast<int>(pes.size()), count, "section@outage");
}

TEST(FailstopOutage, Charm4pyAllreduceRidesOutLinkOutage) {
  StackFixture f(2, outage23());
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::uint64_t count = 4096;
  MemberBufs bufs(*f.sys, pes, count);
  c4p::Charm4py py(*f.rt);
  coll::C4pGroup grp(py, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  auto done = runGroup(grp, [&](coll::C4pRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "charm4py allreduce under outage deadlocked";
  EXPECT_FALSE(grp.aborted());
  expectSum(bufs, static_cast<int>(pes.size()), count, "charm4py@outage");
}

// --------------------------------------------------------------------------
// A collective with a failed member aborts on every survivor — bounded by
// the detector, never a hang. Recovery is checkpoint/restart (FailstopTrain).
// --------------------------------------------------------------------------

constexpr int kDeadRank = 3;  // member (and PE) killed mid-collective
// Large enough that the allreduce is still in flight when detection lands
// (~500 us after the 50 us kill).
constexpr std::uint64_t kBigCount = 256 * 1024;

coll::CollConfig ringConfig() {
  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 64 * 1024;
  return cfg;
}

TEST(FailstopAbort, AmpiAllreduceAbortsOnSurvivors) {
  const int n = 8;
  StackFixture f(2, killAt(kDeadRank, 50.0));
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, kBigCount);

  const coll::CollConfig cfg = ringConfig();
  ampi::World world(*f.rt, n);
  std::vector<char> survivor_aborted(static_cast<std::size_t>(n), 0);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
    if (r.rank() != kDeadRank) survivor_aborted[me] = r.aborted() ? 1 : 0;
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "fail-stop run deadlocked";
  for (int r = 0; r < n; ++r) {
    if (r == kDeadRank) continue;
    EXPECT_EQ(survivor_aborted[static_cast<std::size_t>(r)], 1)
        << "survivor " << r << " never observed the abort";
  }
  EXPECT_GE(f.sys->obs.registry.counterValue("coll.aborted"), 1u);
}

TEST(FailstopAbort, SectionAllreduceAborts) {
  StackFixture f(2, killAt(kDeadRank, 50.0));
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  MemberBufs bufs(*f.sys, pes, kBigCount);
  coll::CharmSection sec(*f.rt, pes);

  const coll::CollConfig cfg = ringConfig();
  auto done = runSection(sec, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "section fail-stop run deadlocked";
  EXPECT_TRUE(sec.aborted()) << "section never observed the member failure";
  EXPECT_GE(f.sys->obs.registry.counterValue("coll.aborted"), 1u);
}

TEST(FailstopAbort, Charm4pyGroupAllreduceAborts) {
  StackFixture f(2, killAt(kDeadRank, 50.0));
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5, 6, 7};
  MemberBufs bufs(*f.sys, pes, kBigCount);
  c4p::Charm4py py(*f.rt);
  coll::C4pGroup grp(py, pes);

  const coll::CollConfig cfg = ringConfig();
  auto done = runGroup(grp, [&](coll::C4pRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "charm4py fail-stop run deadlocked";
  EXPECT_TRUE(grp.aborted()) << "group never observed the member failure";
  EXPECT_GE(f.sys->obs.registry.counterValue("coll.aborted"), 1u);
}

// --------------------------------------------------------------------------
// Recovery metrics reach the registry.
// --------------------------------------------------------------------------

TEST(FailstopMetrics, RegistryExposesDetectionAndAbortCounters) {
  StackFixture f(2, killAt(kDeadRank, 50.0));
  const int n = 8;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, kBigCount);

  const coll::CollConfig cfg = ringConfig();
  ampi::World world(*f.rt, n);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), kBigCount,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready());

  f.sys->obs.refresh();
  const obs::Registry& reg = f.sys->obs.registry;
  EXPECT_GE(reg.gaugeValue("ucx.pe_failures_detected"), 1u);
  EXPECT_GE(reg.gaugeValue("ucx.peer_failed_reqs"), 1u);
  EXPECT_GE(reg.counterValue("coll.aborted"), 1u);
  EXPECT_GE(reg.gaugeValue("ampi.revoked_comms"), 1u);
}

// --------------------------------------------------------------------------
// Training: lose a PE mid-step, restart from the checkpoint, finish with a
// final model state bit-identical to the unfailed run — on all three stacks.
// --------------------------------------------------------------------------

train::TrainConfig smallTrainConfig() {
  train::TrainConfig cfg;
  cfg.nodes = 2;
  cfg.ranks = 8;
  cfg.steps = 3;
  cfg.layer_params = {16 * 1024, 64 * 1024, 128 * 1024, 128 * 1024, 64 * 1024, 16 * 1024};
  cfg.bucket_bytes = 1024 * 1024;
  return cfg;
}

class FailstopTrain : public ::testing::TestWithParam<train::Stack> {};

TEST_P(FailstopTrain, CheckpointRestartReproducesUnfailedDigest) {
  const train::TrainConfig cfg = smallTrainConfig();
  const train::TrainResult base = train::runTrain(cfg, GetParam());
  ASSERT_FALSE(base.failed);
  ASSERT_TRUE(base.verified);
  EXPECT_EQ(base.restarts, 0);
  EXPECT_EQ(base.hung_ranks, 0);
  ASSERT_NE(base.model_digest, 0u);

  train::TrainConfig fcfg = cfg;
  fcfg.fault.kill_pe = 1;
  fcfg.fault.kill_at_us = base.total_us * 0.4;  // mid-run, collectives in flight
  const train::TrainResult rec = train::runTrain(fcfg, GetParam());
  ASSERT_FALSE(rec.failed) << "recovery exhausted its restart budget";
  EXPECT_TRUE(rec.recovered) << "the injected failure never hit";
  EXPECT_GE(rec.restarts, 1);
  EXPECT_EQ(rec.completed_steps, cfg.steps);
  EXPECT_EQ(rec.hung_ranks, 0) << "a rank neither finished nor took the abort exit";
  EXPECT_TRUE(rec.verified);
  EXPECT_EQ(rec.model_digest, base.model_digest)
      << "recovered model diverged from the unfailed run";
  // Lost work means the recovered job cannot have been cheaper.
  EXPECT_GT(rec.total_us, base.total_us);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, FailstopTrain,
                         ::testing::Values(train::Stack::Ampi, train::Stack::Charm,
                                           train::Stack::Charm4py),
                         [](const ::testing::TestParamInfo<train::Stack>& i) {
                           switch (i.param) {
                             case train::Stack::Ampi: return "ampi";
                             case train::Stack::Charm: return "charm";
                             case train::Stack::Charm4py: return "charm4py";
                           }
                           return "unknown";
                         });

// --------------------------------------------------------------------------
// Gate hygiene: a fault config whose knobs are loaded but whose master
// switch is off must produce a schedule bit-identical to no config at all —
// the failure machinery may not perturb healthy runs.
// --------------------------------------------------------------------------

std::uint64_t tracedRunHash(const sim::FaultConfig& fault) {
  StackFixture f(2, fault);
  f.sys->trace.enable();
  const int n = 8;
  const std::uint64_t count = 8192;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, count);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 16 * 1024;
  ampi::World world(*f.rt, n);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  EXPECT_TRUE(world.done().ready());
  return f.sys->trace.hash();
}

TEST(FailstopGate, DisabledFaultConfigLeavesScheduleBitIdentical) {
  sim::FaultConfig loaded;
  loaded.killPe(3, sim::usec(50.0));
  loaded.bidirectionalOutage(sim::usec(20.0), sim::usec(120.0), 2, 3);
  loaded.enabled = false;  // knobs armed, master switch off
  const std::uint64_t off = tracedRunHash({});
  EXPECT_EQ(tracedRunHash(loaded), off)
      << "disabled failure machinery changed the event schedule";
  EXPECT_EQ(tracedRunHash({}), off) << "baseline run is nondeterministic";
}

}  // namespace
