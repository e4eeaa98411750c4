#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "ampi/ampi.hpp"
#include "charm4py/charm4py.hpp"
#include "coll/c4p_group.hpp"
#include "coll/charm_section.hpp"
#include "coll/coll.hpp"
#include "model/model.hpp"
#include "retain_sink.hpp"
#include "ucx/context.hpp"

/// Cross-stack collective tests: Charm++ array sections and Charm4py channel
/// groups running the same pipelined algorithms as AMPI, bitwise agreement
/// of the pipelined implementations with the Reference oracles, behaviour
/// under 10% message loss, and observability that never perturbs the
/// schedule.

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

// Device send/recv buffers, one pair per member, placed on the member's PE.
// Member r's send buffer holds 100*r + j.
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

// ---------------------------------------------------------------------------
// Drivers: run one coroutine per member on its PE and await all of them.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Charm++ array-section collectives (PE subsets need not be contiguous).
// ---------------------------------------------------------------------------

TEST(SectionColl, RingAllreduceOnNonContiguousPeSubset) {
  StackFixture f(2);  // 12 PEs
  const std::vector<int> pes = {1, 3, 4, 6, 8, 10};  // 6 members, non-pow2
  const std::uint64_t count = 24 * 1024;
  MemberBufs bufs(*f.sys, pes, count);
  coll::CharmSection sec(*f.rt, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 32 * 1024;
  auto done = runSection(sec, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "section allreduce deadlocked";

  const int n = static_cast<int>(pes.size());
  for (std::size_t r = 0; r < pes.size(); ++r) {
    const auto* p = bufs.recv[r]->as<double>();
    for (std::uint64_t j = 0; j < count; j += 97) {
      const double expected =
          100.0 * (n * (n - 1) / 2) + static_cast<double>(n) * static_cast<double>(j);
      ASSERT_DOUBLE_EQ(p[j], expected) << "member " << r << " element " << j;
    }
  }
}

TEST(SectionColl, TreeBcastFromNonzeroRoot) {
  StackFixture f(2);
  const std::vector<int> pes = {2, 3, 5, 7, 8, 9, 11};  // 7 members
  const std::uint64_t count = 16 * 1024;
  MemberBufs bufs(*f.sys, pes, count);
  coll::CharmSection sec(*f.rt, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Tree;
  cfg.chunk_bytes = 16 * 1024;
  const int root = 2;
  auto done = runSection(sec, [&](coll::SectionRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::bcast(r, bufs.send[me]->get(), count * 8, root, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "section bcast deadlocked";

  for (std::size_t r = 0; r < pes.size(); ++r) {
    const auto* p = bufs.send[r]->as<double>();
    EXPECT_DOUBLE_EQ(p[0], 100.0 * root) << "member " << r;
    EXPECT_DOUBLE_EQ(p[count - 1], 100.0 * root + static_cast<double>(count - 1))
        << "member " << r;
  }
}

// ---------------------------------------------------------------------------
// Charm4py channel-group collectives.
// ---------------------------------------------------------------------------

TEST(C4pColl, RingAllreduceMatchesAnalyticSum) {
  StackFixture f(2);
  const std::vector<int> pes = {0, 1, 2, 3, 4, 5};
  const std::uint64_t count = 16 * 1024;
  MemberBufs bufs(*f.sys, pes, count);
  c4p::Charm4py py(*f.rt);
  coll::C4pGroup grp(py, pes);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 32 * 1024;
  auto done = runGroup(grp, [&](coll::C4pRank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(done.ready()) << "charm4py allreduce deadlocked";

  const int n = static_cast<int>(pes.size());
  for (std::size_t r = 0; r < pes.size(); ++r) {
    const auto* p = bufs.recv[r]->as<double>();
    for (std::uint64_t j = 0; j < count; j += 89) {
      const double expected =
          100.0 * (n * (n - 1) / 2) + static_cast<double>(n) * static_cast<double>(j);
      ASSERT_DOUBLE_EQ(p[j], expected) << "member " << r << " element " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipelined vs Reference: bitwise agreement, power-of-two and not.
// ---------------------------------------------------------------------------

// Runs an AMPI allreduce with the given impl on a fresh machine and returns
// every rank's result. Inputs are integer-valued doubles, so every reduction
// order produces the identical bit pattern.
std::vector<std::vector<double>> ampiAllreduce(int nranks, std::uint64_t count,
                                               coll::CollImpl impl) {
  StackFixture f((nranks + 5) / 6);
  std::vector<int> pes;
  for (int r = 0; r < nranks; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, count);

  coll::CollConfig cfg;
  cfg.impl = impl;
  cfg.chunk_bytes = 16 * 1024;
  ampi::World world(*f.rt, nranks);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  EXPECT_TRUE(world.done().ready()) << "allreduce deadlocked, impl " << coll::name(impl);

  std::vector<std::vector<double>> out;
  for (int r = 0; r < nranks; ++r) {
    const auto* p = bufs.recv[static_cast<std::size_t>(r)]->as<double>();
    out.emplace_back(p, p + count);
  }
  return out;
}

TEST(CollCrossCheck, PipelinedMatchesReferenceBitExactly) {
  const std::uint64_t count = 12 * 1024;
  for (const int n : {6, 8, 12, 18}) {
    const auto ref = ampiAllreduce(n, count, coll::CollImpl::Reference);
    for (const auto impl : {coll::CollImpl::Ring, coll::CollImpl::Tree}) {
      const auto got = ampiAllreduce(n, count, impl);
      ASSERT_EQ(got.size(), ref.size());
      for (int r = 0; r < n; ++r) {
        const auto& a = got[static_cast<std::size_t>(r)];
        const auto& b = ref[static_cast<std::size_t>(r)];
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), count * 8))
            << "impl " << coll::name(impl) << " diverges from reference at n=" << n
            << " rank " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 10% uniform message loss: the per-(step, chunk) tag discipline keeps the
// pipelined collectives correct under retransmit reordering, on all stacks.
// ---------------------------------------------------------------------------

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

TEST(CollFault, AmpiAllreduceSurvivesTenPercentLoss) {
  StackFixture f(2, sim::FaultConfig::uniformLoss(0.10, 0xC011));
  const int n = 8;
  const std::uint64_t count = 4096;
  std::vector<int> pes;
  for (int r = 0; r < n; ++r) pes.push_back(r);
  MemberBufs bufs(*f.sys, pes, count);

  coll::CollConfig cfg;
  cfg.impl = coll::CollImpl::Ring;
  cfg.chunk_bytes = 8 * 1024;
  ampi::World world(*f.rt, n);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    const auto me = static_cast<std::size_t>(r.rank());
    co_await coll::allreduce(r, bufs.send[me]->get(), bufs.recv[me]->get(), count,
                             coll::Op::Sum, coll::kCollTagBase, cfg);
  });
  f.sys->engine.run();
  ASSERT_TRUE(world.done().ready()) << "allreduce under loss deadlocked";
  expectSum(bufs, n, count, "ampi@10%loss");
}

TEST(CollFault, SectionAllreduceSurvivesTenPercentLoss) {
  StackFixture f(2, sim::FaultConfig::uniformLoss(0.10, 0x5EC7));
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
  ASSERT_TRUE(done.ready()) << "section allreduce under loss deadlocked";
  expectSum(bufs, static_cast<int>(pes.size()), count, "section@10%loss");
}

TEST(CollFault, Charm4pyAllreduceSurvivesTenPercentLoss) {
  StackFixture f(2, sim::FaultConfig::uniformLoss(0.10, 0xC49));
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
  ASSERT_TRUE(done.ready()) << "charm4py allreduce under loss deadlocked";
  expectSum(bufs, static_cast<int>(pes.size()), count, "charm4py@10%loss");
}

// ---------------------------------------------------------------------------
// Observability must be a pure observer: enabling span collection cannot
// change a single event in the schedule (trace hash is order-sensitive).
// ---------------------------------------------------------------------------

std::uint64_t tracedAllreduceHash(bool obs_on, std::uint64_t* spans_begun = nullptr) {
  test::RetainSink retain;  // outlives the machine that feeds it
  StackFixture f(2);
  f.sys->trace.enable();
  if (obs_on) f.sys->obs.spans.enableStreaming({}, &retain);

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

  if (obs_on) {
    const obs::SpanCollector& sc = f.sys->obs.spans;
    if (spans_begun != nullptr) *spans_begun = sc.begun();
    // The collective minted spans with pipeline phases.
    bool saw_coll = false, saw_chunk = false, saw_reduce = false;
    for (const test::RetainSink::Span& s : retain.spans) {
      saw_coll |= std::string_view(s.info.kind) == "coll.allreduce";
      for (const obs::SpanEvent& e : s.events) {
        saw_chunk |= e.phase == obs::Phase::CollChunk;
        saw_reduce |= e.phase == obs::Phase::CollReduce;
      }
    }
    EXPECT_TRUE(saw_coll) << "no coll.allreduce span minted";
    EXPECT_TRUE(saw_chunk) << "no CollChunk phase recorded";
    EXPECT_TRUE(saw_reduce) << "no CollReduce phase recorded";
  }
  return f.sys->trace.hash();
}

TEST(CollTraceHash, ObsSpansDoNotPerturbTheSchedule) {
  const std::uint64_t h_off = tracedAllreduceHash(false);
  std::uint64_t begun_a = 0, begun_b = 0;
  const std::uint64_t h_on_a = tracedAllreduceHash(true, &begun_a);
  const std::uint64_t h_on_b = tracedAllreduceHash(true, &begun_b);
  EXPECT_EQ(h_off, h_on_a) << "span collection changed the event schedule";
  EXPECT_EQ(h_on_a, h_on_b) << "collective run is nondeterministic";
  EXPECT_GT(begun_a, 0u);
  EXPECT_EQ(begun_a, begun_b) << "span minting is nondeterministic";
}

}  // namespace
