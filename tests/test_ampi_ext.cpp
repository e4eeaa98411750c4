#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ampi/ampi.hpp"
#include "coll/coll.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

/// sendrecv, iprobe, comm-scoped collectives through CommRank, and UCX probe.

namespace {

using namespace cux;

struct Fixture {
  explicit Fixture(int nodes = 2, int nranks = -1) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
    world = std::make_unique<ampi::World>(*rt, nranks);
  }
  void runAll(std::function<sim::FutureTask(ampi::Rank&)> main) {
    world->run(std::move(main));
    sys->engine.run();
    ASSERT_TRUE(world->done().ready()) << "deadlock";
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<ampi::World> world;
};

TEST(AmpiSendrecv, PairwiseExchangeNoDeadlock) {
  Fixture f(1);
  std::vector<int> got(6, -1);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    const int partner = r.rank() ^ 1;  // 0<->1, 2<->3, 4<->5
    int mine = 100 + r.rank();
    int theirs = -1;
    co_await r.sendrecv(&mine, sizeof mine, partner, 0, &theirs, sizeof theirs, partner, 0);
    got[static_cast<std::size_t>(r.rank())] = theirs;
  });
  for (int i = 0; i < 6; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 100 + (i ^ 1));
}

TEST(AmpiSendrecv, RingShiftWithDeviceBuffers) {
  Fixture f(1);
  const std::size_t n = 64 * 1024;
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> bufs, in;
  for (int i = 0; i < 6; ++i) {
    bufs.push_back(std::make_unique<cuda::DeviceBuffer>(*f.sys, i, n));
    in.push_back(std::make_unique<cuda::DeviceBuffer>(*f.sys, i, n));
    std::memset(bufs.back()->get(), i + 1, n);
  }
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    const int next = (r.rank() + 1) % 6;
    const int prev = (r.rank() + 5) % 6;
    co_await r.sendrecv(bufs[static_cast<std::size_t>(r.rank())]->get(), n, next, 1,
                        in[static_cast<std::size_t>(r.rank())]->get(), n, prev, 1);
  });
  for (int i = 0; i < 6; ++i) {
    const auto expected = static_cast<unsigned char>((i + 5) % 6 + 1);
    EXPECT_EQ(static_cast<unsigned char*>(in[static_cast<std::size_t>(i)]->get())[0], expected);
  }
}

TEST(AmpiIprobe, SeesPendingUnexpectedMessage) {
  Fixture f(1);
  bool saw_before = true, saw_after = false;
  ampi::Status probed;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      int v = 7;
      co_await r.send(&v, sizeof v, 1, 55);
    } else if (r.rank() == 1) {
      saw_before = r.iprobe(0, 55).has_value();  // nothing arrived yet
      co_await sim::delay(r.system().engine, sim::msec(1));
      auto st = r.iprobe(0, 55);
      saw_after = st.has_value();
      if (st) probed = *st;
      int got = 0;
      co_await r.recv(&got, sizeof got, 0, 55);
      // After the receive, the message is gone.
      EXPECT_FALSE(r.iprobe(0, 55).has_value());
    }
  });
  EXPECT_FALSE(saw_before);
  EXPECT_TRUE(saw_after);
  EXPECT_EQ(probed.source, 0);
  EXPECT_EQ(probed.tag, 55);
  EXPECT_EQ(probed.bytes, sizeof(int));
}

TEST(AmpiIprobe, WildcardsMatch) {
  Fixture f(1);
  bool found = false;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 3) {
      int v = 1;
      co_await r.send(&v, sizeof v, 0, 9);
    } else if (r.rank() == 0) {
      co_await sim::delay(r.system().engine, sim::msec(1));
      found = r.iprobe(ampi::kAnySource, ampi::kAnyTag).has_value();
      int got = 0;
      co_await r.recv(&got, sizeof got, ampi::kAnySource, ampi::kAnyTag);
    }
  });
  EXPECT_TRUE(found);
}

TEST(AmpiCommRank, CollectivesOverSubCommunicator) {
  // Allreduce over the odd-ranks communicator only, through the CommRank
  // adapter; even ranks never participate.
  Fixture f(2);
  std::vector<double> results(12, -1.0);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    ampi::Comm sub = co_await r.split(r.commWorld(), r.rank() % 2, r.rank());
    if (r.rank() % 2 == 1) {
      ampi::CommRank cr(r, sub);
      double mine = static_cast<double>(r.rank());
      double out = 0;
      co_await coll::allreduce(cr, &mine, &out, 1, coll::Op::Sum);
      results[static_cast<std::size_t>(r.rank())] = out;
    }
  });
  // odd world ranks: 1+3+5+7+9+11 = 36
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 1) {
      EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(i)], 36.0) << i;
    } else {
      EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(i)], -1.0) << i;
    }
  }
}

TEST(AmpiCommRank, BcastOverSubCommunicator) {
  Fixture f(1);
  std::vector<int> vals(6);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    ampi::Comm sub = co_await r.split(r.commWorld(), r.rank() < 3 ? 0 : 1, r.rank());
    ampi::CommRank cr(r, sub);
    int v = r.rank() == 0 || r.rank() == 3 ? 1000 + r.rank() : 0;
    co_await coll::bcast(cr, &v, sizeof v, /*root=*/0);
    vals[static_cast<std::size_t>(r.rank())] = v;
  });
  for (int i = 0; i < 3; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], 1000);
  for (int i = 3; i < 6; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], 1003);
}

TEST(UcxProbe, ReportsPendingMessageWithoutConsuming) {
  auto m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  std::vector<std::byte> src(100);
  ctx.tagSend(0, 1, src.data(), 100, 0x77, {});
  sys.engine.run();
  auto info = ctx.worker(1).probe(0x77, ucx::kFullMask);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->tag, 0x77u);
  EXPECT_EQ(info->len, 100u);
  EXPECT_EQ(info->src_pe, 0);
  EXPECT_EQ(ctx.worker(1).matchStats().unexpected, 1u);  // not consumed
  EXPECT_FALSE(ctx.worker(1).probe(0x78, ucx::kFullMask).has_value());
}


TEST(AmpiCollectives, RankLevelWrappers) {
  Fixture f(1);
  std::vector<double> allred(6, 0);
  std::vector<int> bcast_vals(6, 0);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    // MPI_Bcast
    int v = r.rank() == 2 ? 777 : 0;
    co_await r.bcast(&v, sizeof v, /*root=*/2);
    bcast_vals[static_cast<std::size_t>(r.rank())] = v;
    // MPI_Allreduce (sum of ranks = 15)
    double mine = static_cast<double>(r.rank());
    double out = 0;
    co_await r.allreduce(&mine, &out, 1, /*op=Sum*/ 0);
    allred[static_cast<std::size_t>(r.rank())] = out;
  });
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(bcast_vals[static_cast<std::size_t>(i)], 777);
    EXPECT_DOUBLE_EQ(allred[static_cast<std::size_t>(i)], 15.0);
  }
}

TEST(AmpiCollectives, GatherScatterAlltoallWrappers) {
  Fixture f(1);
  std::vector<std::vector<double>> gathered(6);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    double mine = 10.0 + r.rank();
    std::vector<double> all(6, 0);
    co_await r.allgather(&mine, all.data(), sizeof(double));
    gathered[static_cast<std::size_t>(r.rank())] = all;
  });
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(gathered[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                       10.0 + j);
    }
  }
}

TEST(AmpiWaitAny, ResolvesToFirstCompletion) {
  Fixture f(1);
  int first_idx = -1;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      int a = 0, b = 0;
      std::vector<ampi::Request> reqs;
      reqs.push_back(r.irecv(&a, sizeof a, 1, 10));  // arrives late
      reqs.push_back(r.irecv(&b, sizeof b, 2, 20));  // arrives first
      first_idx = co_await r.waitAny(reqs);
      co_await r.waitAll(reqs);
    } else if (r.rank() == 1) {
      co_await sim::delay(r.system().engine, sim::msec(2));
      int v = 1;
      co_await r.send(&v, sizeof v, 0, 10);
    } else if (r.rank() == 2) {
      int v = 2;
      co_await r.send(&v, sizeof v, 0, 20);
    }
  });
  EXPECT_EQ(first_idx, 1);
}

}  // namespace
