#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ampi/ampi.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

/// AMPI sendrecv and UCX probe.

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

}  // namespace
