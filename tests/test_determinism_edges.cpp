#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ampi/ampi.hpp"
#include "apps/jacobi/jacobi.hpp"
#include "apps/osu/osu.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"

/// End-to-end determinism guarantees and edge cases the per-module suites do
/// not cover.

namespace {

using namespace cux;

// --------------------------------------------------------------------------
// Determinism: identical configurations produce identical virtual traces.
// --------------------------------------------------------------------------

TEST(Determinism, JacobiRunsAreBitReproducible) {
  auto run = [] {
    jacobi::JacobiConfig cfg;
    cfg.stack = jacobi::Stack::Charm;
    cfg.mode = jacobi::Mode::Device;
    cfg.nodes = 2;
    cfg.grid = {512, 512, 512};
    cfg.iters = 3;
    cfg.warmup = 1;
    cfg.backed = false;
    return jacobi::runJacobi(cfg);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.overall_ms_per_iter, b.overall_ms_per_iter);
  EXPECT_DOUBLE_EQ(a.comm_ms_per_iter, b.comm_ms_per_iter);
}

TEST(Determinism, AmpiProgramEndsAtIdenticalVirtualTime) {
  auto run = [] {
    model::Model m = model::summit(2);
    hw::System sys(m.machine);
    ucx::Context ctx(sys, m.ucx);
    ck::Runtime rt(sys, ctx, m);
    ampi::World world(rt);
    std::vector<std::vector<std::byte>> bufs(12, std::vector<std::byte>(4096));
    world.run([&](ampi::Rank& r) -> sim::FutureTask {
      for (int it = 0; it < 5; ++it) {
        const int next = (r.rank() + 1) % r.size();
        const int prev = (r.rank() - 1 + r.size()) % r.size();
        co_await r.sendrecv(bufs[static_cast<std::size_t>(r.rank())].data(), 4096, next, it,
                            bufs[static_cast<std::size_t>(r.rank())].data(), 4096, prev, it);
        // Zero-byte ring token: nobody starts the next round before its
        // predecessor finished this one.
        sim::Future<void> token = r.isend(nullptr, 0, next, 100 + it);
        co_await r.recv(nullptr, 0, prev, 100 + it);
        co_await token;
      }
    });
    sys.engine.run();
    return sys.engine.now();
  };
  EXPECT_EQ(run(), run());
}

// --------------------------------------------------------------------------
// Edge cases
// --------------------------------------------------------------------------

TEST(Edges, AmpiZeroByteMessages) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);
  ampi::World world(rt);
  bool got = false;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) co_await r.send(nullptr, 0, 1, 1);
    if (r.rank() == 1) {
      ampi::Status st;
      co_await r.recv(nullptr, 0, 0, 1, &st);
      got = st.bytes == 0 && st.source == 0;
    }
  });
  sys.engine.run();
  EXPECT_TRUE(got);
}

TEST(Edges, SelfSendEverywhere) {
  // Self-sends through every stack's loopback must complete.
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  int done = 0;
  std::vector<std::byte> a(64), b(64);
  ctx.worker(3).tagRecv(hw::MemRef::host(b.data()), 64, 1, ucx::kFullMask,
                        [&](ucx::Request&) { ++done; });
  ctx.tagSend(3, 3, hw::MemRef::host(a.data()), 64, 1, [&](ucx::Request&) { ++done; });
  sys.engine.run();
  EXPECT_EQ(done, 2);
}

TEST(Edges, LargeSelfSendRndv) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  cuda::DeviceBuffer a(sys, 2, 1u << 20), b(sys, 2, 1u << 20);
  std::memset(a.get(), 0x7C, 1u << 20);
  bool done = false;
  ctx.worker(2).tagRecv(b.ref(), 1u << 20, 9, ucx::kFullMask,
                        [&](ucx::Request&) { done = true; });
  ctx.tagSend(2, 2, a.ref(), 1u << 20, 9, {});
  sys.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(static_cast<unsigned char*>(b.get())[12345], 0x7C);
}

TEST(Edges, TinyMachineOnePePerNode) {
  model::Model m = model::summit(2);
  m.machine.gpus_per_node = 2;
  m.machine.sockets_per_node = 2;
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);
  ampi::World world(rt);
  EXPECT_EQ(world.size(), 4);
  int token = -1;
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      int v = 5;
      co_await r.send(&v, sizeof v, 3, 0);  // inter-node on the tiny machine
    } else if (r.rank() == 3) {
      co_await r.recv(&token, sizeof token, 0, 0);
    }
  });
  sys.engine.run();
  EXPECT_EQ(token, 5);
}

TEST(Edges, OsuSweepWithCustomSizes) {
  osu::BenchConfig cfg;
  cfg.stack = osu::Stack::Ompi;
  cfg.mode = osu::Mode::Device;
  cfg.place = osu::Placement::IntraNode;
  cfg.iters = 3;
  cfg.warmup = 1;
  cfg.sizes = {7, 4095, 4097, (4u << 20) - 1};  // off the power-of-two grid
  const auto pts = osu::runLatency(cfg);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) EXPECT_GT(p.value, 0.0);
  // Latency grows over decades of size, but small NON-monotonic dips right
  // at the eager->rendezvous boundary are genuine protocol behaviour (the
  // GDRCopy eager path is latency-optimised, not bandwidth-optimised), so
  // only the decade-scale ordering is asserted.
  EXPECT_LT(pts[0].value, pts[3].value);
  EXPECT_LT(pts[1].value, pts[3].value);
  EXPECT_NEAR(pts[1].value, pts[2].value, pts[1].value);  // boundary within 2x
}

}  // namespace
