#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "ampi/ampi.hpp"
#include "apps/jacobi/jacobi.hpp"
#include "coll/coll.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "charm4py/charm4py.hpp"
#include "ompi/ompi.hpp"
#include "trace_sink.hpp"
#include "ucx/context.hpp"

/// Cross-cutting integration tests: the tracer observing a full application,
/// collectives at paper scale (unbacked), and mixed-stack coexistence.

namespace {

using namespace cux;

TEST(Integration, TracerCapturesAFullJacobiTimeline) {
  // Run a small Jacobi through a traced system and sanity-check the layered
  // record stream (uses the internal pieces directly to own the System).
  model::Model m = model::summit(1);
  m.machine.backed_device_memory = false;
  test::TraceSink trace;
  hw::System sys(m.machine);
  sys.trace.enable(&trace);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);
  ampi::World world(rt);
  cuda::DeviceBuffer a(sys, 0, 1u << 20), b(sys, 1, 1u << 20);
  cuda::Stream stream(sys, 0);
  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      stream.launch(sim::usec(50));
      co_await stream.synchronize();
      co_await r.send(a.get(), 1u << 20, 1, 0);
    } else if (r.rank() == 1) {
      co_await r.recv(b.get(), 1u << 20, 0, 0);
    }
  });
  sys.engine.run();

  EXPECT_GE(trace.count(sim::TraceCat::Kernel), 1u);
  EXPECT_GE(trace.count(sim::TraceCat::LrtsSend), 1u);
  EXPECT_GE(trace.count(sim::TraceCat::CmiSend), 1u);
  EXPECT_GE(trace.count(sim::TraceCat::UcxRndv), 1u);
  EXPECT_GE(trace.count(sim::TraceCat::UcxRecv), 1u);
  // Records are time-ordered as recorded.
  const auto& recs = trace.records;
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i].time, recs[i - 1].time);
  }
  EXPECT_EQ(recs.size(), sys.trace.recorded());
  std::ostringstream os;
  trace.dumpCsv(os);
  EXPECT_GT(os.str().size(), 100u);
}

TEST(Integration, PaperScaleCollectiveUnbacked) {
  // 64 MiB-per-rank allreduce over 4 nodes with unbacked buffers: must cost
  // only virtual time and complete without touching memory.
  model::Model m = model::summit(4);
  m.machine.backed_device_memory = false;
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  ompi::World world(sys, ctx, m.costs);
  const std::uint64_t count = (64u << 20) / 8;
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> in, out;
  for (int i = 0; i < 24; ++i) {
    in.push_back(std::make_unique<cuda::DeviceBuffer>(sys, i, count * 8));
    out.push_back(std::make_unique<cuda::DeviceBuffer>(sys, i, count * 8));
  }
  int done = 0;
  world.run([&](ompi::Rank& r) -> sim::FutureTask {
    co_await coll::allreduce(r, in[static_cast<std::size_t>(r.rank())]->get(),
                             out[static_cast<std::size_t>(r.rank())]->get(), count,
                             coll::Op::Sum);
    ++done;
  });
  sys.engine.run();
  EXPECT_EQ(done, 24);
  EXPECT_GT(sim::toMs(sys.engine.now()), 1.0);  // real virtual cost accrued
}

TEST(Integration, AmpiAndCharm4pyCoexistOnOneRuntime) {
  // Both models share the Charm++ runtime (the paper's Fig. 1 stack): AMPI
  // ranks and Charm4py channels exchanging concurrently must not interfere.
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);
  ampi::World world(rt);
  c4p::Charm4py py(rt);

  int ampi_got = 0;
  std::vector<std::byte> c4p_out(256);
  std::vector<std::byte> c4p_in(256, std::byte{0x3C});
  auto ch = py.makeChannel(2, 3);
  bool c4p_done = false;

  struct Sender {
    static sim::FutureTask send(c4p::ChannelEnd* end, const void* buf, std::size_t n) {
      co_await end->send(buf, n);
    }
    static sim::FutureTask recv(c4p::ChannelEnd* end, void* buf, std::size_t n, bool* done) {
      co_await end->recv(buf, n);
      *done = true;
    }
  };
  py.startOn(2, [&] { (void)Sender::send(ch.a, c4p_in.data(), 256); });
  py.startOn(3, [&] { (void)Sender::recv(ch.b, c4p_out.data(), 256, &c4p_done); });

  world.run([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      int v = 88;
      co_await r.send(&v, sizeof v, 5, 0);
    } else if (r.rank() == 5) {
      co_await r.recv(&ampi_got, sizeof ampi_got, 0, 0);
    }
  });
  sys.engine.run();
  EXPECT_EQ(ampi_got, 88);
  EXPECT_TRUE(c4p_done);
  EXPECT_EQ(c4p_out, c4p_in);
}

TEST(Integration, HugeVirtualClusterIsCheap) {
  // 256 nodes / 1536 PEs of OSU-style traffic: the simulation must handle
  // paper-scale machines in modest wall time (this is what the figure
  // benches rely on).
  model::Model m = model::summit(256);
  m.machine.backed_device_memory = false;
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  ompi::World world(sys, ctx, m.costs);
  EXPECT_EQ(world.size(), 1536);
  int done = 0;
  world.run([&](ompi::Rank& r) -> sim::FutureTask {
    // One zero-byte ring exchange across every rank.
    sim::Future<void> s = r.isend(nullptr, 0, (r.rank() + 1) % r.size(), 0);
    co_await r.recv(nullptr, 0, (r.rank() - 1 + r.size()) % r.size(), 0);
    co_await s;
    ++done;
  });
  sys.engine.run();
  EXPECT_EQ(done, 1536);
}

}  // namespace
