#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "ampi/ampi.hpp"
#include "coll/coll.hpp"
#include "model/model.hpp"
#include "ompi/ompi.hpp"
#include "ucx/context.hpp"

namespace {

using namespace cux;

// Fixture running the same collective program on AMPI or OpenMPI.
struct CollFixture {
  explicit CollFixture(int nodes) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
  }
  void runAmpi(std::function<sim::FutureTask(ampi::Rank&)> main) {
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
    ampi_world = std::make_unique<ampi::World>(*rt);
    ampi_world->run(std::move(main));
    sys->engine.run();
    ASSERT_TRUE(ampi_world->done().ready()) << "collective deadlocked";
  }
  void runOmpi(std::function<sim::FutureTask(ompi::Rank&)> main) {
    ompi_world = std::make_unique<ompi::World>(*sys, *ctx, m.costs);
    ompi_world->run(std::move(main));
    sys->engine.run();
    ASSERT_TRUE(ompi_world->done().ready()) << "collective deadlocked";
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<ampi::World> ampi_world;
  std::unique_ptr<ompi::World> ompi_world;
};

// Device buffer per rank filled with rank-dependent doubles.
struct RankBufs {
  RankBufs(hw::System& sys, int n, std::uint64_t count) {
    for (int i = 0; i < n; ++i) {
      send.push_back(std::make_unique<cuda::DeviceBuffer>(sys, i, count * 8));
      recv.push_back(std::make_unique<cuda::DeviceBuffer>(sys, i, count * 8));
      auto* p = send.back()->as<double>();
      for (std::uint64_t j = 0; j < count; ++j) p[j] = 100.0 * i + static_cast<double>(j);
    }
  }
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> send, recv;
};

// --------------------------------------------------------------------------
// Broadcast
// --------------------------------------------------------------------------

class CollBcast : public ::testing::TestWithParam<int> {};  // param: root

TEST_P(CollBcast, DeviceBroadcastReachesAllRanks) {
  const int root = GetParam();
  CollFixture f(2);
  const std::uint64_t count = 1000;
  RankBufs bufs(*f.sys, 12, count);
  f.runAmpi([&](ampi::Rank& r) -> sim::FutureTask {
    void* buf = bufs.send[static_cast<std::size_t>(r.rank())]->get();
    co_await coll::bcast(r, buf, count * 8, root);
  });
  for (int i = 0; i < 12; ++i) {
    const auto* p = bufs.send[static_cast<std::size_t>(i)]->as<double>();
    EXPECT_DOUBLE_EQ(p[0], 100.0 * root) << "rank " << i;
    EXPECT_DOUBLE_EQ(p[count - 1], 100.0 * root + count - 1) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Roots, CollBcast, ::testing::Values(0, 5, 11));

// --------------------------------------------------------------------------
// Allreduce
// --------------------------------------------------------------------------

using AllreduceParam = std::tuple<int, coll::Op>;
class CollAllreduce : public ::testing::TestWithParam<AllreduceParam> {};

TEST_P(CollAllreduce, EveryRankHasTheReduction) {
  const auto [nranks_nodes, op] = GetParam();
  CollFixture f(nranks_nodes);
  const int n = 6 * nranks_nodes;
  const std::uint64_t count = 256;
  RankBufs bufs(*f.sys, n, count);
  f.runOmpi([&](ompi::Rank& r) -> sim::FutureTask {
    co_await coll::allreduce(r, bufs.send[static_cast<std::size_t>(r.rank())]->get(),
                             bufs.recv[static_cast<std::size_t>(r.rank())]->get(), count, op);
  });
  for (int i = 0; i < n; ++i) {
    const auto* p = bufs.recv[static_cast<std::size_t>(i)]->as<double>();
    for (std::uint64_t j = 0; j < count; j += 37) {
      double expected = 0;
      if (op == coll::Op::Sum) {
        expected = 100.0 * (n * (n - 1) / 2) + static_cast<double>(n) * static_cast<double>(j);
      } else if (op == coll::Op::Max) {
        expected = 100.0 * (n - 1) + static_cast<double>(j);
      } else {
        expected = static_cast<double>(j);
      }
      ASSERT_DOUBLE_EQ(p[j], expected) << "rank " << i << " elem " << j;
    }
  }
}

std::string allreduceName(const ::testing::TestParamInfo<AllreduceParam>& info) {
  const auto [nodes, op] = info.param;
  std::string name = "ranks" + std::to_string(6 * nodes) + "_";
  name += op == coll::Op::Sum ? "sum" : (op == coll::Op::Max ? "max" : "min");
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndOps, CollAllreduce,
    ::testing::Combine(::testing::Values(1, 2, 3),  // 6, 12, 18 ranks (18: non-power-of-2)
                       ::testing::Values(coll::Op::Sum, coll::Op::Max, coll::Op::Min)),
    allreduceName);

// --------------------------------------------------------------------------
// Host buffers flow through the same primitives.
// --------------------------------------------------------------------------

TEST(Coll, HostBuffersWorkToo) {
  CollFixture f(1);
  std::vector<std::vector<double>> bufs(6, std::vector<double>(64));
  for (int i = 0; i < 6; ++i) bufs[static_cast<std::size_t>(i)].assign(64, i + 1.0);
  std::vector<std::vector<double>> out(6, std::vector<double>(64, 0.0));
  f.runAmpi([&](ampi::Rank& r) -> sim::FutureTask {
    co_await coll::allreduce(r, bufs[static_cast<std::size_t>(r.rank())].data(),
                             out[static_cast<std::size_t>(r.rank())].data(), 64, coll::Op::Sum);
  });
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)][0], 21.0);
}

// --------------------------------------------------------------------------
// Timing property: GPU-aware collectives beat host-staged emulation.
// --------------------------------------------------------------------------

TEST(CollTiming, DeviceBcastScalesLogarithmically) {
  auto timeBcast = [](int nodes) {
    CollFixture f(nodes);
    const std::uint64_t bytes = 1u << 20;
    std::vector<std::unique_ptr<cuda::DeviceBuffer>> bufs;
    for (int i = 0; i < 6 * nodes; ++i) {
      bufs.push_back(std::make_unique<cuda::DeviceBuffer>(*f.sys, i, bytes, false));
    }
    // Pin the Reference binomial tree: this test asserts the log2(P)
    // property of the classical algorithm, independent of the pipelined
    // implementations' chunking choices.
    coll::CollConfig cfg;
    cfg.impl = coll::CollImpl::Reference;
    f.runOmpi([&, cfg](ompi::Rank& r) -> sim::FutureTask {
      co_await coll::bcast(r, bufs[static_cast<std::size_t>(r.rank())]->get(), bytes, 0,
                           coll::kCollTagBase, cfg);
    });
    return sim::toUs(f.sys->engine.now());
  };
  const double t2 = timeBcast(2);   // 12 ranks
  const double t8 = timeBcast(8);   // 48 ranks: 2 more tree levels
  EXPECT_GT(t8, t2);
  EXPECT_LT(t8, 3.0 * t2);  // logarithmic, not linear (4x ranks)
}

// --------------------------------------------------------------------------
// Pipelining property: the chain broadcast stores-and-forwards at every hop,
// so with one chunk its latency is ~(P-1) full-message transfers. Chunked,
// hop k forwards chunk c while chunk c+1 is still arriving, collapsing the
// chain to one full transfer plus (P-1) chunk transfers.
// --------------------------------------------------------------------------

TEST(CollTiming, PipelinedChainBcastBeatsUnchunked) {
  auto timeBcast = [](int max_chunks, std::uint64_t chunk_bytes) {
    CollFixture f(2);
    const std::uint64_t bytes = 4u << 20;
    std::vector<std::unique_ptr<cuda::DeviceBuffer>> bufs;
    for (int i = 0; i < 12; ++i) {
      bufs.push_back(std::make_unique<cuda::DeviceBuffer>(*f.sys, i, bytes, false));
    }
    coll::CollConfig cfg;
    cfg.impl = coll::CollImpl::Ring;  // chain broadcast
    cfg.max_chunks = max_chunks;
    cfg.chunk_bytes = chunk_bytes;
    f.runAmpi([&, cfg](ampi::Rank& r) -> sim::FutureTask {
      co_await coll::bcast(r, bufs[static_cast<std::size_t>(r.rank())]->get(), bytes, 0,
                           coll::kCollTagBase, cfg);
    });
    return sim::toUs(f.sys->engine.now());
  };
  const double unchunked = timeBcast(1, 64 * 1024 * 1024);
  const double pipelined = timeBcast(16, 1024 * 1024);  // 4 chunks
  EXPECT_LT(pipelined, 0.7 * unchunked)
      << "chunked chain should overlap transfers across hops";
}

}  // namespace
