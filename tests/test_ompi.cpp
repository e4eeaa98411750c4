#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "ompi/ompi.hpp"
#include "sim/rng.hpp"

namespace {

using namespace cux;

struct OmpiFixture {
  explicit OmpiFixture(int nodes = 2) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    world = std::make_unique<ompi::World>(*sys, *ctx, m.costs);
  }
  void runAll(std::function<sim::FutureTask(ompi::Rank&)> main) {
    world->run(std::move(main));
    sys->engine.run();
    ASSERT_TRUE(world->done().ready()) << "MPI program deadlocked";
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ompi::World> world;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  sim::SplitMix64 rng(seed);
  rng.fill(v.data(), n);
  return v;
}

TEST(Ompi, HostSendRecv) {
  OmpiFixture f;
  auto src = pattern(512, 1);
  std::vector<std::byte> dst(512);
  ompi::Status st;
  f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) co_await r.send(src.data(), src.size(), 6, 3);
    if (r.rank() == 6) co_await r.recv(dst.data(), dst.size(), 0, 3, &st);
    co_return;
  });
  EXPECT_EQ(src, dst);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 3);
}

TEST(Ompi, DeviceSendRecvCudaAware) {
  OmpiFixture f;
  const std::size_t n = 2u << 20;
  auto ref = pattern(n, 2);
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 6, n);
  std::memcpy(a.get(), ref.data(), n);
  f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) co_await r.send(a.get(), n, 6, 0);
    if (r.rank() == 6) co_await r.recv(b.get(), n, 0, 0);
    co_return;
  });
  EXPECT_EQ(std::memcmp(ref.data(), b.get(), n), 0);
}

TEST(Ompi, AnySourceAnyTag) {
  OmpiFixture f;
  int v = 5, got = 0;
  ompi::Status st;
  f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 4) co_await r.send(&v, sizeof v, 0, 77);
    if (r.rank() == 0)
      co_await r.recv(&got, sizeof got, ompi::kAnySource, ompi::kAnyTag, &st);
    co_return;
  });
  EXPECT_EQ(got, 5);
  EXPECT_EQ(st.source, 4);
  EXPECT_EQ(st.tag, 77);
}

TEST(Ompi, PrepostedReceiveAvoidsMetadataDelay) {
  // Structural property the paper leans on: OpenMPI receives posted before
  // the send observe the rendezvous immediately, while AMPI must wait for
  // its metadata message. Here we only verify the pre-posted receive works.
  OmpiFixture f;
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 1, n);
  f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 1) {
      auto req = r.irecv(b.get(), n, 0, 0);  // posted before the send exists
      co_await req;
    } else if (r.rank() == 0) {
      co_await sim::delay(r.system().engine, sim::usec(100));
      co_await r.send(a.get(), n, 1, 0);
    }
    co_return;
  });
}

// MPI matching order: of two posted receives that both accept a message, the
// one posted first takes it, whether it names the source and tag or is a
// wildcard; the next message goes to the other one. Each status is written
// by recv() at completion. An OpenMPI mask never covers the tag's top 16
// bits, so UCX files both receives as wildcards and matches in post order.
TEST(Ompi, FirstPostedOfExactAndWildcardReceiveWins) {
  const std::vector<std::byte> first(4, std::byte{0x11}), second(8, std::byte{0x22});
  for (const bool exact_first : {true, false}) {
    SCOPED_TRACE(exact_first ? "exact posted first" : "wildcard posted first");
    OmpiFixture f;
    std::vector<std::byte> exact_buf(8), wild_buf(8);
    ompi::Status exact_st, wild_st;
    f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
      if (r.rank() == 0) {
        // Both receives are posted before either message arrives.
        co_await sim::delay(r.system().engine, sim::usec(10));
        co_await r.send(first.data(), first.size(), 1, 5);
        co_await r.send(second.data(), second.size(), 1, 5);
      } else if (r.rank() == 1) {
        const auto exact = [&] { return r.recv(exact_buf.data(), 8, 0, 5, &exact_st); };
        const auto wild = [&] {
          return r.recv(wild_buf.data(), 8, ompi::kAnySource, ompi::kAnyTag, &wild_st);
        };
        std::vector<sim::Future<void>> fs;
        fs.push_back(exact_first ? exact() : wild());
        fs.push_back(exact_first ? wild() : exact());
        co_await sim::allOf(fs);
      }
      co_return;
    });
    const ompi::Status& won = exact_first ? exact_st : wild_st;
    const ompi::Status& lost = exact_first ? wild_st : exact_st;
    EXPECT_EQ(won.source, 0);
    EXPECT_EQ(won.tag, 5);
    EXPECT_EQ(won.bytes, first.size());
    EXPECT_EQ(lost.source, 0);
    EXPECT_EQ(lost.tag, 5);
    EXPECT_EQ(lost.bytes, second.size());
    std::vector<std::byte> won_expected = first;
    won_expected.resize(8);
    EXPECT_EQ(exact_first ? exact_buf : wild_buf, won_expected);
    EXPECT_EQ(exact_first ? wild_buf : exact_buf, second);
  }
}

// A rank outside [0, size()) is refused in every build type: a send would
// index past the rank table, and a receive from it could never match, so its
// rank would never finish.
TEST(Ompi, OutOfRangeRanksThrowInEveryBuild) {
  OmpiFixture f;
  ompi::Rank& r = f.world->rank(0);
  const int n = f.world->size();
  int v = 0;
  EXPECT_THROW((void)r.isend(&v, sizeof v, n, 0), std::invalid_argument);
  EXPECT_THROW((void)r.isend(&v, sizeof v, -1, 0), std::invalid_argument);
  EXPECT_THROW((void)r.irecv(&v, sizeof v, n, 0), std::invalid_argument);
  EXPECT_THROW((void)r.irecv(&v, sizeof v, -2, 0), std::invalid_argument);
  // kAnySource is the one negative source that is allowed; nothing above
  // left state behind, so the pair completes.
  sim::Future<void> recv = r.irecv(&v, sizeof v, ompi::kAnySource, 0);
  int one = 1;
  (void)f.world->rank(n - 1).isend(&one, sizeof one, 0, 0);
  f.sys->engine.run();
  EXPECT_TRUE(recv.ready());
  EXPECT_EQ(v, 1);
}

TEST(Ompi, WaitAllManyRequests) {
  OmpiFixture f;
  constexpr int k = 16;
  std::vector<std::vector<std::byte>> srcs, dsts(k);
  for (int i = 0; i < k; ++i) {
    srcs.push_back(pattern(4096, 10 + i));
    dsts[static_cast<std::size_t>(i)].resize(4096);
  }
  f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
    std::vector<sim::Future<void>> reqs;
    if (r.rank() == 0) {
      for (int i = 0; i < k; ++i)
        reqs.push_back(r.isend(srcs[static_cast<std::size_t>(i)].data(), 4096, 1, i));
    } else if (r.rank() == 1) {
      for (int i = 0; i < k; ++i)
        reqs.push_back(r.irecv(dsts[static_cast<std::size_t>(i)].data(), 4096, 0, i));
    }
    co_await sim::allOf(reqs);
    co_return;
  });
  for (int i = 0; i < k; ++i) EXPECT_EQ(srcs[static_cast<std::size_t>(i)], dsts[static_cast<std::size_t>(i)]);
}

// Timing property central to the paper: OpenMPI-D small-message latency is
// well below AMPI-D's, because AMPI adds ~8 us of runtime layers above UCX.
TEST(OmpiTiming, SmallDeviceLatencyBeatsAmpiShape) {
  OmpiFixture f;
  cuda::DeviceBuffer a(*f.sys, 0, 8), b(*f.sys, 6, 8);
  double one_way = 0;
  f.runAll([&](ompi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      const double t0 = r.timeUs();
      for (int i = 0; i < 10; ++i) {
        co_await r.send(a.get(), 8, 6, i);
        co_await r.recv(a.get(), 8, 6, 1000 + i);
      }
      one_way = (r.timeUs() - t0) / 20.0;
    } else if (r.rank() == 6) {
      for (int i = 0; i < 10; ++i) {
        co_await r.recv(b.get(), 8, 0, i);
        co_await r.send(b.get(), 8, 0, 1000 + i);
      }
    }
    co_return;
  });
  EXPECT_GT(one_way, 1.0);
  EXPECT_LT(one_way, 5.0);  // paper: ~2 us for OpenMPI-D small messages
}

}  // namespace
