#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ampi/ampi.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"

namespace {

using namespace cux;

struct AmpiFixture {
  explicit AmpiFixture(int nodes = 2, int nranks = -1) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
    world = std::make_unique<ampi::World>(*rt, nranks);
  }
  void runAll(std::function<sim::FutureTask(ampi::Rank&)> main) {
    world->run(std::move(main));
    sys->engine.run();
    ASSERT_TRUE(world->done().ready()) << "AMPI program deadlocked";
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<ampi::World> world;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  sim::SplitMix64 rng(seed);
  rng.fill(v.data(), n);
  return v;
}

// --------------------------------------------------------------------------
// Host-memory point-to-point
// --------------------------------------------------------------------------

TEST(Ampi, HostSendRecvSmall) {
  AmpiFixture f;
  auto src = pattern(256, 1);
  std::vector<std::byte> dst(256);
  bool checked = false;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      co_await r.send(src.data(), src.size(), 1, 7);
    } else if (r.rank() == 1) {
      ampi::Status st;
      co_await r.recv(dst.data(), dst.size(), 0, 7, &st);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 256u);
      checked = true;
    }
    co_return;
  });
  EXPECT_TRUE(checked);
  EXPECT_EQ(src, dst);
}

TEST(Ampi, HostSendRecvLargeZeroCopy) {
  AmpiFixture f;
  const std::size_t n = 2u << 20;  // above the 128 KiB pack threshold
  auto src = pattern(n, 2);
  std::vector<std::byte> dst(n);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) co_await r.send(src.data(), n, 6, 0);  // inter-node
    if (r.rank() == 6) co_await r.recv(dst.data(), n, 0, 0);
    co_return;
  });
  EXPECT_EQ(src, dst);
}

TEST(Ampi, DeviceSendRecv) {
  AmpiFixture f;
  const std::size_t n = 1u << 20;
  auto ref = pattern(n, 3);
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 6, n);
  std::memcpy(a.get(), ref.data(), n);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) co_await r.send(a.get(), n, 6, 5);
    if (r.rank() == 6) co_await r.recv(b.get(), n, 0, 5);
    co_return;
  });
  EXPECT_EQ(std::memcmp(ref.data(), b.get(), n), 0);
}

TEST(Ampi, SmallDeviceMessagesUseEagerGdrPath) {
  AmpiFixture f;
  const std::size_t n = 64;  // below the device eager threshold
  auto ref = pattern(n, 4);
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 1, n);
  std::memcpy(a.get(), ref.data(), n);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) co_await r.send(a.get(), n, 1, 0);
    if (r.rank() == 1) co_await r.recv(b.get(), n, 0, 0);
    co_return;
  });
  EXPECT_EQ(std::memcmp(ref.data(), b.get(), n), 0);
}

// --------------------------------------------------------------------------
// Matching semantics
// --------------------------------------------------------------------------

TEST(Ampi, AnySourceReceives) {
  AmpiFixture f;
  int v = 41;
  int got = 0;
  ampi::Status st;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 3) co_await r.send(&v, sizeof v, 0, 9);
    if (r.rank() == 0) co_await r.recv(&got, sizeof got, ampi::kAnySource, 9, &st);
    co_return;
  });
  EXPECT_EQ(got, 41);
  EXPECT_EQ(st.source, 3);
}

TEST(Ampi, AnyTagReceives) {
  AmpiFixture f;
  int v = 17, got = 0;
  ampi::Status st;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 1) co_await r.send(&v, sizeof v, 0, 1234);
    if (r.rank() == 0) co_await r.recv(&got, sizeof got, 1, ampi::kAnyTag, &st);
    co_return;
  });
  EXPECT_EQ(got, 17);
  EXPECT_EQ(st.tag, 1234);
}

TEST(Ampi, TagsSelectAmongMessages) {
  AmpiFixture f;
  int a = 1, b = 2, got_a = 0, got_b = 0;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      co_await r.send(&a, sizeof a, 1, 100);
      co_await r.send(&b, sizeof b, 1, 200);
    } else if (r.rank() == 1) {
      // Receive in reverse tag order: matching must respect tags.
      co_await r.recv(&got_b, sizeof got_b, 0, 200);
      co_await r.recv(&got_a, sizeof got_a, 0, 100);
    }
    co_return;
  });
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 2);
}

TEST(Ampi, NonOvertakingSameTag) {
  // MPI ordering: two same-tag messages between one pair match in send
  // order, even though one is eager (small) and one rendezvous (large) and
  // the small one physically overtakes the large in the network.
  AmpiFixture f;
  const std::size_t big_n = 1u << 20;
  auto big = pattern(big_n, 5);
  std::vector<std::byte> small{std::byte{0xAA}};
  std::vector<std::byte> first(big_n), second(1);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      auto s1 = r.isend(big.data(), big_n, 1, 5);
      auto s2 = r.isend(small.data(), 1, 1, 5);
      std::vector<sim::Future<void>> reqs{s1, s2};
      co_await sim::allOf(reqs);
    } else if (r.rank() == 1) {
      co_await r.recv(first.data(), big_n, 0, 5);   // must be the big one
      co_await r.recv(second.data(), 1, 0, 5);      // then the small one
    }
    co_return;
  });
  EXPECT_EQ(first, big);
  EXPECT_EQ(second[0], std::byte{0xAA});
}

// MPI matching order: of two posted receives that both accept a message, the
// one posted first takes it, whether it names the source and tag or is a
// wildcard; the next message goes to the other one. Each status is written
// by recv() at completion.
TEST(Ampi, FirstPostedOfExactAndWildcardReceiveWins) {
  const std::vector<std::byte> first(4, std::byte{0x11}), second(8, std::byte{0x22});
  for (const bool exact_first : {true, false}) {
    SCOPED_TRACE(exact_first ? "exact posted first" : "wildcard posted first");
    AmpiFixture f;
    std::vector<std::byte> exact_buf(8), wild_buf(8);
    ampi::Status exact_st, wild_st;
    f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
      if (r.rank() == 0) {
        // Both receives are posted before either message arrives.
        co_await sim::delay(r.system().engine, sim::usec(10));
        co_await r.send(first.data(), first.size(), 1, 5);
        co_await r.send(second.data(), second.size(), 1, 5);
      } else if (r.rank() == 1) {
        const auto exact = [&] { return r.recv(exact_buf.data(), 8, 0, 5, &exact_st); };
        const auto wild = [&] {
          return r.recv(wild_buf.data(), 8, ampi::kAnySource, ampi::kAnyTag, &wild_st);
        };
        std::vector<sim::Future<void>> fs;
        fs.push_back(exact_first ? exact() : wild());
        fs.push_back(exact_first ? wild() : exact());
        co_await sim::allOf(fs);
      }
      co_return;
    });
    const ampi::Status& won = exact_first ? exact_st : wild_st;
    const ampi::Status& lost = exact_first ? wild_st : exact_st;
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

TEST(Ampi, UnexpectedMessagesMatchLateReceives) {
  AmpiFixture f;
  int v = 55, got = 0;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      co_await r.send(&v, sizeof v, 1, 3);
    } else if (r.rank() == 1) {
      // Give the message time to arrive unexpected, then post the receive.
      co_await sim::delay(r.system().engine, sim::msec(1));
      co_await r.recv(&got, sizeof got, 0, 3);
    }
    co_return;
  });
  EXPECT_EQ(got, 55);
}

// An inline message longer than the receive it matches is refused before
// any byte moves, in every build type. The receive names a 16-byte window of
// a larger zeroed buffer, so nothing outside the window may change either.
TEST(Ampi, InlineTruncationThrowsBeforeAnyByteMoves) {
  AmpiFixture f;
  auto src = pattern(64, 13);
  std::vector<std::byte> dst(256);
  (void)f.world->rank(1).irecv(dst.data(), 16, 0, 7);
  (void)f.world->rank(0).isend(src.data(), src.size(), 1, 7);
  EXPECT_THROW(f.sys->engine.run(), std::length_error);
  EXPECT_EQ(dst, std::vector<std::byte>(256));
}

// A rank outside [0, size()) is refused in every build type: a send would
// index past the rank table, and a receive from it could never match, so its
// rank would never finish.
TEST(Ampi, OutOfRangeRanksThrowInEveryBuild) {
  AmpiFixture f;
  ampi::Rank& r = f.world->rank(0);
  const int n = f.world->size();
  int v = 0;
  EXPECT_THROW((void)r.isend(&v, sizeof v, n, 0), std::invalid_argument);
  EXPECT_THROW((void)r.isend(&v, sizeof v, -1, 0), std::invalid_argument);
  EXPECT_THROW((void)r.irecv(&v, sizeof v, n, 0), std::invalid_argument);
  EXPECT_THROW((void)r.irecv(&v, sizeof v, -2, 0), std::invalid_argument);
  // kAnySource is the one negative source that is allowed; nothing above
  // left state behind, so the pair completes.
  sim::Future<void> recv = r.irecv(&v, sizeof v, ampi::kAnySource, 0);
  int one = 1;
  (void)f.world->rank(n - 1).isend(&one, sizeof one, 0, 0);
  f.sys->engine.run();
  EXPECT_TRUE(recv.ready());
  EXPECT_EQ(v, 1);
}

// posted_hwm is the most receives ever posted at once, exact and wildcard
// together: four drained exact receives followed by four drained kAnyTag
// receives never have more than four posted.
TEST(Ampi, PostedHighWaterMarkCountsLiveReceives) {
  AmpiFixture f;
  ampi::Rank& sender = f.world->rank(0);
  ampi::Rank& receiver = f.world->rank(1);
  std::vector<int> src(8, 1), dst(8);
  std::vector<sim::Future<void>> reqs;
  for (int i = 0; i < 4; ++i) reqs.push_back(receiver.irecv(&dst[i], sizeof(int), 0, i));
  for (int i = 0; i < 4; ++i) (void)sender.isend(&src[i], sizeof(int), 1, i);
  f.sys->engine.run();
  for (int i = 4; i < 8; ++i) {
    reqs.push_back(receiver.irecv(&dst[i], sizeof(int), 0, ampi::kAnyTag));
  }
  for (int i = 4; i < 8; ++i) (void)sender.isend(&src[i], sizeof(int), 1, i);
  f.sys->engine.run();
  for (const sim::Future<void>& r : reqs) EXPECT_TRUE(r.ready());
  const auto s = f.world->matchStats();
  EXPECT_EQ(s.posted, 0u);
  EXPECT_EQ(s.posted_hwm, 4u);
}

TEST(Ampi, IsendIrecvWaitAll) {
  AmpiFixture f;
  constexpr int kMsgs = 8;
  std::vector<std::vector<std::byte>> srcs, dsts(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    srcs.push_back(pattern(1024 * (static_cast<std::size_t>(i) + 1), 10 + i));
    dsts[static_cast<std::size_t>(i)].resize(srcs.back().size());
  }
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      std::vector<sim::Future<void>> reqs;
      for (int i = 0; i < kMsgs; ++i)
        reqs.push_back(r.isend(srcs[static_cast<std::size_t>(i)].data(),
                               srcs[static_cast<std::size_t>(i)].size(), 1, i));
      co_await sim::allOf(reqs);
    } else if (r.rank() == 1) {
      std::vector<sim::Future<void>> reqs;
      for (int i = 0; i < kMsgs; ++i)
        reqs.push_back(r.irecv(dsts[static_cast<std::size_t>(i)].data(),
                               dsts[static_cast<std::size_t>(i)].size(), 0, i));
      co_await sim::allOf(reqs);
    }
    co_return;
  });
  for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(srcs[static_cast<std::size_t>(i)], dsts[static_cast<std::size_t>(i)]);
}

TEST(Ampi, SelfSend) {
  AmpiFixture f;
  int v = 7, got = 0;
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 2) {
      auto s = r.isend(&v, sizeof v, 2, 0);
      co_await r.recv(&got, sizeof got, 2, 0);
      co_await s;
    }
    co_return;
  });
  EXPECT_EQ(got, 7);
}

// --------------------------------------------------------------------------
// Virtualisation
// --------------------------------------------------------------------------

TEST(Ampi, VirtualisationMultipleRanksPerPe) {
  // 24 ranks on 6 PEs (4x virtualisation): AMPI's rank-per-chare design.
  AmpiFixture f(1, 24);
  std::vector<int> got(24, -1);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    const int next = (r.rank() + 1) % r.size();
    const int prev = (r.rank() - 1 + r.size()) % r.size();
    int token = r.rank();
    auto s = r.isend(&token, sizeof token, next, 0);
    int in = -1;
    co_await r.recv(&in, sizeof in, prev, 0);
    co_await s;
    got[static_cast<std::size_t>(r.rank())] = in;
    co_return;
  });
  for (int i = 0; i < 24; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], (i - 1 + 24) % 24);
}

TEST(Ampi, RingExchangeAllRanks) {
  AmpiFixture f(2);
  const int n = f.world->size();
  std::vector<double> vals(static_cast<std::size_t>(n), 0);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    double v = 100.0 + r.rank();
    double in = 0;
    auto s = r.isend(&v, sizeof v, (r.rank() + 1) % r.size(), 1);
    co_await r.recv(&in, sizeof in, (r.rank() - 1 + r.size()) % r.size(), 1);
    co_await s;
    vals[static_cast<std::size_t>(r.rank())] = in;
    co_return;
  });
  for (int i = 0; i < n; ++i)
    EXPECT_DOUBLE_EQ(vals[static_cast<std::size_t>(i)], 100.0 + (i - 1 + n) % n);
}

// --------------------------------------------------------------------------
// Device-pointer cache (paper Sec. III-C1)
// --------------------------------------------------------------------------

TEST(Ampi, DevicePointerCacheHitsOnRepeatedSends) {
  AmpiFixture f(1);
  const std::size_t n = 64;
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 1, n);
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      for (int i = 0; i < 10; ++i) co_await r.send(a.get(), n, 1, i);
    } else if (r.rank() == 1) {
      for (int i = 0; i < 10; ++i) co_await r.recv(b.get(), n, 0, i);
    }
    co_return;
  });
  EXPECT_GE(f.world->cacheHits(), 9u);   // first lookup misses, rest hit
  EXPECT_GE(f.world->cacheMisses(), 1u);
}

TEST(Ampi, PointerCacheIsPerRankAndForgetsAfterAnAllocOrFree) {
  // Each MPI call classifies its buffer through the calling rank's cache:
  // one registry lookup on a miss, none on a hit. An entry is valid only in
  // the registry epoch it was made in, so any allocation or free (here an
  // unrelated scratch buffer) sends the next call back to the registry.
  // This does not rely on the allocator handing a freed address out again.
  AmpiFixture f(1);
  const std::size_t n = 4096;
  const hw::MemoryRegistry& mem = f.sys->memory;
  cuda::DeviceBuffer a(*f.sys, 0, n, /*backed=*/true), b(*f.sys, 1, n, /*backed=*/true);
  std::vector<std::uint64_t> rank0, rank2;  // lookups made by each isend
  auto send = [&mem](ampi::Rank& r, const void* buf, std::size_t bytes, int dst, int tag,
                     std::vector<std::uint64_t>& cost) {
    const std::uint64_t before = mem.lookups();
    sim::Future<void> q = r.isend(buf, bytes, dst, tag);
    cost.push_back(mem.lookups() - before);
    return q;
  };
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    if (r.rank() == 0) {
      co_await send(r, a.get(), n, 1, 0, rank0);
      co_await send(r, a.get(), n, 1, 1, rank0);
      { cuda::DeviceBuffer scratch(*f.sys, 0, 64); }
      co_await send(r, a.get(), n, 1, 2, rank0);
      co_await send(r, a.get(), n, 1, 3, rank0);
      co_await r.send(nullptr, 0, 2, 9);  // rank 2 may go
    } else if (r.rank() == 1) {
      for (int i = 0; i < 4; ++i) co_await r.recv(b.get(), n, 0, i);
      co_await r.recv(b.get(), n, 2, 5);
    } else if (r.rank() == 2) {
      co_await r.recv(nullptr, 0, 0, 9);
      // Rank 0 has `a` cached; rank 2's own cache has not seen it.
      co_await send(r, a.get(), n, 1, 5, rank2);
    }
    co_return;
  });
  EXPECT_EQ(rank0, (std::vector<std::uint64_t>{1, 0, 1, 0}));
  EXPECT_EQ(rank2, (std::vector<std::uint64_t>{1}));
}

// --------------------------------------------------------------------------
// Property: random traffic with mixed sizes/spaces arrives intact.
// --------------------------------------------------------------------------

class AmpiRandomTraffic : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AmpiRandomTraffic, AllMessagesIntact) {
  AmpiFixture f(2);
  sim::SplitMix64 rng(GetParam());
  constexpr int kPairs = 10;
  struct Xfer {
    std::vector<std::byte> ref;
    void* src;
    void* dst;
    bool src_dev, dst_dev;
    std::size_t n;
    int from, to, tag;
  };
  std::vector<Xfer> xs;
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> bufs;
  std::vector<std::unique_ptr<std::vector<std::byte>>> hosts;
  for (int i = 0; i < kPairs; ++i) {
    Xfer x;
    x.n = 1 + rng.below(300 * 1024);
    x.ref = pattern(x.n, 1000 + static_cast<std::uint64_t>(i));
    x.from = static_cast<int>(rng.below(12));
    do {
      x.to = static_cast<int>(rng.below(12));
    } while (x.to == x.from);
    x.tag = i;
    x.src_dev = rng.below(2) == 0;
    x.dst_dev = rng.below(2) == 0;
    if (x.src_dev) {
      bufs.push_back(std::make_unique<cuda::DeviceBuffer>(*f.sys, x.from, x.n));
      x.src = bufs.back()->get();
    } else {
      hosts.push_back(std::make_unique<std::vector<std::byte>>(x.n));
      x.src = hosts.back()->data();
    }
    std::memcpy(x.src, x.ref.data(), x.n);
    if (x.dst_dev) {
      bufs.push_back(std::make_unique<cuda::DeviceBuffer>(*f.sys, x.to, x.n));
      x.dst = bufs.back()->get();
    } else {
      hosts.push_back(std::make_unique<std::vector<std::byte>>(x.n));
      x.dst = hosts.back()->data();
    }
    xs.push_back(std::move(x));
  }
  f.runAll([&](ampi::Rank& r) -> sim::FutureTask {
    std::vector<sim::Future<void>> reqs;
    for (auto& x : xs) {
      if (x.from == r.rank()) reqs.push_back(r.isend(x.src, x.n, x.to, x.tag));
      if (x.to == r.rank()) reqs.push_back(r.irecv(x.dst, x.n, x.from, x.tag));
    }
    co_await sim::allOf(reqs);
    co_return;
  });
  for (auto& x : xs) EXPECT_EQ(std::memcmp(x.dst, x.ref.data(), x.n), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmpiRandomTraffic, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
