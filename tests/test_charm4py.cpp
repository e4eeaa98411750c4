#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "charm4py/charm4py.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"

namespace {

using namespace cux;

struct C4pFixture {
  explicit C4pFixture(int nodes = 2) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
    py = std::make_unique<c4p::Charm4py>(*rt);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<c4p::Charm4py> py;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  sim::SplitMix64 rng(seed);
  rng.fill(v.data(), n);
  return v;
}

sim::FutureTask sendSide(c4p::ChannelEnd* end, const void* buf, std::size_t n) {
  co_await end->send(buf, n);
}
sim::FutureTask recvSide(c4p::ChannelEnd* end, void* buf, std::size_t n, bool* done) {
  co_await end->recv(buf, n);
  *done = true;
}

TEST(Charm4py, HostChannelRoundTrip) {
  C4pFixture f;
  auto src = pattern(1024, 1);
  std::vector<std::byte> dst(1024);
  auto ch = f.py->makeChannel(0, 1);
  bool done = false;
  f.py->startOn(0, [&] { (void)sendSide(ch.a, src.data(), src.size()); });
  f.py->startOn(1, [&] { (void)recvSide(ch.b, dst.data(), dst.size(), &done); });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(src, dst);
}

// A channel message longer than the receive it matches is refused before
// any byte moves, in every build type. The receive names a 16-byte window of
// a larger zeroed buffer, so nothing outside the window may change either.
TEST(Charm4py, ChannelTruncationThrowsBeforeAnyByteMoves) {
  C4pFixture f;
  auto src = pattern(64, 14);
  std::vector<std::byte> dst(256);
  auto ch = f.py->makeChannel(0, 1);
  (void)ch.b->recv(dst.data(), 16);
  (void)ch.a->send(src.data(), src.size());
  EXPECT_THROW(f.sys->engine.run(), std::length_error);
  EXPECT_EQ(dst, std::vector<std::byte>(256));
}

TEST(Charm4py, DeviceChannelRoundTrip) {
  C4pFixture f;
  const std::size_t n = 1u << 20;
  auto ref = pattern(n, 2);
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 6, n);
  std::memcpy(a.get(), ref.data(), n);
  auto ch = f.py->makeChannel(0, 6);
  bool done = false;
  f.py->startOn(0, [&] { (void)sendSide(ch.a, a.get(), n); });
  f.py->startOn(6, [&] { (void)recvSide(ch.b, b.get(), n, &done); });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(ref.data(), b.get(), n), 0);
}

sim::FutureTask streamN(c4p::ChannelEnd* end, std::vector<std::vector<std::byte>>* msgs,
                        bool send) {
  for (auto& m : *msgs) {
    if (send) {
      co_await end->send(m.data(), m.size());
    } else {
      co_await end->recv(m.data(), m.size());
    }
  }
}

TEST(Charm4py, ChannelPreservesMessageOrder) {
  C4pFixture f;
  constexpr int k = 12;
  std::vector<std::vector<std::byte>> out, in(k);
  for (int i = 0; i < k; ++i) {
    // Alternate small (eager) and large (rendezvous) so network overtaking
    // would scramble a naive implementation.
    const std::size_t n = (i % 2 == 0) ? 128 : (512u << 10);
    out.push_back(pattern(n, 100 + static_cast<std::uint64_t>(i)));
    in[static_cast<std::size_t>(i)].resize(n);
  }
  auto ch = f.py->makeChannel(2, 9);
  f.py->startOn(2, [&] { (void)streamN(ch.a, &out, true); });
  f.py->startOn(9, [&] { (void)streamN(ch.b, &in, false); });
  f.sys->engine.run();
  for (int i = 0; i < k; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], in[static_cast<std::size_t>(i)]) << i;
}

TEST(Charm4py, ManyQueuedMessagesStayFifoInBothDirections) {
  // Both ends stream eager and rendezvous messages across nodes while the
  // receives run ahead of the messages, then behind them. Each endpoint's
  // waiting and arrived queues fill up after earlier matches have moved
  // their front, so both grow while wrapped.
  C4pFixture f;
  constexpr int k = 68;
  auto ch = f.py->makeChannel(1, 8);
  c4p::ChannelEnd* ends[2] = {ch.a, ch.b};
  std::vector<std::vector<std::byte>> out[2], in[2];
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < k; ++i) {
      const std::size_t n = i % 3 == 0 ? (256u << 10) : 64u + static_cast<std::size_t>(i);
      out[side].push_back(pattern(n, 1000 * static_cast<std::uint64_t>(side + 1) +
                                         static_cast<std::uint64_t>(i)));
      in[side].emplace_back(n);
    }
  }
  int posted = 0, sent = 0;
  auto post = [&](int n) {
    for (int side = 0; side < 2; ++side) {
      for (int i = posted; i < posted + n; ++i) {
        auto& buf = in[side][static_cast<std::size_t>(i)];
        (void)ends[1 - side]->recv(buf.data(), buf.size());
      }
    }
    posted += n;
  };
  auto send = [&](int n) {
    for (int side = 0; side < 2; ++side) {
      for (int i = sent; i < sent + n; ++i) {
        const auto& buf = out[side][static_cast<std::size_t>(i)];
        (void)ends[side]->send(buf.data(), buf.size());
      }
    }
    sent += n;
  };
  // Receives ahead: 5 wait, 8 messages come, then 30 more receives queue.
  post(5);
  send(8);
  f.sys->engine.run();
  post(33);
  send(30);
  f.sys->engine.run();
  // Messages ahead: 30 queue before their receives are posted.
  send(30);
  f.sys->engine.run();
  post(30);
  f.sys->engine.run();
  ASSERT_EQ(posted, k);
  ASSERT_EQ(sent, k);
  for (int side = 0; side < 2; ++side) {
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(in[side][static_cast<std::size_t>(i)], out[side][static_cast<std::size_t>(i)])
          << "side " << side << " message " << i;
    }
  }
}

sim::FutureTask pingPong(c4p::Charm4py* py, c4p::ChannelEnd* end, void* buf, std::size_t n,
                         int iters, bool initiator, double* out_us) {
  hw::System& sys = py->system();
  const double t0 = sim::toUs(sys.engine.now());
  for (int i = 0; i < iters; ++i) {
    if (initiator) {
      co_await end->send(buf, n);
      co_await end->recv(buf, n);
    } else {
      co_await end->recv(buf, n);
      co_await end->send(buf, n);
    }
  }
  if (out_us != nullptr) *out_us = (sim::toUs(sys.engine.now()) - t0) / (2.0 * iters);
}

TEST(Charm4py, BidirectionalChannelTraffic) {
  C4pFixture f;
  const std::size_t n = 4096;
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 1, n);
  auto ch = f.py->makeChannel(0, 1);
  double lat = 0;
  f.py->startOn(0, [&] { (void)pingPong(f.py.get(), ch.a, a.get(), n, 5, true, &lat); });
  f.py->startOn(1, [&] { (void)pingPong(f.py.get(), ch.b, b.get(), n, 5, false, nullptr); });
  f.sys->engine.run();
  EXPECT_GT(lat, 0.0);
}

TEST(Charm4pyTiming, PythonOverheadExceedsCharmPath) {
  // Charm4py latency must sit well above raw Charm++ (the Python layer costs
  // ~py_call + py_wakeup per operation). Small-message one-way latency
  // should be > 10 us where Charm++ manages ~5 us.
  C4pFixture f;
  const std::size_t n = 8;
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 1, n);
  auto ch = f.py->makeChannel(0, 1);
  double lat = 0;
  f.py->startOn(0, [&] { (void)pingPong(f.py.get(), ch.a, a.get(), n, 10, true, &lat); });
  f.py->startOn(1, [&] { (void)pingPong(f.py.get(), ch.b, b.get(), n, 10, false, nullptr); });
  f.sys->engine.run();
  EXPECT_GT(lat, 10.0);
  EXPECT_LT(lat, 60.0);
}

sim::FutureTask stagedSend(c4p::Charm4py* py, int pe, c4p::ChannelEnd* end, const void* dbuf,
                           void* hbuf, std::size_t n, cuda::Stream* s) {
  // The host-staging path of the paper's Fig. 8.
  py->cudaDtoH(pe, py->system().memory.classify(hbuf), py->system().memory.classify(dbuf), n,
               *s);
  co_await py->streamSynchronize(pe, *s);
  co_await end->send(hbuf, n);
}
sim::FutureTask stagedRecv(c4p::Charm4py* py, int pe, c4p::ChannelEnd* end, void* dbuf,
                           void* hbuf, std::size_t n, cuda::Stream* s, bool* done) {
  co_await end->recv(hbuf, n);
  py->cudaHtoD(pe, py->system().memory.classify(dbuf), py->system().memory.classify(hbuf), n,
               *s);
  co_await py->streamSynchronize(pe, *s);
  *done = true;
}

TEST(Charm4py, HostStagingPathMovesDeviceData) {
  C4pFixture f;
  const std::size_t n = 64 * 1024;
  auto ref = pattern(n, 7);
  cuda::DeviceBuffer da(*f.sys, 0, n), db(*f.sys, 1, n);
  std::vector<std::byte> ha(n), hb(n);
  std::memcpy(da.get(), ref.data(), n);
  cuda::Stream s0(*f.sys, 0), s1(*f.sys, 1);
  auto ch = f.py->makeChannel(0, 1);
  bool done = false;
  f.py->startOn(0, [&] { (void)stagedSend(f.py.get(), 0, ch.a, da.get(), ha.data(), n, &s0); });
  f.py->startOn(1, [&] {
    (void)stagedRecv(f.py.get(), 1, ch.b, db.get(), hb.data(), n, &s1, &done);
  });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(ref.data(), db.get(), n), 0);
}

TEST(Charm4pyTiming, GpuAwareBeatsHostStaging) {
  // The paper's Fig. 8 comparison: gpu_direct vs host staging.
  const std::size_t n = 1u << 20;
  auto run = [&](bool direct) {
    C4pFixture f;
    cuda::DeviceBuffer da(*f.sys, 0, n, false), db(*f.sys, 1, n, false);
    std::vector<std::byte> ha(n), hb(n);
    cuda::Stream s0(*f.sys, 0), s1(*f.sys, 1);
    auto ch = f.py->makeChannel(0, 1);
    bool done = false;
    if (direct) {
      f.py->startOn(0, [&] { (void)sendSide(ch.a, da.get(), n); });
      f.py->startOn(1, [&] { (void)recvSide(ch.b, db.get(), n, &done); });
    } else {
      f.py->startOn(0,
                    [&] { (void)stagedSend(f.py.get(), 0, ch.a, da.get(), ha.data(), n, &s0); });
      f.py->startOn(1, [&] {
        (void)stagedRecv(f.py.get(), 1, ch.b, db.get(), hb.data(), n, &s1, &done);
      });
    }
    f.sys->engine.run();
    EXPECT_TRUE(done);
    return sim::toUs(f.sys->engine.now());
  };
  const double direct_us = run(true);
  const double staged_us = run(false);
  EXPECT_LT(direct_us, staged_us);
  EXPECT_GT(staged_us / direct_us, 2.0);  // large messages: multiples, not margins
}

}  // namespace
