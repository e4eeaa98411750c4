#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

namespace {

using namespace cux;

struct UcxFixture {
  explicit UcxFixture(int nodes = 2, bool gdrcopy = true) : m(model::summit(nodes)) {
    m.ucx.gdrcopy_enabled = gdrcopy;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  sim::SplitMix64 rng(seed);
  rng.fill(v.data(), n);
  return v;
}

// --------------------------------------------------------------------------
// Matching semantics
// --------------------------------------------------------------------------

TEST(UcxMatching, ExactTagMatch) {
  UcxFixture f;
  auto src = pattern(64, 1);
  std::vector<std::byte> dst(64);
  bool recv_done = false, send_done = false;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 64, 0x42, ucx::kFullMask,
                           [&](ucx::Request& r) {
                             recv_done = true;
                             EXPECT_EQ(r.matched_tag, 0x42u);
                             EXPECT_EQ(r.bytes, 64u);
                             EXPECT_EQ(r.peer_pe, 0);
                           });
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, 0x42,
                 [&](ucx::Request&) { send_done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(recv_done);
  EXPECT_TRUE(send_done);
  EXPECT_EQ(src, dst);
}

TEST(UcxMatching, MismatchedTagGoesUnexpected) {
  UcxFixture f;
  auto src = pattern(64, 2);
  std::vector<std::byte> dst(64);
  bool recv_done = false;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 64, 0x1, ucx::kFullMask,
                           [&](ucx::Request&) { recv_done = true; });
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, 0x2, {});
  f.sys->engine.run();
  EXPECT_FALSE(recv_done);
  EXPECT_EQ(f.ctx->worker(1).matchStats().unexpected, 1u);
  EXPECT_EQ(f.ctx->worker(1).matchStats().posted, 1u);
  // A matching late receive picks the unexpected message up.
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 64, 0x2, ucx::kFullMask,
                           [&](ucx::Request&) { recv_done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(recv_done);
  EXPECT_EQ(src, dst);
}

TEST(UcxMatching, MaskedWildcardReceive) {
  UcxFixture f;
  auto src = pattern(32, 3);
  std::vector<std::byte> dst(32);
  ucx::Tag seen = 0;
  // Match anything whose top 32 bits equal 0xABCD0000'00000000.
  const ucx::Tag base = 0xABCD0000ull << 32;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 32, base, 0xFFFFFFFFull << 32,
                           [&](ucx::Request& r) { seen = r.matched_tag; });
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 32, base | 777, {});
  f.sys->engine.run();
  EXPECT_EQ(seen, base | 777);
  EXPECT_EQ(src, dst);
}

TEST(UcxMatching, PostedReceivesMatchInPostOrder) {
  UcxFixture f;
  auto src = pattern(16, 4);
  std::vector<std::byte> d1(16), d2(16);
  int first_done = 0;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(d1.data()), 16, 0x9, ucx::kFullMask,
                           [&](ucx::Request&) { first_done = first_done == 0 ? 1 : first_done; });
  f.ctx->worker(1).tagRecv(hw::MemRef::host(d2.data()), 16, 0x9, ucx::kFullMask,
                           [&](ucx::Request&) { first_done = first_done == 0 ? 2 : first_done; });
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 16, 0x9, {});
  f.sys->engine.run();
  EXPECT_EQ(first_done, 1);  // first posted wins
  EXPECT_EQ(src, d1);
}

TEST(UcxMatching, UnexpectedQueueDrainsInArrivalOrder) {
  UcxFixture f;
  auto a = pattern(16, 5);
  auto b = pattern(16, 6);
  std::vector<std::byte> dst(16);
  f.ctx->tagSend(0, 1, hw::MemRef::host(a.data()), 16, 0x7, {});
  f.sys->engine.run();
  f.ctx->tagSend(0, 1, hw::MemRef::host(b.data()), 16, 0x7, {});
  f.sys->engine.run();
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 16, 0x7, ucx::kFullMask, {});
  f.sys->engine.run();
  EXPECT_EQ(dst, a);  // first arrival matched first
}

// --------------------------------------------------------------------------
// amSend rendezvous payload lifetime (regression)
// --------------------------------------------------------------------------

TEST(UcxActiveMessage, RndvPayloadOutlivesSenderCompletion) {
  // Receiver-side copy is delayed past the sender's ATS completion by a
  // large recv overhead. An earlier revision tied the payload's lifetime to
  // the sender-side completion callback, so this ordering read freed memory
  // (visible under ASan; without it the copied bytes could be garbage).
  UcxFixture f;
  f.m.ucx.recv_overhead_us = 500.0;  // ATS control round trip is ~a few us
  f.ctx = std::make_unique<ucx::Context>(*f.sys, f.m.ucx);
  const std::size_t n = 64 * 1024;  // > host_eager_threshold: owned rendezvous
  auto payload = pattern(n, 33);
  const auto expect = payload;
  std::vector<std::byte> dst(n);
  sim::TimePoint send_done = 0, recv_done = 0;
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), n, 0x77, ucx::kFullMask,
                           [&](ucx::Request&) { recv_done = f.sys->engine.now(); });
  f.ctx->amSend(0, 1, 0x77, std::move(payload), 0,
                [&](ucx::Request&) { send_done = f.sys->engine.now(); });
  f.sys->engine.run();
  ASSERT_GT(send_done, 0u);
  ASSERT_GT(recv_done, 0u);
  // The whole point: the sender completed BEFORE the receiver copied.
  EXPECT_LT(send_done, recv_done);
  EXPECT_EQ(dst, expect);
}

TEST(UcxActiveMessage, RndvPayloadToHandlerOutlivesSenderCompletion) {
  // Same inversion, delivered through a persistent handler instead of a
  // posted receive (the deliverToHandler rendezvous path).
  UcxFixture f;
  f.m.ucx.recv_overhead_us = 500.0;
  f.ctx = std::make_unique<ucx::Context>(*f.sys, f.m.ucx);
  const std::size_t n = 64 * 1024;
  auto payload = pattern(n, 34);
  const auto expect = payload;
  std::vector<std::byte> got;
  f.ctx->worker(1).setHandler(0x78, ucx::kFullMask, [&](ucx::Delivery d) {
    got.assign(d.payload.begin(), d.payload.end());
  });
  f.ctx->amSend(0, 1, 0x78, std::move(payload), 0);
  f.sys->engine.run();
  EXPECT_EQ(got, expect);
}

TEST(UcxActiveMessage, HandlerAddressSurvivesLaterRegistrations) {
  // A handler delivery runs recv_overhead after the match, through a pointer
  // to the matched handler; registrations made in between must not move it.
  UcxFixture f;
  f.m.ucx.recv_overhead_us = 500.0;
  f.ctx = std::make_unique<ucx::Context>(*f.sys, f.m.ucx);
  auto payload = pattern(64, 35);
  const auto expect = payload;
  std::vector<std::byte> got;
  sim::TimePoint got_at = 0;
  ucx::Worker& w = f.ctx->worker(1);
  w.setHandler(0x78, ucx::kFullMask, [&](ucx::Delivery d) {
    got.assign(d.payload.begin(), d.payload.end());
    got_at = f.sys->engine.now();
  });
  f.ctx->amSend(0, 1, 0x78, std::move(payload), 0);
  int strays = 0;
  f.sys->engine.schedule(sim::usec(250), [&] {
    EXPECT_TRUE(got.empty());
    for (ucx::Tag t = 0x100; t < 0x140; ++t) {
      w.setHandler(t, ucx::kFullMask, [&strays](ucx::Delivery) { ++strays; });
    }
  });
  f.sys->engine.run();
  EXPECT_EQ(got, expect);
  EXPECT_EQ(strays, 0);
  // Delivered within 500 us of a match made before the registrations.
  EXPECT_GT(got_at, sim::usec(500));
  EXPECT_LT(got_at, sim::usec(750));
}

TEST(UcxMatching, ZeroByteMessages) {
  UcxFixture f;
  bool done = false;
  f.ctx->worker(1).tagRecv(hw::MemRef{}, 0, 0x3, ucx::kFullMask,
                           [&](ucx::Request& r) {
                             done = true;
                             EXPECT_EQ(r.bytes, 0u);
                           });
  f.ctx->tagSend(0, 1, hw::MemRef{}, 0, 0x3, {});
  f.sys->engine.run();
  EXPECT_TRUE(done);
}

// A message longer than its receive is refused when it matches, before any
// byte moves, in every build type. The receive names a 16-byte window of a
// larger zeroed buffer, so nothing outside the window may change either.
TEST(UcxMatching, EagerTruncationThrowsBeforeAnyByteMoves) {
  UcxFixture f;
  auto src = pattern(64, 11);  // eager: below the 8 KiB host threshold
  std::vector<std::byte> dst(256);
  f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 16, 0x5, ucx::kFullMask, {});
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), src.size(), 0x5, {});
  EXPECT_THROW(f.sys->engine.run(), std::length_error);
  EXPECT_EQ(dst, std::vector<std::byte>(256));
}

TEST(UcxMatching, RendezvousTruncationThrowsBeforeAnyByteMoves) {
  UcxFixture f;
  auto src = pattern(64 << 10, 12);  // rendezvous: above the 8 KiB host threshold
  std::vector<std::byte> dst(128 << 10);
  f.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), src.size(), 0x6, {});
  f.sys->engine.run();  // the rendezvous request waits as unexpected
  EXPECT_THROW(f.ctx->worker(1).tagRecv(hw::MemRef::host(dst.data()), 16 << 10, 0x6,
                                        ucx::kFullMask, {}),
               std::length_error);
  f.sys->engine.run();
  EXPECT_EQ(dst, std::vector<std::byte>(128 << 10));
}

// --------------------------------------------------------------------------
// Data integrity across the protocol matrix (eager/rndv x host/device x
// intra/inter-node), parameterized over message sizes spanning the
// thresholds.
// --------------------------------------------------------------------------

enum class Space { Host, Device };

struct MatrixParam {
  std::size_t bytes;
  Space src_space;
  Space dst_space;
  bool inter_node;
};

class UcxDataMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(UcxDataMatrix, RoundTripsBytes) {
  const auto p = GetParam();
  UcxFixture f(2);
  const int src_pe = 0;
  const int dst_pe = p.inter_node ? 6 : 1;

  auto ref = pattern(p.bytes, 0xBEEF + p.bytes);
  std::vector<std::byte> host_src, host_dst;
  void* src = nullptr;
  void* dst = nullptr;
  if (p.src_space == Space::Device) {
    src = cuda::deviceAlloc(*f.sys, src_pe, p.bytes, true).ptr;
    std::memcpy(src, ref.data(), p.bytes);
  } else {
    host_src = ref;
    src = host_src.data();
  }
  if (p.dst_space == Space::Device) {
    dst = cuda::deviceAlloc(*f.sys, dst_pe, p.bytes, true).ptr;
  } else {
    host_dst.resize(p.bytes);
    dst = host_dst.data();
  }

  bool send_done = false, recv_done = false;
  f.ctx->worker(dst_pe).tagRecv(f.sys->memory.classify(dst), p.bytes, 0x77, ucx::kFullMask,
                                [&](ucx::Request& r) {
                                  recv_done = true;
                                  EXPECT_EQ(r.bytes, p.bytes);
                                });
  f.ctx->tagSend(src_pe, dst_pe, f.sys->memory.classify(src), p.bytes, 0x77,
                 [&](ucx::Request&) { send_done = true; });
  f.sys->engine.run();
  ASSERT_TRUE(send_done);
  ASSERT_TRUE(recv_done);
  EXPECT_EQ(std::memcmp(dst, ref.data(), p.bytes), 0);

  if (p.src_space == Space::Device) cuda::deviceFree(*f.sys, src);
  if (p.dst_space == Space::Device) cuda::deviceFree(*f.sys, dst);
}

std::vector<MatrixParam> matrixParams() {
  std::vector<MatrixParam> out;
  // Sizes straddling both eager thresholds (4K device, 8K host) and the
  // pipeline chunk (256K).
  const std::size_t sizes[] = {1, 8, 1024, 4096, 4097, 8192, 8193, 65536, 262144, 262145,
                               1u << 20, 4u << 20};
  for (std::size_t s : sizes) {
    for (Space a : {Space::Host, Space::Device}) {
      for (Space b : {Space::Host, Space::Device}) {
        for (bool inter : {false, true}) {
          out.push_back({s, a, b, inter});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, UcxDataMatrix, ::testing::ValuesIn(matrixParams()),
                         [](const ::testing::TestParamInfo<MatrixParam>& info) {
                           const auto& p = info.param;
                           std::string name = std::to_string(p.bytes) + "B_";
                           name += p.src_space == Space::Host ? "h2" : "d2";
                           name += p.dst_space == Space::Host ? "h_" : "d_";
                           name += p.inter_node ? "inter" : "intra";
                           return name;
                         });

// --------------------------------------------------------------------------
// Protocol timing properties
// --------------------------------------------------------------------------

double oneWayUs(UcxFixture& f, int src_pe, int dst_pe, void* src, void* dst, std::size_t n) {
  sim::TimePoint done_at = 0;
  f.ctx->worker(dst_pe).tagRecv(f.sys->memory.classify(dst), n, 0x1, ucx::kFullMask,
                                [&](ucx::Request&) { done_at = f.sys->engine.now(); });
  f.ctx->tagSend(src_pe, dst_pe, f.sys->memory.classify(src), n, 0x1, {});
  f.sys->engine.run();
  return sim::toUs(done_at);
}

TEST(UcxTiming, SmallDeviceLatencyNearTwoMicroseconds) {
  // The paper reports the raw UCX GPU-GPU transfer at < 2 us (Sec. IV-B1).
  UcxFixture f(2);
  cuda::DeviceBuffer a(*f.sys, 0, 8), b(*f.sys, 6, 8);
  const double us = oneWayUs(f, 0, 6, a.get(), b.get(), 8);
  EXPECT_GT(us, 1.0);
  EXPECT_LT(us, 4.0);
}

TEST(UcxTiming, GdrcopyDisabledIncreasesSmallDeviceLatency) {
  // The paper: detecting GDRCopy is essential for small-message latency.
  UcxFixture with(2, true), without(2, false);
  cuda::DeviceBuffer a1(*with.sys, 0, 8), b1(*with.sys, 6, 8);
  cuda::DeviceBuffer a2(*without.sys, 0, 8), b2(*without.sys, 6, 8);
  const double fast = oneWayUs(with, 0, 6, a1.get(), b1.get(), 8);
  const double slow = oneWayUs(without, 0, 6, a2.get(), b2.get(), 8);
  EXPECT_GT(slow, 2.0 * fast);
}

TEST(UcxTiming, IntraNodeLargeDeviceNearNvlinkBandwidth) {
  UcxFixture f(1);
  const std::size_t n = 4u << 20;
  cuda::DeviceBuffer a(*f.sys, 0, n, false), b(*f.sys, 1, n, false);
  const double us = oneWayUs(f, 0, 1, a.get(), b.get(), n);
  const double gbps = static_cast<double>(n) / 1e3 / us;
  EXPECT_GT(gbps, 40.0);
  EXPECT_LT(gbps, 50.0);
}

TEST(UcxTiming, InterNodeLargeDevicePipelinesNearIbBandwidth) {
  UcxFixture f(2);
  const std::size_t n = 4u << 20;
  cuda::DeviceBuffer a(*f.sys, 0, n, false), b(*f.sys, 6, n, false);
  const double us = oneWayUs(f, 0, 6, a.get(), b.get(), n);
  const double gbps = static_cast<double>(n) / 1e3 / us;
  // Pipelined staging: most of EDR's 12.5 GB/s but not all (paper: ~10).
  EXPECT_GT(gbps, 8.0);
  EXPECT_LT(gbps, 12.5);
}

TEST(UcxTiming, LatencyMonotonicInSize) {
  UcxFixture f(2);
  double prev = 0.0;
  for (std::size_t n : {64u, 4096u, 65536u, 1u << 20}) {
    UcxFixture g(2);
    cuda::DeviceBuffer a(*g.sys, 0, n, false), b(*g.sys, 6, n, false);
    const double us = oneWayUs(g, 0, 6, a.get(), b.get(), n);
    EXPECT_GT(us, prev);
    prev = us;
  }
}

TEST(UcxTiming, EagerSendCompletesLocallyBeforeDelivery) {
  UcxFixture f(2);
  auto src = pattern(128, 9);
  std::vector<std::byte> dst(128);
  sim::TimePoint send_done = 0, recv_done = 0;
  f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), 128, 0x1, ucx::kFullMask,
                           [&](ucx::Request&) { recv_done = f.sys->engine.now(); });
  f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), 128, 0x1,
                 [&](ucx::Request&) { send_done = f.sys->engine.now(); });
  f.sys->engine.run();
  EXPECT_LT(send_done, recv_done);
}

TEST(UcxTiming, RndvSendCompletesAfterDataPulled) {
  UcxFixture f(2);
  const std::size_t n = 1u << 20;
  std::vector<std::byte> src(n), dst(n);
  sim::TimePoint send_done = 0, recv_done = 0;
  f.ctx->worker(6).tagRecv(hw::MemRef::host(dst.data()), n, 0x1, ucx::kFullMask,
                           [&](ucx::Request&) { recv_done = f.sys->engine.now(); });
  f.ctx->tagSend(0, 6, hw::MemRef::host(src.data()), n, 0x1,
                 [&](ucx::Request&) { send_done = f.sys->engine.now(); });
  f.sys->engine.run();
  EXPECT_GT(send_done, 0u);
  EXPECT_GE(send_done, recv_done);  // ATS travels back after the data lands
}

// Property: many concurrent messages with random sizes/tags all arrive
// intact and in FIFO order per tag.
TEST(UcxProperty, ConcurrentRandomTraffic) {
  UcxFixture f(2);
  sim::SplitMix64 rng(42);
  constexpr int kMessages = 60;
  struct InFlight {
    std::vector<std::byte> src;
    std::vector<std::byte> dst;
    bool done = false;
  };
  std::vector<InFlight> msgs(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    auto& m = msgs[i];
    const std::size_t n = 1 + rng.below(512 * 1024);
    m.src = pattern(n, 100 + static_cast<std::uint64_t>(i));
    m.dst.resize(n);
    const int dst_pe = 1 + static_cast<int>(rng.below(11));
    const ucx::Tag tag = 1000 + static_cast<ucx::Tag>(i);
    f.ctx->worker(dst_pe).tagRecv(hw::MemRef::host(m.dst.data()), n, tag, ucx::kFullMask,
                                  [&m](ucx::Request&) { m.done = true; });
    f.ctx->tagSend(0, dst_pe, hw::MemRef::host(m.src.data()), n, tag, {});
  }
  f.sys->engine.run();
  for (auto& m : msgs) {
    EXPECT_TRUE(m.done);
    EXPECT_EQ(m.src, m.dst);
  }
}

}  // namespace
