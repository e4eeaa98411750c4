#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/am.hpp"
#include "ucx/rma.hpp"
#include "ucx/stream.hpp"

namespace {

using namespace cux;

struct Fix {
  explicit Fix(int nodes = 2) : m(model::summit(nodes)) {
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
// RMA
// --------------------------------------------------------------------------

TEST(Rma, PutWritesRemoteHostMemory) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  std::vector<std::byte> remote(4096), local = pattern(1024, 1);
  auto rkey = rma.memMap(6, remote.data(), remote.size());
  bool done = false;
  rma.put(0, local.data(), 1024, rkey, 512, [&](ucx::Request&) { done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(remote.data() + 512, local.data(), 1024), 0);
}

TEST(Rma, GetReadsRemoteDeviceMemory) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer remote(*f.sys, 6, n);
  auto ref = pattern(n, 2);
  std::memcpy(remote.get(), ref.data(), n);
  cuda::DeviceBuffer local(*f.sys, 0, n);
  auto rkey = rma.memMap(6, remote.get(), n);
  bool done = false;
  rma.get(0, local.get(), n, rkey, 0, [&](ucx::Request&) { done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(local.get(), ref.data(), n), 0);
}

TEST(Rma, GetCostsARoundTripMoreThanPut) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  std::vector<std::byte> remote(1 << 16), local(1 << 16);
  auto rkey = rma.memMap(6, remote.data(), remote.size());
  sim::TimePoint put_done = 0, get_done = 0;
  rma.put(0, local.data(), 1 << 16, rkey, 0,
          [&](ucx::Request&) { put_done = f.sys->engine.now(); });
  f.sys->engine.run();
  const sim::TimePoint t1 = f.sys->engine.now();
  rma.get(0, local.data(), 1 << 16, rkey, 0,
          [&](ucx::Request&) { get_done = f.sys->engine.now(); });
  f.sys->engine.run();
  EXPECT_GT(get_done - t1, put_done);  // get pays the extra request leg
}

TEST(Rma, FetchAddIsAtomicAcrossConcurrentCallers) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  std::uint64_t counter = 0;
  auto rkey = rma.memMap(6, &counter, 8);
  std::vector<std::uint64_t> fetched(11, ~0ull);
  for (int pe = 0; pe < 11; ++pe) {
    rma.atomicFetchAdd(pe, rkey, 0, 1, &fetched[static_cast<std::size_t>(pe)]);
  }
  f.sys->engine.run();
  EXPECT_EQ(counter, 11u);
  // Every caller observed a distinct pre-add value.
  std::vector<bool> seen(11, false);
  for (auto v : fetched) {
    ASSERT_LT(v, 11u);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Rma, CompareSwapOnlyOneWinner) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  std::uint64_t lock = 0;
  auto rkey = rma.memMap(3, &lock, 8);
  std::vector<std::uint64_t> prev(6, ~0ull);
  for (int pe = 0; pe < 6; ++pe) {
    rma.atomicCompareSwap(pe, rkey, 0, /*expected=*/0, /*desired=*/100 + static_cast<std::uint64_t>(pe),
                          &prev[static_cast<std::size_t>(pe)]);
  }
  f.sys->engine.run();
  int winners = 0;
  for (auto v : prev) {
    if (v == 0) ++winners;
  }
  EXPECT_EQ(winners, 1);
  EXPECT_GE(lock, 100u);
}

TEST(Rma, UnbackedRegionsMoveNoBytesButKeepTiming) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer remote(*f.sys, 6, n, false);
  cuda::DeviceBuffer local(*f.sys, 0, n, false);
  auto rkey = rma.memMap(6, remote.get(), n);
  sim::TimePoint done_at = 0;
  rma.put(0, local.get(), n, rkey, 0, [&](ucx::Request&) { done_at = f.sys->engine.now(); });
  f.sys->engine.run();
  EXPECT_GT(sim::toUs(done_at), sim::toUs(sim::transferTime(n, 12.5)));
}

// Caller-input checks run in every build type, not only under assert.

TEST(Rma, InvalidRkeyThrows) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  std::vector<std::byte> local(64);
  std::uint64_t result = 0;
  const ucx::RemoteKey none;
  EXPECT_THROW(rma.put(0, local.data(), 64, none, 0), std::invalid_argument);
  EXPECT_THROW(rma.get(0, local.data(), 64, none, 0), std::invalid_argument);
  EXPECT_THROW(rma.atomicFetchAdd(0, none, 0, 1, &result), std::invalid_argument);
  EXPECT_THROW(rma.atomicCompareSwap(0, none, 0, 0, 1, &result), std::invalid_argument);
  EXPECT_TRUE(f.sys->engine.empty()) << "a rejected operation must schedule nothing";
}

TEST(Rma, OutOfRangeAccessThrows) {
  Fix f;
  ucx::Rma rma(*f.ctx);
  std::vector<std::byte> remote(4096), local(4096);
  const auto rkey = rma.memMap(6, remote.data(), remote.size());
  std::uint64_t result = 0;
  // One byte past the end.
  EXPECT_THROW(rma.put(0, local.data(), 1024, rkey, 3073), std::invalid_argument);
  EXPECT_THROW(rma.get(0, local.data(), 4097, rkey, 0), std::invalid_argument);
  EXPECT_THROW(rma.atomicFetchAdd(0, rkey, 4089, 1, &result), std::invalid_argument);
  EXPECT_THROW(rma.atomicCompareSwap(0, rkey, 4089, 0, 1, &result), std::invalid_argument);
  // offset + len wraps to 1: a naive sum check would accept it.
  EXPECT_THROW(rma.put(0, local.data(), 2, rkey, UINT64_MAX), std::invalid_argument);
  EXPECT_THROW(rma.get(0, local.data(), 2, rkey, UINT64_MAX), std::invalid_argument);
  EXPECT_THROW(rma.atomicFetchAdd(0, rkey, UINT64_MAX - 6, 1, &result), std::invalid_argument);
  EXPECT_TRUE(f.sys->engine.empty());
  // The exact end of the region is still in range.
  bool done = false;
  rma.put(0, local.data(), 1024, rkey, 3072, [&](ucx::Request&) { done = true; });
  rma.atomicFetchAdd(0, rkey, 4088, 1, &result);
  f.sys->engine.run();
  EXPECT_TRUE(done);
}

TEST(ActiveMessages, IdOutsideEightTagBitsThrows) {
  Fix f;
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> buf(64);
  auto alloc = [&buf](std::uint64_t, int) -> void* { return buf.data(); };
  auto handler = [](void*, std::uint64_t, int) {};
  EXPECT_THROW(am.registerAm(0, 256, alloc, handler), std::invalid_argument);
  EXPECT_THROW(am.amSend(0, 1, 256, buf.data(), 64), std::invalid_argument);
  // id 256 on PE 0 would have aliased id 0 on PE 1.
  am.registerAm(1, 0, alloc, handler);
  am.registerAm(0, 255, alloc, handler);
}

TEST(ActiveMessages, DuplicateRegistrationThrows) {
  Fix f;
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> buf(64);
  int first = 0;
  auto alloc = [&buf](std::uint64_t, int) -> void* { return buf.data(); };
  am.registerAm(2, 7, alloc, [&first](void*, std::uint64_t, int) { ++first; });
  EXPECT_THROW(am.registerAm(2, 7, alloc, [](void*, std::uint64_t, int) {}),
               std::invalid_argument);
  am.registerAm(3, 7, alloc, [](void*, std::uint64_t, int) {});  // other PE: fine
  // The original registration still receives the message.
  std::vector<std::byte> src(64);
  am.amSend(0, 2, 7, src.data(), 64);
  f.sys->engine.run();
  EXPECT_EQ(first, 1);
}

// --------------------------------------------------------------------------
// Streams
// --------------------------------------------------------------------------

TEST(Stream, BytesArriveInOrder) {
  Fix f;
  ucx::Streams streams(*f.ctx);
  auto a = pattern(100, 3);
  auto b = pattern(200, 4);
  std::vector<std::byte> out(300);
  bool done = false;
  streams.streamSend(0, 1, a.data(), a.size());
  streams.streamSend(0, 1, b.data(), b.size());
  streams.streamRecv(1, 0, out.data(), 300, [&](ucx::Request&) { done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(out.data(), a.data(), 100), 0);
  EXPECT_EQ(std::memcmp(out.data() + 100, b.data(), 200), 0);
}

TEST(Stream, RecvSpansMessageBoundaries) {
  // One send satisfied by several receives and vice versa — no boundaries.
  Fix f;
  ucx::Streams streams(*f.ctx);
  auto data = pattern(1000, 5);
  std::vector<std::byte> o1(300), o2(300), o3(400);
  int done = 0;
  streams.streamRecv(1, 0, o1.data(), 300, [&](ucx::Request&) { ++done; });
  streams.streamRecv(1, 0, o2.data(), 300, [&](ucx::Request&) { ++done; });
  streams.streamRecv(1, 0, o3.data(), 400, [&](ucx::Request&) { ++done; });
  streams.streamSend(0, 1, data.data(), 1000);
  f.sys->engine.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(std::memcmp(o1.data(), data.data(), 300), 0);
  EXPECT_EQ(std::memcmp(o2.data(), data.data() + 300, 300), 0);
  EXPECT_EQ(std::memcmp(o3.data(), data.data() + 600, 400), 0);
}

TEST(Stream, PartialDataLeavesRecvPending) {
  Fix f;
  ucx::Streams streams(*f.ctx);
  auto data = pattern(100, 6);
  std::vector<std::byte> out(200);
  bool done = false;
  streams.streamRecv(1, 0, out.data(), 200, [&](ucx::Request&) { done = true; });
  streams.streamSend(0, 1, data.data(), 100);
  f.sys->engine.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(streams.available(1, 0), 100u);
  streams.streamSend(0, 1, data.data(), 100);
  f.sys->engine.run();
  EXPECT_TRUE(done);
}

TEST(Stream, MixedEagerRndvSegmentsStayOrdered) {
  // A large (rendezvous) segment followed by a small (eager) one: the eager
  // segment physically overtakes, but stream order must hold.
  Fix f;
  ucx::Streams streams(*f.ctx);
  auto big = pattern(512 * 1024, 7);
  auto small = pattern(64, 8);
  std::vector<std::byte> out(big.size() + small.size());
  bool done = false;
  streams.streamSend(0, 6, big.data(), big.size());
  streams.streamSend(0, 6, small.data(), small.size());
  streams.streamRecv(6, 0, out.data(), out.size(), [&](ucx::Request&) { done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(out.data(), big.data(), big.size()), 0);
  EXPECT_EQ(std::memcmp(out.data() + big.size(), small.data(), small.size()), 0);
}

TEST(Stream, DeviceBuffersTravelTheStreamApi) {
  Fix f;
  ucx::Streams streams(*f.ctx);
  const std::size_t n = 256 * 1024;
  cuda::DeviceBuffer src(*f.sys, 0, n);
  auto ref = pattern(n, 9);
  std::memcpy(src.get(), ref.data(), n);
  std::vector<std::byte> out(n);
  bool done = false;
  streams.streamSend(0, 6, src.get(), n);
  streams.streamRecv(6, 0, out.data(), n, [&](ucx::Request&) { done = true; });
  f.sys->engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(std::memcmp(out.data(), ref.data(), n), 0);
}

TEST(Stream, IndependentPairsDoNotInterfere) {
  Fix f;
  ucx::Streams streams(*f.ctx);
  auto a = pattern(64, 10), b = pattern(64, 11);
  std::vector<std::byte> oa(64), ob(64);
  int done = 0;
  streams.streamSend(0, 2, a.data(), 64);
  streams.streamSend(1, 2, b.data(), 64);
  streams.streamRecv(2, 0, oa.data(), 64, [&](ucx::Request&) { ++done; });
  streams.streamRecv(2, 1, ob.data(), 64, [&](ucx::Request&) { ++done; });
  f.sys->engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(oa, a);
  EXPECT_EQ(ob, b);
}

}  // namespace
