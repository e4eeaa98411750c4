#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "apps/osu/osu.hpp"

// Counting operator new: bytes requested through the global allocator, so a
// test can bound the host memory one benchmark point allocates. The
// replacements are kept out of line: inlined into this file's own
// new-expressions, GCC would flag the malloc/free pairing as mismatched.
static std::uint64_t g_alloc_bytes = 0;

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cux;
using namespace cux::osu;

BenchConfig quick(Stack s, Mode m, Placement p) {
  BenchConfig cfg;
  cfg.stack = s;
  cfg.mode = m;
  cfg.place = p;
  cfg.iters = 5;
  cfg.warmup = 2;
  cfg.window = 16;
  return cfg;
}

TEST(OsuConfig, DefaultSizesSpanOneByteToFourMb) {
  const auto sizes = defaultSizes();
  EXPECT_EQ(sizes.front(), 1u);
  EXPECT_EQ(sizes.back(), 4u << 20);
  EXPECT_EQ(sizes.size(), 23u);
}

TEST(OsuConfig, Names) {
  EXPECT_STREQ(name(Stack::Charm), "Charm++");
  EXPECT_STREQ(name(Stack::Ampi), "AMPI");
  EXPECT_STREQ(name(Stack::Ompi), "OpenMPI");
  EXPECT_STREQ(name(Stack::Charm4py), "Charm4py");
  EXPECT_STREQ(suffix(Mode::Device), "D");
  EXPECT_STREQ(suffix(Mode::HostStaging), "H");
}

// Latency sanity: every stack produces positive, size-monotonic latencies.
class OsuLatencySanity : public ::testing::TestWithParam<Stack> {};

TEST_P(OsuLatencySanity, PositiveAndMonotonicOverSize) {
  auto cfg = quick(GetParam(), Mode::Device, Placement::IntraNode);
  cfg.sizes = {64, 65536, 4u << 20};
  const auto pts = runLatency(cfg);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_GT(pts[0].value, 0.0);
  EXPECT_LT(pts[0].value, pts[1].value);
  EXPECT_LT(pts[1].value, pts[2].value);
}

std::string stackParamName(const ::testing::TestParamInfo<Stack>& info) {
  std::string n = name(info.param);
  for (char& c : n) {
    if (c == '+') c = 'p';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, OsuLatencySanity,
                         ::testing::Values(Stack::Charm, Stack::Ampi, Stack::Ompi,
                                           Stack::Charm4py),
                         stackParamName);

// The paper's headline: GPU-aware beats host staging, with the gap widening
// with message size, for every stack and placement.
struct ShapeParam {
  Stack stack;
  Placement place;
};
class OsuShape : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(OsuShape, DeviceBeatsHostStagingAtLargeSizes) {
  const auto p = GetParam();
  auto h = quick(p.stack, Mode::HostStaging, p.place);
  auto d = quick(p.stack, Mode::Device, p.place);
  h.sizes = d.sizes = {4u << 20};
  const double lat_h = runLatency(h)[0].value;
  const double lat_d = runLatency(d)[0].value;
  EXPECT_GT(lat_h / lat_d, p.place == Placement::IntraNode ? 5.0 : 1.2);
  const double bw_h = runBandwidth(h)[0].value;
  const double bw_d = runBandwidth(d)[0].value;
  EXPECT_GT(bw_d / bw_h, p.place == Placement::IntraNode ? 5.0 : 1.1);
}

std::vector<ShapeParam> shapeParams() {
  std::vector<ShapeParam> out;
  for (Stack s : {Stack::Charm, Stack::Ampi, Stack::Ompi, Stack::Charm4py}) {
    for (Placement p : {Placement::IntraNode, Placement::InterNode}) out.push_back({s, p});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, OsuShape, ::testing::ValuesIn(shapeParams()),
                         [](const ::testing::TestParamInfo<ShapeParam>& info) {
                           std::string n = name(info.param.stack);
                           for (char& c : n) {
                             if (c == '+') c = 'p';
                           }
                           n += info.param.place == Placement::IntraNode ? "_intra" : "_inter";
                           return n;
                         });

// Layering costs (paper Sec. IV-B1): OpenMPI < Charm++ < AMPI < Charm4py for
// small-message device latency.
TEST(OsuOrdering, SmallMessageDeviceLatencyOrdering) {
  auto lat = [&](Stack s) {
    auto cfg = quick(s, Mode::Device, Placement::IntraNode);
    cfg.sizes = {8};
    return runLatency(cfg)[0].value;
  };
  const double ompi = lat(Stack::Ompi);
  const double charm = lat(Stack::Charm);
  const double ampi = lat(Stack::Ampi);
  const double c4p = lat(Stack::Charm4py);
  EXPECT_LT(ompi, charm);
  EXPECT_LT(charm, ampi);
  EXPECT_LT(ampi, c4p);
  // AMPI's overhead above UCX is ~8 us in the paper.
  EXPECT_NEAR(ampi - ompi, 8.0, 4.0);
}

TEST(OsuOrdering, IntraNodeFasterThanInterNode) {
  for (Stack s : {Stack::Charm, Stack::Ompi}) {
    auto intra = quick(s, Mode::Device, Placement::IntraNode);
    auto inter = quick(s, Mode::Device, Placement::InterNode);
    intra.sizes = inter.sizes = {1u << 20};
    EXPECT_LT(runLatency(intra)[0].value, runLatency(inter)[0].value);
  }
}

TEST(OsuBandwidth, PeaksNearLinkLimits) {
  // Charm++ intra-node peak near NVLink (paper: 44.7 GB/s), inter-node near
  // the pipelined EDR limit (paper: 10 GB/s).
  auto intra = quick(Stack::Charm, Mode::Device, Placement::IntraNode);
  auto inter = quick(Stack::Charm, Mode::Device, Placement::InterNode);
  intra.sizes = inter.sizes = {4u << 20};
  const double bw_intra = runBandwidth(intra)[0].value / 1000.0;  // GB/s
  const double bw_inter = runBandwidth(inter)[0].value / 1000.0;
  EXPECT_GT(bw_intra, 40.0);
  EXPECT_LT(bw_intra, 50.0);
  EXPECT_GT(bw_inter, 8.0);
  EXPECT_LT(bw_inter, 12.5);
}

TEST(OsuBandwidth, AmpiHostStagingDipAt128K) {
  // Paper Sec. IV-B2: AMPI-H bandwidth dips at 128 KB (eager->rendezvous).
  auto cfg = quick(Stack::Ampi, Mode::HostStaging, Placement::IntraNode);
  cfg.sizes = {64 * 1024, 128 * 1024, 256 * 1024};
  const auto pts = runBandwidth(cfg);
  EXPECT_LT(pts[1].value, pts[0].value);  // the dip
  EXPECT_GT(pts[2].value, pts[1].value);  // recovery
}

TEST(OsuBandwidth, Charm4pyBelowOthersButRising) {
  // Paper: Charm4py reaches only ~35.5 GB/s intra-node but keeps rising.
  auto cfg = quick(Stack::Charm4py, Mode::Device, Placement::IntraNode);
  cfg.sizes = {1u << 20, 4u << 20};
  const auto pts = runBandwidth(cfg);
  EXPECT_LT(pts[1].value / 1000.0, 45.0);
  EXPECT_GT(pts[1].value, pts[0].value);
}

// The OSU fixtures are timing-only, so -H staging buffers are address space,
// not host memory: a 4 MiB host-staged bandwidth point allocates about what
// the GPU-aware point does. Real 4 MiB staging vectors would add 8-16 MiB.
class OsuHostStagingMemory : public ::testing::TestWithParam<Stack> {};

TEST_P(OsuHostStagingMemory, FourMiBBandwidthPointAllocatesLikeDevice) {
  constexpr std::size_t kBytes = 4u << 20;
  auto bytesAllocated = [&](Mode m) {
    const auto cfg = quick(GetParam(), m, Placement::IntraNode);
    const std::uint64_t before = g_alloc_bytes;
    EXPECT_GT(bandwidthPoint(cfg, kBytes), 0.0);
    return g_alloc_bytes - before;
  };
  const std::uint64_t host = bytesAllocated(Mode::HostStaging);
  const std::uint64_t device = bytesAllocated(Mode::Device);
  EXPECT_LE(host, device + (2u << 20)) << "-H allocated " << host << " B, -D " << device << " B";
}

// 64 KiB sits below the 128 KiB pack threshold, so every -H message packs
// its payload inline (AMPI envelope, Charm++ packed buffer, Charm4py channel
// message). From unbacked staging memory that payload travels as length
// only; zero-filled placeholder vectors would add several bytes per byte
// moved.
TEST_P(OsuHostStagingMemory, SixtyFourKiBInlinePointAllocatesLikeDevice) {
  constexpr std::size_t kBytes = 64u << 10;
  auto bytesAllocated = [&](Mode m) {
    const auto cfg = quick(GetParam(), m, Placement::IntraNode);
    const std::uint64_t before = g_alloc_bytes;
    EXPECT_GT(bandwidthPoint(cfg, kBytes), 0.0);
    return g_alloc_bytes - before;
  };
  const std::uint64_t host = bytesAllocated(Mode::HostStaging);
  const std::uint64_t device = bytesAllocated(Mode::Device);
  EXPECT_LE(host, device + (256u << 10)) << "-H allocated " << host << " B, -D " << device
                                         << " B";
}

INSTANTIATE_TEST_SUITE_P(AllStacks, OsuHostStagingMemory,
                         ::testing::Values(Stack::Charm, Stack::Ampi, Stack::Ompi,
                                           Stack::Charm4py),
                         stackParamName);

// A placement the machine cannot host is rejected in every build, not only
// where assert() is compiled in (one node has no inter-node peer PE).
class OsuPlacementCheck : public ::testing::TestWithParam<Stack> {};

TEST_P(OsuPlacementCheck, InterNodeOnOneNodeThrows) {
  auto cfg = quick(GetParam(), Mode::Device, Placement::InterNode);
  cfg.model = model::summit(1);
  EXPECT_THROW((void)latencyPoint(cfg, 4096), std::invalid_argument);
  EXPECT_THROW((void)bandwidthPoint(cfg, 4096), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, OsuPlacementCheck,
                         ::testing::Values(Stack::Charm, Stack::Ampi, Stack::Ompi,
                                           Stack::Charm4py),
                         stackParamName);

// osu_bibw and osu_multi_lat are MPI-only. A Charm++ or Charm4py config is
// rejected in every build instead of silently running OpenMPI's fixture and
// reporting its numbers under the requested stack's name.
class OsuMpiOnly : public ::testing::TestWithParam<Stack> {};

TEST_P(OsuMpiOnly, BiBandwidthAndMultiLatencyRejectNonMpiStacks) {
  auto cfg = quick(GetParam(), Mode::Device, Placement::InterNode);
  cfg.sizes = {8};
  EXPECT_THROW((void)runBiBandwidth(cfg), std::invalid_argument);
  EXPECT_THROW((void)runMultiLatency(cfg), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(NonMpiStacks, OsuMpiOnly, ::testing::Values(Stack::Charm, Stack::Charm4py),
                         stackParamName);

TEST(OsuDeterminism, RepeatedRunsIdentical) {
  auto cfg = quick(Stack::Ampi, Mode::Device, Placement::InterNode);
  cfg.sizes = {4096, 1u << 20};
  const auto a = runLatency(cfg);
  const auto b = runLatency(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
}

}  // namespace
