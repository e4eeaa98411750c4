#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "apps/osu/osu.hpp"
#include "hw/cuda.hpp"
#include "hw/path_sched.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

/// Multi-path NVLink / multi-rail NIC transfers: route enumeration on
/// hw::Machine, the occupancy-aware chunk scheduler, the determinism
/// contracts (disabled == bit-identical to the seed; enabled == run-to-run
/// identical), and the measured speedups the feature exists for.

namespace {

using namespace cux;

// --------------------------------------------------------------------------
// hw::Path hardening: capacity overflow is a hard error in every build mode.
// --------------------------------------------------------------------------

TEST(MultiPath, PathOverflowThrows) {
  hw::Link l("x", hw::LinkParams{1.0, 50.0});
  hw::Path p;
  for (std::size_t i = 0; i < hw::Path::kMaxLinks; ++i) p.push_back(&l);
  EXPECT_EQ(p.size(), hw::Path::kMaxLinks);
  EXPECT_THROW(p.push_back(&l), std::length_error);
  EXPECT_EQ(p.size(), hw::Path::kMaxLinks);  // failed push leaves the path intact
}

// --------------------------------------------------------------------------
// Route enumeration.
// --------------------------------------------------------------------------

TEST(MultiPath, RouteEnumerationIntraNode) {
  model::Model m = model::summit(1);
  m.machine.nvlink_bricks = 2;
  hw::Machine machine(m.machine);
  // PEs 0 and 1 share a socket on summit (3 GPUs per socket).
  const auto routes = machine.deviceRoutes(0, 1);
  ASSERT_EQ(routes.size(), 2u);  // direct plus one staged route
  EXPECT_STREQ(routes[0].kind, "direct");
  EXPECT_EQ(routes[0].path.size(), 2u);  // gpu0 up, gpu1 down — same socket, no X-Bus
  EXPECT_STREQ(routes[1].kind, "staged");
  EXPECT_EQ(routes[1].path.size(), 4u);  // up, neighbor down, neighbor up, down
  // The staged route rides brick 1, so it shares no link with the direct
  // route (the speedup exists because the paths are disjoint).
  for (hw::Link* a : routes[0].path)
    for (hw::Link* b : routes[1].path) EXPECT_NE(a, b);
  // Across sockets the neighbor is still on the source's socket (GPU 1), so
  // only the last hop crosses the X-Bus: up, neighbor down, neighbor up,
  // X-Bus, down.
  const auto cross = machine.deviceRoutes(0, 4);
  ASSERT_EQ(cross.size(), 2u);
  EXPECT_EQ(cross[0].path.size(), 3u);  // up, X-Bus, down
  EXPECT_EQ(cross[1].path.size(), 5u);
  EXPECT_EQ(cross[1].path[1], &machine.gpuDown(hw::GpuId{0, 1}, 1));
  // Same GPU: nothing to route.
  EXPECT_TRUE(machine.deviceRoutes(2, 2).empty());
}

TEST(MultiPath, RouteEnumerationInterNodeRails) {
  model::Model m = model::summit(2);
  m.machine.nic_rails = 2;
  hw::Machine machine(m.machine);
  const auto routes = machine.deviceRoutes(0, 6);
  ASSERT_EQ(routes.size(), 2u);  // one route per rail; staging is intra-node only
  for (std::size_t r = 0; r < routes.size(); ++r) {
    EXPECT_STREQ(routes[r].kind, "rail");
    EXPECT_EQ(routes[r].rail, static_cast<int>(r));
    EXPECT_EQ(routes[r].path.size(), 4u);  // up, nic up, nic down, down
  }
  // The rails use distinct NIC links in both directions.
  EXPECT_NE(routes[0].path[1], routes[1].path[1]);
  EXPECT_NE(routes[0].path[2], routes[1].path[2]);
}

TEST(MultiPath, SingleBrickSingleRailKeepsSeedLinkNames) {
  // The default layout (1 brick, 1 rail) must be indistinguishable from the
  // seed: same link names, no suffixes.
  model::Model m = model::summit(1);
  hw::Machine machine(m.machine);
  EXPECT_EQ(machine.gpuUp(hw::GpuId{0, 0}).name(), "n0.gpu0.up");
  EXPECT_EQ(machine.nicUp(0).name(), "n0.nic.up");
}

// --------------------------------------------------------------------------
// PathScheduler: projection, least-loaded assignment, deterministic
// tie-break, exclusion.
// --------------------------------------------------------------------------

std::vector<hw::Machine::Route> twoRoutes(hw::Link& a, hw::Link& b) {
  hw::Machine::Route r0, r1;
  r0.path.push_back(&a);
  r1.path.push_back(&b);
  return {r0, r1};
}

TEST(MultiPath, SchedulerProjectionMatchesCommit) {
  hw::Link a("a", hw::LinkParams{1.0, 50.0}), b("b", hw::LinkParams{2.0, 25.0});
  hw::PathScheduler sched(twoRoutes(a, b));
  const std::uint64_t chunk = 512 * 1024;
  for (int i = 0; i < 6; ++i) {
    const std::size_t pick = sched.best(0, chunk);
    const sim::TimePoint projected = sched.project(pick, 0, chunk);
    EXPECT_EQ(sched.commit(pick, 0, chunk), projected) << "chunk " << i;
  }
  // Both routes carried bytes: the scheduler really did split.
  EXPECT_GT(sched.bytesPerRoute()[0], 0u);
  EXPECT_GT(sched.bytesPerRoute()[1], 0u);
  // The faster link got at least as many bytes as the slower one.
  EXPECT_GE(sched.bytesPerRoute()[0], sched.bytesPerRoute()[1]);
}

TEST(MultiPath, SchedulerTieBreaksTowardsLowestIndex) {
  hw::Link a("a", hw::LinkParams{1.0, 50.0}), b("b", hw::LinkParams{1.0, 50.0});
  hw::PathScheduler sched(twoRoutes(a, b));
  EXPECT_EQ(sched.best(0, 4096), 0u);  // identical idle routes: lowest index wins
  sched.commit(0, 0, 1u << 20);
  EXPECT_EQ(sched.best(0, 4096), 1u);  // route 0 now busy: least-loaded wins
}

TEST(MultiPath, SchedulerExcludeBarsRouteUnlessLast) {
  hw::Link a("a", hw::LinkParams{1.0, 50.0}), b("b", hw::LinkParams{1.0, 50.0});
  hw::PathScheduler sched(twoRoutes(a, b));
  EXPECT_EQ(sched.best(0, 4096, /*exclude=*/0), 1u);
  hw::Machine::Route only;
  only.path.push_back(&a);
  hw::PathScheduler one(std::vector<hw::Machine::Route>{only});
  EXPECT_EQ(one.best(0, 4096, /*exclude=*/0), 0u);  // sole route: exclusion ignored
}

TEST(MultiPath, NumChunks) {
  const hw::PathScheduler::Params p;  // 512 KiB chunks, 2 MiB min split
  EXPECT_EQ(hw::PathScheduler::numChunks(1, p), 1u);
  EXPECT_EQ(hw::PathScheduler::numChunks(512 * 1024, p), 1u);
  EXPECT_EQ(hw::PathScheduler::numChunks(512 * 1024 + 1, p), 2u);
  EXPECT_EQ(hw::PathScheduler::numChunks(4u << 20, p), 8u);
}

// --------------------------------------------------------------------------
// Determinism contracts.
// --------------------------------------------------------------------------

/// Device rendezvous traffic (intra + inter node, below and above the split
/// threshold) under a given machine/UCX configuration; returns the trace
/// hash and asserts everything completed.
std::uint64_t deviceTrafficHash(const model::Model& m) {
  hw::System sys(m.machine);
  sys.trace.enable();
  ucx::Context ctx(sys, m.ucx);
  std::vector<cuda::DeviceBuffer> bufs;
  int done = 0, expected = 0;
  int pair = 0;
  for (const std::uint64_t size : {64u * 1024u, 512u * 1024u, 4u * 1024u * 1024u}) {
    for (const int dst_pe : {1, 4, 6}) {  // same socket / other socket / other node
      const auto tag = static_cast<ucx::Tag>(0x300 + pair++);
      bufs.emplace_back(sys, 0, size);
      bufs.emplace_back(sys, dst_pe, size);
      auto* src = bufs[bufs.size() - 2].get();
      auto* dst = bufs.back().get();
      ctx.worker(dst_pe).tagRecv(sys.memory.classify(dst), size, tag, ucx::kFullMask,
                                 [&](ucx::Request&) { ++done; });
      ctx.tagSend(0, dst_pe, sys.memory.classify(src), size, tag, [&](ucx::Request&) { ++done; });
      expected += 2;
    }
  }
  sys.engine.run();
  EXPECT_EQ(done, expected);
  return sys.trace.hash();
}

model::Model multipathModel(bool enabled) {
  model::Model m = model::summit(2);
  m.machine.backed_device_memory = false;
  if (enabled) {
    m.machine.nvlink_bricks = 2;
    m.machine.nic_rails = 2;
  }
  m.ucx.multipath.enabled = enabled;
  return m;
}

TEST(MultiPath, DisabledIsBitIdenticalToSeedConfig) {
  // A configuration that mentions every multipath knob but leaves
  // enabled == false (and keeps 1 brick / 1 rail) must produce the exact
  // seed timeline: same layout, same names, no scheduler involvement.
  model::Model configured = model::summit(2);
  configured.machine.backed_device_memory = false;
  configured.ucx.multipath.enabled = false;
  configured.ucx.multipath.chunk_bytes = 256 * 1024;
  configured.ucx.multipath.min_split_bytes = 1u << 20;
  configured.ucx.multipath.stage_chunk_overhead_us = 5.0;
  model::Model pristine = model::summit(2);
  pristine.machine.backed_device_memory = false;
  EXPECT_EQ(deviceTrafficHash(configured), deviceTrafficHash(pristine));
}

TEST(MultiPath, EnabledIsDeterministicAndChangesTheTimeline) {
  const auto h1 = deviceTrafficHash(multipathModel(true));
  const auto h2 = deviceTrafficHash(multipathModel(true));
  EXPECT_EQ(h1, h2);  // run-to-run bit-identical
  EXPECT_NE(h1, deviceTrafficHash(multipathModel(false)));
}

TEST(MultiPath, SchedulerStatsAccumulate) {
  model::Model m = multipathModel(true);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  cuda::DeviceBuffer src(sys, 0, 8u << 20), dst(sys, 1, 8u << 20);
  bool done = false;
  ctx.worker(1).tagRecv(dst.ref(), 8u << 20, 5, ucx::kFullMask,
                        [&](ucx::Request&) { done = true; });
  ctx.tagSend(0, 1, src.ref(), 8u << 20, 5, {});
  sys.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(ctx.multipathTransfers(), 1u);
  EXPECT_EQ(ctx.multipathSplits(), 1u);  // 8 MiB >= min_split with 2 routes
  EXPECT_EQ(ctx.multipathChunks(), 16u);  // 8 MiB / 512 KiB
  EXPECT_EQ(ctx.multipathReroutes(), 0u);  // fault-free
}

// --------------------------------------------------------------------------
// The speedups the feature exists for (ISSUE 9 acceptance).
// --------------------------------------------------------------------------

osu::BenchConfig bwConfig(osu::Placement place) {
  osu::BenchConfig cfg;
  cfg.stack = osu::Stack::Charm;
  cfg.mode = osu::Mode::Device;
  cfg.place = place;
  cfg.iters = 5;
  cfg.warmup = 2;
  cfg.model = model::summit(place == osu::Placement::InterNode ? 2 : 1);
  cfg.model.machine.backed_device_memory = false;
  return cfg;
}

TEST(MultiPath, IntraNodeSpeedupAtLeast1p5x) {
  osu::BenchConfig single = bwConfig(osu::Placement::IntraNode);
  osu::BenchConfig multi = bwConfig(osu::Placement::IntraNode);
  multi.model.machine.nvlink_bricks = 2;
  multi.model.ucx.multipath.enabled = true;
  for (const std::size_t bytes : {4u << 20, 16u << 20}) {
    const double s = osu::bandwidthPoint(single, bytes);
    const double d = osu::bandwidthPoint(multi, bytes);
    EXPECT_GE(d / s, 1.5) << "bytes=" << bytes;
  }
}

TEST(MultiPath, InterNodeBandwidthScalesWithRails) {
  double prev = 0;
  for (const int rails : {1, 2, 4}) {
    osu::BenchConfig cfg = bwConfig(osu::Placement::InterNode);
    cfg.model.machine.nic_rails = rails;
    cfg.model.ucx.multipath.enabled = true;
    const double bw = osu::bandwidthPoint(cfg, 4u << 20);
    if (rails == 2) {
      EXPECT_GE(bw / prev, 1.3);
    }
    if (rails == 4) {
      EXPECT_GT(bw, prev);
    }
    prev = bw;
  }
}

// --------------------------------------------------------------------------
// Fault interaction: a chunk dropped on one route re-routes through the
// surviving ones and the transfer still completes.
// --------------------------------------------------------------------------

TEST(MultiPath, UnderLossCompletesAndReroutes) {
  model::Model m = multipathModel(true);
  m.machine.fault = sim::FaultConfig::uniformLoss(0.25, 7);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  const std::uint64_t size = 8u << 20;
  std::vector<cuda::DeviceBuffer> bufs;
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    bufs.emplace_back(sys, 0, size);
    bufs.emplace_back(sys, 1, size);
    auto* src = bufs[bufs.size() - 2].get();
    auto* dst = bufs.back().get();
    const auto tag = static_cast<ucx::Tag>(0x40 + i);
    ctx.worker(1).tagRecv(sys.memory.classify(dst), size, tag, ucx::kFullMask,
                          [&](ucx::Request&) { ++done; });
    ctx.tagSend(0, 1, sys.memory.classify(src), size, tag, [&](ucx::Request&) { ++done; });
  }
  sys.engine.run();
  EXPECT_EQ(done, 8);  // every transfer completed despite the loss
  EXPECT_GT(ctx.multipathReroutes(), 0u);  // at least one chunk changed route
}

}  // namespace
