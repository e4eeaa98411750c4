#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/jacobi/block.hpp"
#include "apps/jacobi/jacobi.hpp"

namespace {

using namespace cux;
using namespace cux::jacobi;

// --------------------------------------------------------------------------
// Geometry
// --------------------------------------------------------------------------

TEST(JacobiGeometry, DecompositionCoversAllBlocks) {
  auto d = decompose({128, 128, 128}, 6);
  EXPECT_EQ(d.numBlocks(), 6);
  EXPECT_EQ(d.procs.x * d.procs.y * d.procs.z, 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(d.idOf(d.coordOf(i)), i);
}

TEST(JacobiGeometry, MinimisesSurface) {
  // For a cube over 8 blocks, 2x2x2 is optimal.
  auto d = decompose({256, 256, 256}, 8);
  EXPECT_EQ(d.procs.x, 2);
  EXPECT_EQ(d.procs.y, 2);
  EXPECT_EQ(d.procs.z, 2);
}

TEST(JacobiGeometry, ElongatedGridGetsElongatedProcs) {
  // A grid long in z should be cut along z.
  auto d = decompose({64, 64, 1024}, 4);
  EXPECT_EQ(d.procs.z, 4);
}

TEST(JacobiGeometry, NeighborsSymmetric) {
  auto d = decompose({96, 96, 96}, 12);
  for (int id = 0; id < d.numBlocks(); ++id) {
    for (int di = 0; di < kNumDirs; ++di) {
      const int n = d.neighbor(id, static_cast<Dir>(di));
      if (n < 0) continue;
      EXPECT_EQ(d.neighbor(n, opposite(static_cast<Dir>(di))), id);
    }
  }
}

TEST(JacobiGeometry, BoundaryBlocksHaveNoOutsideNeighbors) {
  auto d = decompose({64, 64, 64}, 8);  // 2x2x2
  // Corner block 0 has exactly 3 neighbours.
  int n = 0;
  for (int di = 0; di < kNumDirs; ++di) {
    if (d.neighbor(0, static_cast<Dir>(di)) >= 0) ++n;
  }
  EXPECT_EQ(n, 3);
}

TEST(JacobiGeometry, FaceBytesMatchBlockDims) {
  auto d = decompose({120, 60, 30}, 1);
  EXPECT_EQ(d.faceBytes(Dir::XPlus), 60u * 30 * 8);
  EXPECT_EQ(d.faceBytes(Dir::YPlus), 120u * 30 * 8);
  EXPECT_EQ(d.faceBytes(Dir::ZPlus), 120u * 60 * 8);
}

TEST(JacobiGeometry, WeakScalingDoublesInXyzOrder) {
  const Vec3 base{100, 100, 100};
  EXPECT_EQ(weakScaledGrid(base, 0), (Vec3{100, 100, 100}));
  EXPECT_EQ(weakScaledGrid(base, 1), (Vec3{200, 100, 100}));
  EXPECT_EQ(weakScaledGrid(base, 2), (Vec3{200, 200, 100}));
  EXPECT_EQ(weakScaledGrid(base, 3), (Vec3{200, 200, 200}));
  EXPECT_EQ(weakScaledGrid(base, 4), (Vec3{400, 200, 200}));
}

// --------------------------------------------------------------------------
// Caller input is checked in every build type, not only under assert
// --------------------------------------------------------------------------

TEST(JacobiPreconditions, DecomposeNeedsPositiveBlockCount) {
  EXPECT_THROW((void)decompose({16, 16, 16}, 0), std::invalid_argument);
  EXPECT_THROW((void)decompose({16, 16, 16}, -4), std::invalid_argument);
}

TEST(JacobiPreconditions, VerifiedRunNeedsBackedMemory) {
  JacobiConfig cfg;
  cfg.grid = {12, 12, 12};
  cfg.iters = 1;
  cfg.warmup = 0;
  cfg.backed = false;
  EXPECT_THROW((void)runJacobiVerified(cfg), std::invalid_argument);
}

TEST(JacobiPreconditions, ExtractInteriorNeedsBackedBlock) {
  JacobiConfig cfg;
  cfg.grid = {12, 12, 12};
  cfg.backed = false;
  hw::System sys(cfg.model.machine);
  BlockState b;
  b.init(sys, cfg, decompose(cfg.grid, 1), 0, 0);
  std::vector<double> out(12 * 12 * 12, 0.0);
  EXPECT_THROW(b.extractInterior(out), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Serial reference sanity
// --------------------------------------------------------------------------

TEST(JacobiReference, ZeroIterationsIsInitialCondition) {
  auto r = referenceJacobi({4, 4, 4}, 0);
  EXPECT_DOUBLE_EQ(r[0], initialValue(0, 0, 0));
  EXPECT_DOUBLE_EQ(r.back(), initialValue(3, 3, 3));
}

TEST(JacobiReference, ValuesDecayTowardsZeroBoundary) {
  // With a zero boundary, repeated averaging shrinks the field.
  auto a = referenceJacobi({6, 6, 6}, 1);
  auto b = referenceJacobi({6, 6, 6}, 20);
  double sum_a = 0, sum_b = 0;
  for (double v : a) sum_a += v;
  for (double v : b) sum_b += v;
  EXPECT_LT(sum_b, sum_a);
  EXPECT_GT(sum_b, 0.0);
}

// --------------------------------------------------------------------------
// Distributed results match the serial reference exactly — every stack, both
// modes, several decompositions (the paper's end-to-end correctness story).
// --------------------------------------------------------------------------

struct VerifyParam {
  Stack stack;
  Mode mode;
  Vec3 grid;
  int nodes;
  int iters;
};

class JacobiVerify : public ::testing::TestWithParam<VerifyParam> {};

TEST_P(JacobiVerify, MatchesSerialReference) {
  const auto p = GetParam();
  JacobiConfig cfg;
  cfg.stack = p.stack;
  cfg.mode = p.mode;
  cfg.nodes = p.nodes;
  cfg.grid = p.grid;
  cfg.iters = p.iters;
  cfg.warmup = 0;
  cfg.backed = true;
  const auto got = runJacobiVerified(cfg);
  const auto ref = referenceJacobi(p.grid, p.iters);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], ref[i]) << "cell " << i;
  }
}

std::vector<VerifyParam> verifyParams() {
  std::vector<VerifyParam> out;
  for (Stack s : {Stack::Charm, Stack::Ampi, Stack::Ompi, Stack::Charm4py}) {
    for (Mode m : {Mode::Device, Mode::HostStaging}) {
      out.push_back({s, m, {12, 12, 12}, 1, 3});
      out.push_back({s, m, {24, 12, 6}, 2, 2});  // 12 blocks, inter-node halos
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, JacobiVerify, ::testing::ValuesIn(verifyParams()),
                         [](const ::testing::TestParamInfo<VerifyParam>& info) {
                           const auto& p = info.param;
                           std::string n = osu::name(static_cast<osu::Stack>(p.stack));
                           n += p.mode == Mode::Device ? "_D" : "_H";
                           n += "_n" + std::to_string(p.nodes);
                           for (char& c : n) {
                             if (c == '+') c = 'p';
                           }
                           return n;
                         });

// --------------------------------------------------------------------------
// Timing-shape properties (the claims of Figs. 14-16)
// --------------------------------------------------------------------------

JacobiResult timedRun(Stack s, Mode m, int nodes, Vec3 grid) {
  JacobiConfig cfg;
  cfg.stack = s;
  cfg.mode = m;
  cfg.nodes = nodes;
  cfg.grid = grid;
  cfg.iters = 3;
  cfg.warmup = 1;
  cfg.backed = false;
  return runJacobi(cfg);
}

TEST(JacobiTiming, DeviceCommBeatsHostOnOneNode) {
  for (Stack s : {Stack::Charm, Stack::Ampi, Stack::Charm4py}) {
    const auto h = timedRun(s, Mode::HostStaging, 1, {768, 768, 768});
    const auto d = timedRun(s, Mode::Device, 1, {768, 768, 768});
    EXPECT_GT(h.comm_ms_per_iter / d.comm_ms_per_iter, 4.0) << osu::name(static_cast<osu::Stack>(s));
    EXPECT_LT(d.overall_ms_per_iter, h.overall_ms_per_iter);
  }
}

TEST(JacobiTiming, ImprovementShrinksAcrossNodes) {
  // Paper: "the relative speedup decreases as the number of nodes increases".
  const auto h1 = timedRun(Stack::Charm, Mode::HostStaging, 1, {768, 768, 768});
  const auto d1 = timedRun(Stack::Charm, Mode::Device, 1, {768, 768, 768});
  const auto h8 = timedRun(Stack::Charm, Mode::HostStaging, 8, {1536, 1536, 768});
  const auto d8 = timedRun(Stack::Charm, Mode::Device, 8, {1536, 1536, 768});
  const double r1 = h1.comm_ms_per_iter / d1.comm_ms_per_iter;
  const double r8 = h8.comm_ms_per_iter / d8.comm_ms_per_iter;
  EXPECT_GT(r1, r8);
}

TEST(JacobiTiming, StrongScalingReducesIterationTime) {
  const auto a = timedRun(Stack::Ampi, Mode::Device, 2, {1024, 1024, 1024});
  const auto b = timedRun(Stack::Ampi, Mode::Device, 16, {1024, 1024, 1024});
  EXPECT_LT(b.overall_ms_per_iter, a.overall_ms_per_iter / 3.0);
}

TEST(JacobiTiming, AmpiTracksOpenMpiButSlower) {
  const auto ampi = timedRun(Stack::Ampi, Mode::Device, 4, {1536, 1536, 1536});
  const auto ompi = timedRun(Stack::Ompi, Mode::Device, 4, {1536, 1536, 1536});
  EXPECT_GE(ampi.comm_ms_per_iter, ompi.comm_ms_per_iter);
  EXPECT_LT(ampi.comm_ms_per_iter, 3.0 * ompi.comm_ms_per_iter);
}

TEST(JacobiTiming, Charm4pySlowestOverall) {
  const auto ck = timedRun(Stack::Charm, Mode::Device, 1, {768, 768, 768});
  const auto py = timedRun(Stack::Charm4py, Mode::Device, 1, {768, 768, 768});
  EXPECT_GT(py.overall_ms_per_iter, ck.overall_ms_per_iter);
}


TEST(JacobiOverdecomposition, VerifiedCorrectUnderOdf) {
  // More chares than PEs: neighbours can run a full iteration ahead, which
  // exercises the parity double-buffering of receive faces.
  for (int odf : {2, 4}) {
    JacobiConfig cfg;
    cfg.stack = Stack::Charm;
    cfg.mode = Mode::Device;
    cfg.nodes = 1;
    cfg.grid = {24, 24, 24};
    cfg.iters = 4;
    cfg.warmup = 0;
    cfg.backed = true;
    cfg.overdecomposition = odf;
    const auto got = runJacobiVerified(cfg);
    const auto ref = referenceJacobi(cfg.grid, cfg.iters);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i], ref[i]) << "odf " << odf << " cell " << i;
    }
  }
}

TEST(JacobiOverdecomposition, OverlapNeverSlowsDownMuch) {
  // odf > 1 adds per-chare overhead but hides halo latency; overall time
  // must stay within a sane band of the odf=1 run.
  JacobiConfig cfg;
  cfg.stack = Stack::Charm;
  cfg.mode = Mode::Device;
  cfg.nodes = 4;
  cfg.grid = {1536, 1536, 1536};
  cfg.iters = 3;
  cfg.warmup = 1;
  cfg.backed = false;
  const double base = runJacobi(cfg).overall_ms_per_iter;
  cfg.overdecomposition = 4;
  const double odf4 = runJacobi(cfg).overall_ms_per_iter;
  EXPECT_LT(odf4, 1.3 * base);
  EXPECT_GT(odf4, 0.5 * base);
}

// --------------------------------------------------------------------------
// Buffer classification: each halo message costs at most two registry
// lookups, one where its send enters the stack and one where its receive
// does; every layer below carries the resulting hw::MemRef.
// --------------------------------------------------------------------------

struct LookupCase {
  Stack stack;
  Mode mode;
};

std::string lookupCaseName(const LookupCase& c) {
  std::string stack = osu::name(c.stack);
  if (c.stack == Stack::Charm) stack = "Charm";
  return stack + "_" + osu::suffix(c.mode);
}

class JacobiLookups : public ::testing::TestWithParam<LookupCase> {};

TEST_P(JacobiLookups, AtMostTwoRegistryLookupsPerHaloMessage) {
  JacobiConfig cfg;
  cfg.stack = GetParam().stack;
  cfg.mode = GetParam().mode;
  cfg.nodes = 2;
  cfg.grid = {384, 384, 384};
  cfg.iters = 2;
  cfg.warmup = 1;
  cfg.backed = false;
  std::uint64_t lookups = 0;
  cfg.inspect = [&](hw::System& sys) {
    sys.obs.refresh();
    lookups = sys.obs.registry.gaugeValue("hw.memory.lookups");
    EXPECT_EQ(lookups, sys.memory.lookups());
  };
  const JacobiResult res = runJacobi(cfg);

  // One message per neighbour link per iteration.
  std::uint64_t links = 0;
  for (int id = 0; id < res.dec.numBlocks(); ++id) {
    for (int d = 0; d < kNumDirs; ++d) {
      if (res.dec.neighbor(id, static_cast<Dir>(d)) >= 0) ++links;
    }
  }
  const std::uint64_t messages = links * static_cast<std::uint64_t>(cfg.iters + cfg.warmup);
  ASSERT_GT(messages, 0u);
  EXPECT_GT(lookups, 0u);
  EXPECT_LE(lookups, 2 * messages) << lookups << " lookups for " << messages << " halo messages";
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, JacobiLookups,
    ::testing::Values(LookupCase{Stack::Charm, Mode::Device},
                      LookupCase{Stack::Charm, Mode::HostStaging},
                      LookupCase{Stack::Ampi, Mode::Device},
                      LookupCase{Stack::Ampi, Mode::HostStaging},
                      LookupCase{Stack::Ompi, Mode::Device},
                      LookupCase{Stack::Ompi, Mode::HostStaging},
                      LookupCase{Stack::Charm4py, Mode::Device},
                      LookupCase{Stack::Charm4py, Mode::HostStaging}),
    [](const ::testing::TestParamInfo<LookupCase>& info) { return lookupCaseName(info.param); });

}  // namespace
