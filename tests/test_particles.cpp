#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apps/particles/particles.hpp"

namespace {

using namespace cux;
using namespace cux::particles;

TEST(ParticlesGeometry, ProcessorGridAsSquareAsPossible) {
  int px = 0, py = 0;
  processorGrid(6, px, py);
  EXPECT_EQ(px * py, 6);
  EXPECT_EQ(px, 2);
  EXPECT_EQ(py, 3);
  processorGrid(12, px, py);
  EXPECT_EQ(px, 3);
  EXPECT_EQ(py, 4);
  processorGrid(7, px, py);  // prime
  EXPECT_EQ(px, 1);
  EXPECT_EQ(py, 7);
}

TEST(ParticlesInit, DeterministicAndInsidePatch) {
  for (std::uint64_t id : {0ull, 17ull, 123456ull}) {
    const Particle a = initialParticle(id, 0.25, 0.5, 0.25, 0.5);
    const Particle b = initialParticle(id, 0.25, 0.5, 0.25, 0.5);
    EXPECT_DOUBLE_EQ(a.x, b.x);
    EXPECT_DOUBLE_EQ(a.vy, b.vy);
    EXPECT_GE(a.x, 0.25);
    EXPECT_LT(a.x, 0.5);
    EXPECT_GE(a.y, 0.5);
    EXPECT_LT(a.y, 1.0);
    EXPECT_GE(a.vx, -1.0);
    EXPECT_LT(a.vx, 1.0);
  }
}

struct VerifyParam {
  Mode mode;
  int nodes;
  int steps;
  std::uint64_t per_rank;
};

class ParticlesVerify : public ::testing::TestWithParam<VerifyParam> {};

TEST_P(ParticlesVerify, TrajectoriesMatchSerialReference) {
  const auto p = GetParam();
  ParticlesConfig cfg;
  cfg.nodes = p.nodes;
  cfg.particles_per_rank = p.per_rank;
  cfg.steps = p.steps;
  cfg.warmup = 0;
  cfg.mode = p.mode;
  cfg.backed = true;
  int px = 0, py = 0;
  processorGrid(6 * p.nodes, px, py);
  const auto ref = referenceParticles(cfg, px, py);
  const auto got = runParticlesVerified(cfg);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i].id, ref[i].id);
    ASSERT_DOUBLE_EQ(got[i].x, ref[i].x) << "particle " << ref[i].id;
    ASSERT_DOUBLE_EQ(got[i].y, ref[i].y) << "particle " << ref[i].id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, ParticlesVerify,
    ::testing::Values(VerifyParam{Mode::Device, 1, 5, 400},
                      VerifyParam{Mode::HostStaging, 1, 5, 400},
                      VerifyParam{Mode::Device, 2, 8, 250},       // inter-node migration
                      VerifyParam{Mode::HostStaging, 2, 3, 250}),
    [](const ::testing::TestParamInfo<VerifyParam>& info) {
      const auto& p = info.param;
      return std::string(p.mode == Mode::Device ? "device" : "host") + "_n" +
             std::to_string(p.nodes) + "_s" + std::to_string(p.steps);
    });

// Verification reads every particle back, so it needs backed memory; the
// check holds in every build type, not only under assert.
TEST(ParticlesPreconditions, VerifiedRunNeedsBackedMemory) {
  ParticlesConfig cfg;
  cfg.nodes = 1;
  cfg.particles_per_rank = 10;
  cfg.steps = 1;
  cfg.warmup = 0;
  cfg.backed = false;
  EXPECT_THROW((void)runParticlesVerified(cfg), std::invalid_argument);
}

TEST(ParticlesConservation, NoParticleLostOverManySteps) {
  ParticlesConfig cfg;
  cfg.nodes = 1;
  cfg.particles_per_rank = 300;
  cfg.steps = 25;  // many migrations
  cfg.warmup = 0;
  cfg.backed = true;
  const auto got = runParticlesVerified(cfg);
  EXPECT_EQ(got.size(), 6u * 300u);
  // All ids present exactly once (sorted by id already).
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].id, i);
}

TEST(ParticlesTiming, DeviceCommBeatsHostStaging) {
  auto run = [](Mode m) {
    ParticlesConfig cfg;
    cfg.nodes = 2;
    cfg.particles_per_rank = 1'000'000;
    cfg.steps = 4;
    cfg.warmup = 1;
    cfg.mode = m;
    cfg.backed = false;
    return runParticles(cfg);
  };
  const auto h = run(Mode::HostStaging);
  const auto d = run(Mode::Device);
  EXPECT_GT(h.comm_ms_per_step / d.comm_ms_per_step, 1.5);
  EXPECT_LT(d.overall_ms_per_step, h.overall_ms_per_step);
  EXPECT_GT(d.avg_migrants_per_rank_step, 0.0);
}

TEST(ParticlesTiming, MigrationVolumeScalesWithDt) {
  auto migrants = [](double dt) {
    ParticlesConfig cfg;
    cfg.nodes = 1;
    cfg.particles_per_rank = 100000;
    cfg.steps = 3;
    cfg.warmup = 0;
    cfg.backed = false;
    cfg.dt = dt;
    return runParticles(cfg).avg_migrants_per_rank_step;
  };
  EXPECT_GT(migrants(0.4), 1.5 * migrants(0.1));
}

}  // namespace
