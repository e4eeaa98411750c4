#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/train/train.hpp"

/// Data-parallel training workload: gradient correctness, backward/allreduce
/// overlap, and pool reuse, on all three stacks.

namespace {

using namespace cux;

train::TrainConfig smallConfig() {
  train::TrainConfig cfg;
  cfg.nodes = 2;
  cfg.ranks = 8;
  cfg.steps = 3;
  // A smaller model than the default keeps the per-test runtime low while
  // still producing >= 3 buckets.
  cfg.layer_params = {16 * 1024, 64 * 1024, 128 * 1024, 128 * 1024, 64 * 1024, 16 * 1024};
  cfg.bucket_bytes = 1024 * 1024;
  return cfg;
}

class TrainStacks : public ::testing::TestWithParam<train::Stack> {};

TEST_P(TrainStacks, GradientsVerifyAndBucketsOverlap) {
  train::TrainConfig cfg = smallConfig();
  const train::TrainResult res = train::runTrain(cfg, GetParam());

  ASSERT_EQ(res.steps.size(), static_cast<std::size_t>(cfg.steps));
  EXPECT_GE(res.buckets, 3) << "bucketing produced too few buckets to overlap";
  EXPECT_TRUE(res.verified) << "reduced gradients did not match the analytic sums";

  // The pipelined collective overlaps the gradient buckets: the union of the
  // allreduce intervals must be shorter than their serial sum.
  for (std::size_t s = 1; s < res.steps.size(); ++s) {
    const train::StepStat& st = res.steps[s];
    EXPECT_GT(st.bucket_sum_us, 0.0);
    EXPECT_LT(st.allreduce_wall_us, st.bucket_sum_us)
        << "step " << s << ": bucket allreduces ran back-to-back (no overlap)";
    EXPECT_GT(st.step_us, st.compute_us);
  }
}

TEST_P(TrainStacks, SteadyStateStepsAllocateFromPool) {
  train::TrainConfig cfg = smallConfig();
  const train::TrainResult res = train::runTrain(cfg, GetParam());
  // Step 0 faults the gradient buckets in; steps 1..n-1 must reuse them.
  EXPECT_GT(res.pool_hits, 0u);
  // Per-rank, per-bucket allocations for steps >= 1 are all hits, so hits
  // dominate misses for a 3-step run only if reuse actually happens.
  EXPECT_GE(res.pool_hits, static_cast<std::uint64_t>(res.buckets * cfg.ranks));
}

INSTANTIATE_TEST_SUITE_P(AllStacks, TrainStacks,
                         ::testing::Values(train::Stack::Ampi, train::Stack::Charm,
                                           train::Stack::Charm4py),
                         [](const ::testing::TestParamInfo<train::Stack>& i) {
                           switch (i.param) {
                             case train::Stack::Ampi:
                               return "ampi";
                             case train::Stack::Charm:
                               return "charm";
                             case train::Stack::Charm4py:
                               return "charm4py";
                           }
                           return "unknown";
                         });

TEST(Train, DevicePathBeatsHostStaging) {
  train::TrainConfig cfg = smallConfig();
  cfg.steps = 2;
  const train::TrainResult dev = train::runTrain(cfg, train::Stack::Ampi);
  cfg.host_staged = true;
  const train::TrainResult host = train::runTrain(cfg, train::Stack::Ampi);
  EXPECT_TRUE(dev.verified);
  EXPECT_TRUE(host.verified);
  EXPECT_LT(dev.avgStepUs(), host.avgStepUs())
      << "GPU-aware gradient allreduce should beat host staging";
}

TEST(Train, RingAndTreeBothVerify) {
  train::TrainConfig cfg = smallConfig();
  cfg.steps = 2;
  cfg.coll.impl = coll::CollImpl::Ring;
  EXPECT_TRUE(train::runTrain(cfg, train::Stack::Ampi).verified);
  cfg.coll.impl = coll::CollImpl::Tree;
  EXPECT_TRUE(train::runTrain(cfg, train::Stack::Ampi).verified);
  cfg.coll.impl = coll::CollImpl::Reference;
  EXPECT_TRUE(train::runTrain(cfg, train::Stack::Ampi).verified);
}

TEST(Train, NonPowerOfTwoWorkerCount) {
  train::TrainConfig cfg = smallConfig();
  cfg.ranks = 6;
  cfg.steps = 2;
  for (const auto s : {train::Stack::Ampi, train::Stack::Charm, train::Stack::Charm4py}) {
    const train::TrainResult res = train::runTrain(cfg, s);
    EXPECT_TRUE(res.verified) << train::name(s);
  }
}

// One worker per PE: a rank count outside [1, numPes] is caller error and
// throws in every build type (one node has 6 PEs).
TEST(Train, RankCountOutsidePesThrows) {
  train::TrainConfig cfg = smallConfig();
  cfg.nodes = 1;
  for (const int ranks : {0, 7, 13}) {
    cfg.ranks = ranks;
    EXPECT_THROW((void)train::runTrain(cfg, train::Stack::Ampi), std::invalid_argument)
        << ranks << " ranks";
  }
}

}  // namespace
