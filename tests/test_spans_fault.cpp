#include <gtest/gtest.h>

#include "apps/jacobi/jacobi.hpp"
#include "apps/osu/osu.hpp"
#include "hw/system.hpp"
#include "obs/observability.hpp"
#include "obs/span.hpp"
#include "sim/fault.hpp"

/// Span lifecycle integrity under fault injection: with the injector
/// dropping 10% of messages, every minted span must still reach a terminal
/// phase (Completed / Errored / Cancelled) exactly once. An orphan span
/// (openCount != 0 after the engine drains) means some retry/fallback path
/// forgot to close the lifecycle it started; a double close means two paths
/// both think they own the terminal transition. Both bugs are invisible to
/// the data-integrity fault tests, which is why the span accounting checks
/// exist separately.

namespace {

using namespace cux;

/// Identifier-safe stack label for parameterized test names ("Charm++" from
/// osu::name() is not a valid gtest name).
const char* stackKey(osu::Stack s) {
  switch (s) {
    case osu::Stack::Charm:
      return "charm";
    case osu::Stack::Ampi:
      return "ampi";
    case osu::Stack::Ompi:
      return "ompi";
    case osu::Stack::Charm4py:
      return "charm4py";
  }
  return "unknown";
}

/// Asserts the lifecycle invariants on a drained system's span collector.
void expectSpansTerminated(const obs::SpanCollector& sc, const char* what) {
  EXPECT_GT(sc.begun(), 0u) << what << ": no spans minted — instrumentation dead?";
  EXPECT_EQ(sc.openCount(), 0u) << what << ": orphan spans left open";
  EXPECT_EQ(sc.doubleCloses(), 0u) << what << ": span closed twice";
  EXPECT_EQ(sc.retired(), sc.begun()) << what;
  const std::uint64_t terminals = sc.terminalCount(obs::Phase::Completed) +
                                  sc.terminalCount(obs::Phase::Errored) +
                                  sc.terminalCount(obs::Phase::Cancelled);
  EXPECT_EQ(terminals, sc.begun()) << what << ": non-terminal close phase";
}

class SpanFaultOsu : public ::testing::TestWithParam<osu::Stack> {};

TEST_P(SpanFaultOsu, LatencyUnderTenPercentLossTerminatesEverySpan) {
  const osu::Stack stack = GetParam();
  for (const std::size_t bytes : {std::size_t{4096}, std::size_t{65536}}) {
    osu::BenchConfig cfg;
    cfg.stack = stack;
    cfg.mode = osu::Mode::Device;
    cfg.place = osu::Placement::InterNode;
    cfg.iters = 10;
    cfg.warmup = 2;
    cfg.model.machine.fault = sim::FaultConfig::uniformLoss(0.1, 0xFA11);
    cfg.setup = [](hw::System& sys) { sys.obs.spans.enableStreaming(); };
    bool inspected = false;
    cfg.inspect = [&inspected, bytes, stack](hw::System& sys) {
      inspected = true;
      SCOPED_TRACE(bytes);
      expectSpansTerminated(sys.obs.spans, osu::name(stack));
    };
    const double us = osu::latencyPoint(cfg, bytes);
    EXPECT_TRUE(inspected);
    EXPECT_GT(us, 0.0) << "benchmark hung / drained early under loss";
  }
}

INSTANTIATE_TEST_SUITE_P(AllStacks, SpanFaultOsu,
                         ::testing::Values(osu::Stack::Charm, osu::Stack::Ampi,
                                           osu::Stack::Charm4py),
                         [](const auto& info) { return stackKey(info.param); });

class SpanFaultJacobi : public ::testing::TestWithParam<jacobi::Stack> {};

TEST_P(SpanFaultJacobi, HaloExchangeUnderTenPercentLossTerminatesEverySpan) {
  const jacobi::Stack stack = GetParam();
  jacobi::JacobiConfig cfg;
  cfg.stack = stack;
  cfg.mode = jacobi::Mode::Device;
  cfg.nodes = 2;
  cfg.grid = {24, 12, 6};  // 12 blocks on 12 PEs: inter-node halos
  cfg.iters = 2;
  cfg.warmup = 0;
  cfg.model.machine.fault = sim::FaultConfig::uniformLoss(0.1, 0x1ACB);
  cfg.setup = [](hw::System& sys) { sys.obs.spans.enableStreaming(); };
  bool inspected = false;
  cfg.inspect = [&inspected, stack](hw::System& sys) {
    inspected = true;
    expectSpansTerminated(sys.obs.spans, osu::name(stack));
  };
  const jacobi::JacobiResult res = jacobi::runJacobi(cfg);
  EXPECT_TRUE(inspected);
  EXPECT_GT(res.overall_ms_per_iter, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, SpanFaultJacobi,
                         ::testing::Values(jacobi::Stack::Charm, jacobi::Stack::Ampi,
                                           jacobi::Stack::Charm4py),
                         [](const auto& info) { return stackKey(info.param); });

// A fault-free control: the same workloads with no injector must terminate
// every span through Completed alone (no Errored leakage in clean runs).
TEST(SpanClean, FaultFreeRunsCompleteEverySpan) {
  for (const auto stack : {osu::Stack::Charm, osu::Stack::Ampi, osu::Stack::Charm4py}) {
    osu::BenchConfig cfg;
    cfg.stack = stack;
    cfg.mode = osu::Mode::Device;
    cfg.place = osu::Placement::IntraNode;
    cfg.iters = 5;
    cfg.warmup = 1;
    cfg.setup = [](hw::System& sys) { sys.obs.spans.enableStreaming(); };
    cfg.inspect = [stack](hw::System& sys) {
      const obs::SpanCollector& sc = sys.obs.spans;
      expectSpansTerminated(sc, osu::name(stack));
      EXPECT_EQ(sc.terminalCount(obs::Phase::Completed), sc.begun())
          << osu::name(stack) << ": clean run must complete every span";
    };
    (void)osu::latencyPoint(cfg, 65536);
  }
}

}  // namespace
