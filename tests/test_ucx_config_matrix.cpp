#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

/// Protocol-knob fuzzing: data integrity must hold for ANY combination of
/// eager thresholds, pipeline chunk sizes and GDRCopy availability — the
/// protocol-selection boundaries are where real transports break.

namespace {

using namespace cux;

struct KnobParam {
  std::size_t host_eager;
  std::size_t device_eager;
  std::size_t chunk;
  bool gdrcopy;
};

class UcxKnobMatrix : public ::testing::TestWithParam<KnobParam> {};

TEST_P(UcxKnobMatrix, IntegrityAcrossAllProtocolBoundaries) {
  const auto p = GetParam();
  model::Model m = model::summit(2);
  m.ucx.host_eager_threshold = p.host_eager;
  m.ucx.device_eager_threshold = p.device_eager;
  m.ucx.rndv_pipeline_chunk = p.chunk;
  m.ucx.gdrcopy_enabled = p.gdrcopy;
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);

  sim::SplitMix64 rng(0xF00D);
  // Sizes straddling every configured boundary, plus random ones.
  std::vector<std::size_t> sizes{1, p.device_eager, p.device_eager + 1, p.host_eager,
                                 p.host_eager + 1, p.chunk - 1, p.chunk, p.chunk + 1,
                                 3 * p.chunk + 17};
  for (int i = 0; i < 4; ++i) sizes.push_back(1 + rng.below(2u << 20));

  int tag = 100;
  for (std::size_t n : sizes) {
    if (n == 0) continue;
    for (const bool dev_src : {false, true}) {
      for (const bool dev_dst : {false, true}) {
        for (const int dst_pe : {1, 6}) {
          std::vector<std::byte> ref(n);
          rng.fill(ref.data(), n);
          void* src;
          void* dst;
          std::vector<std::byte> hsrc, hdst;
          if (dev_src) {
            src = cuda::deviceAlloc(sys, 0, n, true).ptr;
          } else {
            hsrc.resize(n);
            src = hsrc.data();
          }
          std::memcpy(src, ref.data(), n);
          if (dev_dst) {
            dst = cuda::deviceAlloc(sys, dst_pe, n, true).ptr;
          } else {
            hdst.resize(n);
            dst = hdst.data();
          }
          bool done = false;
          ctx.worker(dst_pe).tagRecv(sys.memory.classify(dst), n, static_cast<ucx::Tag>(tag),
                                     ucx::kFullMask,
                                     [&](ucx::Request&) { done = true; });
          ctx.tagSend(0, dst_pe, sys.memory.classify(src), n, static_cast<ucx::Tag>(tag), {});
          sys.engine.run();
          ASSERT_TRUE(done) << "n=" << n << " dev_src=" << dev_src << " dev_dst=" << dev_dst;
          ASSERT_EQ(std::memcmp(dst, ref.data(), n), 0)
              << "n=" << n << " dev_src=" << dev_src << " dev_dst=" << dev_dst
              << " dst_pe=" << dst_pe;
          if (dev_src) cuda::deviceFree(sys, src);
          if (dev_dst) cuda::deviceFree(sys, dst);
          ++tag;
        }
      }
    }
  }
}

// UcxConfig::validate() (called from the Context constructor) must reject
// configurations that would hang or misbehave silently instead of letting
// them produce wrong timings: a zero pipeline chunk spins the chunked
// rendezvous forever, negative overheads schedule events into the past, and
// a degenerate retry setup either never retries or overflows the backoff.
TEST(UcxConfigValidate, RejectsDegenerateConfigurations) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  auto construct = [&](auto mutate) {
    ucx::UcxConfig cfg = m.ucx;
    mutate(cfg);
    ucx::Context ctx(sys, cfg);
  };
  EXPECT_NO_THROW(construct([](ucx::UcxConfig&) {}));
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.rndv_pipeline_chunk = 0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.send_overhead_us = -0.1; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.recv_overhead_us = -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.rndv_handshake_us = -0.5; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.rndv_pipeline_overhead_us = -4.0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.host_rndv_chunk_overhead_us = -1.0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.gdr_latency_us = -0.6; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.gdr_bandwidth_gbps = 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.cuda_stage_latency_us = -6.0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.max_retries = -1; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.max_retries = 63; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.retry_base_us = 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.retry_base_us = -50.0; }),
               std::invalid_argument);
  // The backoff product must be rejected too, not just the shift bound: the
  // default 50 us base (50,000 ns) wraps uint64 from attempt 48 onwards,
  // which would produce a bogus tiny retry deadline, not UB.
  EXPECT_THROW(construct([](ucx::UcxConfig& c) { c.max_retries = 48; }),
               std::invalid_argument);
  EXPECT_THROW(construct([](ucx::UcxConfig& c) {
                 c.max_retries = 40;
                 c.retry_base_us = 1e7;  // 10 s base: overflows well before 62
               }),
               std::invalid_argument);
  // Boundary values that must be accepted.
  EXPECT_NO_THROW(construct([](ucx::UcxConfig& c) { c.max_retries = 0; }));
  EXPECT_NO_THROW(construct([](ucx::UcxConfig& c) { c.max_retries = 47; }));
  EXPECT_NO_THROW(construct([](ucx::UcxConfig& c) {
    c.max_retries = 62;       // the shift bound itself is fine...
    c.retry_base_us = 0.001;  // ...with a base small enough not to wrap
  }));
  EXPECT_NO_THROW(construct([](ucx::UcxConfig& c) { c.send_overhead_us = 0.0; }));
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, UcxKnobMatrix,
    ::testing::Values(KnobParam{8192, 4096, 256 * 1024, true},     // defaults
                      KnobParam{1, 1, 64 * 1024, true},            // everything rendezvous
                      KnobParam{1u << 21, 1u << 21, 128 * 1024, true},  // everything eager
                      KnobParam{8192, 4096, 256 * 1024, false},    // no GDRCopy
                      KnobParam{1024, 65536, 32 * 1024, false},    // inverted thresholds
                      KnobParam{8192, 4096, 1u << 22, true}),      // chunk > message
    [](const ::testing::TestParamInfo<KnobParam>& info) {
      const auto& p = info.param;
      return "he" + std::to_string(p.host_eager) + "_de" + std::to_string(p.device_eager) +
             "_ch" + std::to_string(p.chunk) + (p.gdrcopy ? "_gdr" : "_nogdr");
    });

}  // namespace
