#include <cstdio>

#include "apps/osu/osu.hpp"
#include "trace_pin.hpp"

/// Ablation: rendezvous pipeline chunk size. UCX stages inter-node GPU data
/// through host memory "in chunks" (paper Sec. IV-B1); the chunk size trades
/// per-chunk management overhead against pipeline ramp-up. This sweep shows
/// the achieved inter-node device bandwidth per chunk size — the default
/// 256 KiB sits near the knee.

int main() {
  using namespace cux;
  std::printf("# Ablation: rendezvous pipeline chunk size — inter-node device bandwidth (MB/s)\n\n");
  const std::size_t chunks[] = {32u << 10, 64u << 10, 128u << 10, 256u << 10, 512u << 10,
                                1u << 20, 4u << 20};
  const std::size_t msg_sizes[] = {256u << 10, 1u << 20, 4u << 20};

  std::printf("%-12s", "chunk");
  for (std::size_t m : msg_sizes) std::printf(" %12zu", m);
  std::printf("   (message size)\n");
  for (std::size_t chunk : chunks) {
    std::printf("%-12zu", chunk);
    for (std::size_t m : msg_sizes) {
      osu::BenchConfig cfg;
      cfg.stack = osu::Stack::Ompi;
      cfg.mode = osu::Mode::Device;
      cfg.place = osu::Placement::InterNode;
      cfg.iters = 10;
      cfg.warmup = 2;
      cfg.model.ucx.rndv_pipeline_chunk = chunk;
      std::printf(" %12.1f", osu::bandwidthPoint(bench::pinned(cfg), m));
    }
    std::printf("\n");
  }
  std::printf("\nSmall chunks lose bandwidth to per-chunk management; chunks comparable\n"
              "to the message defeat the pipeline (staging serialises with the wire).\n");
  return 0;
}
