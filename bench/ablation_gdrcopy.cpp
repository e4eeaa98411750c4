#include <cstdio>

#include "apps/osu/osu.hpp"
#include "trace_pin.hpp"

/// Ablation: GDRCopy detection (paper Sec. IV-B1 — "the detection of the
/// GDRCopy library by UCX is essential in order to achieve low latencies
/// with small messages, which is not included in the default library search
/// path on Summit"). Runs the small-message device latency sweep with the
/// library detected vs not; the fallback stages through cudaMemcpy.

int main() {
  using namespace cux;
  std::printf("# Ablation: GDRCopy detected vs not — inter-node device latency (us)\n\n");
  std::printf("%-10s", "size");
  for (const char* s : {"Charm++/gdr", "Charm++/none", "OpenMPI/gdr", "OpenMPI/none"}) {
    std::printf(" %14s", s);
  }
  std::printf("\n");

  const std::size_t sizes[] = {1, 8, 64, 512, 4096};
  for (std::size_t size : sizes) {
    std::printf("%-10zu", size);
    for (osu::Stack stack : {osu::Stack::Charm, osu::Stack::Ompi}) {
      for (bool gdr : {true, false}) {
        osu::BenchConfig cfg;
        cfg.stack = stack;
        cfg.mode = osu::Mode::Device;
        cfg.place = osu::Placement::InterNode;
        cfg.iters = 20;
        cfg.warmup = 5;
        cfg.model.ucx.gdrcopy_enabled = gdr;
        std::printf(" %14.2f", osu::latencyPoint(bench::pinned(cfg), size));
      }
    }
    std::printf("\n");
  }
  std::printf("\nWithout GDRCopy, each small message pays a cudaMemcpy staging round\n"
              "trip; the paper observed the same cliff when the library was missing\n"
              "from Summit's default search path.\n");
  return 0;
}
