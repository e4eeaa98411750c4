#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/osu/osu.hpp"
#include "trace_pin.hpp"

/// Reproduces Table I of the paper: improvement in latency and bandwidth
/// with GPU-aware communication — the min-max range over the 1 B .. 4 MB
/// sweep plus the small-message (eager-protocol) speedup, for each model and
/// placement.

namespace {

using namespace cux;

struct Improvement {
  double lat_min = 0, lat_max = 0, lat_eager = 0;
  double bw_min = 0, bw_max = 0;
};

Improvement measure(osu::Stack stack, osu::Placement place) {
  osu::BenchConfig cfg = bench::pinned(osu::BenchConfig{});
  cfg.stack = stack;
  cfg.place = place;
  cfg.iters = 20;
  cfg.warmup = 5;

  cfg.mode = osu::Mode::HostStaging;
  const auto lat_h = osu::runLatency(cfg);
  auto bw_cfg = cfg;
  const auto bw_h = osu::runBandwidth(bw_cfg);
  cfg.mode = osu::Mode::Device;
  const auto lat_d = osu::runLatency(cfg);
  const auto bw_d = osu::runBandwidth(cfg);

  Improvement imp;
  imp.lat_min = 1e30;
  imp.bw_min = 1e30;
  for (std::size_t i = 0; i < lat_h.size(); ++i) {
    const double r = lat_h[i].value / lat_d[i].value;
    imp.lat_min = std::min(imp.lat_min, r);
    imp.lat_max = std::max(imp.lat_max, r);
    const double b = bw_d[i].value / bw_h[i].value;
    imp.bw_min = std::min(imp.bw_min, b);
    imp.bw_max = std::max(imp.bw_max, b);
  }
  // Eager speedup: smallest message size (deep inside the eager regime).
  imp.lat_eager = lat_h.front().value / lat_d.front().value;
  return imp;
}

}  // namespace

int main() {
  std::printf("# Table I: improvement in latency and bandwidth with GPU-aware communication\n\n");
  const osu::Stack stacks[3] = {osu::Stack::Charm, osu::Stack::Ampi, osu::Stack::Charm4py};
  Improvement intra[3], inter[3];
  for (int i = 0; i < 3; ++i) {
    intra[i] = measure(stacks[i], osu::Placement::IntraNode);
    inter[i] = measure(stacks[i], osu::Placement::InterNode);
  }

  std::printf("%-28s %-30s %-30s\n", "", "Intra-node", "Inter-node");
  std::printf("%-28s %9s %9s %9s  %9s %9s %9s\n", "Improvement / Type", "Charm++", "AMPI",
              "Charm4py", "Charm++", "AMPI", "Charm4py");

  auto range = [](const Improvement& x) {
    static char buf[8][32];
    static int slot = 0;
    char* b = buf[slot = (slot + 1) % 8];
    std::snprintf(b, 32, "%.1fx-%.1fx", x.lat_min, x.lat_max);
    return b;
  };
  std::printf("%-28s", "Latency   Range");
  for (const auto& set : {intra, inter}) {
    for (int i = 0; i < 3; ++i) std::printf(" %9s", range(set[i]));
    std::printf(" ");
  }
  std::printf("\n%-28s", "          Eager");
  for (const auto& set : {intra, inter}) {
    for (int i = 0; i < 3; ++i) std::printf(" %8.1fx", set[i].lat_eager);
    std::printf(" ");
  }
  auto bw_range = [](const Improvement& x) {
    static char buf[8][32];
    static int slot = 0;
    char* b = buf[slot = (slot + 1) % 8];
    std::snprintf(b, 32, "%.1fx-%.1fx", x.bw_min, x.bw_max);
    return b;
  };
  std::printf("\n%-28s", "Bandwidth Range");
  for (const auto& set : {intra, inter}) {
    for (int i = 0; i < 3; ++i) std::printf(" %9s", bw_range(set[i]));
    std::printf(" ");
  }
  std::printf("\n\n# Paper reference (Table I):\n");
  std::printf("# Latency Range:  intra 2.1-10.2x / 1.9-11.7x / 1.8-17.4x;"
              " inter 1.2-4.1x / 1.8-3.5x / 1.5-3.4x\n");
  std::printf("# Latency Eager:  intra 4.4x / 3.6x / 1.9x; inter 4.1x / 3.4x / 1.8x\n");
  std::printf("# Bandwidth Range: intra 1.4-9.6x / 1.3-10.0x / 1.3-10.5x;"
              " inter 1.2-2.7x / 1.3-2.6x / 1.0-1.5x\n");
  return 0;
}
