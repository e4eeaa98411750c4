#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "apps/osu/osu.hpp"
#include "trace_pin.hpp"

/// Shared driver for the OSU figure benches (paper Figs. 10-13): each figure
/// has three subplots — (a) Charm++, (b) AMPI + OpenMPI, (c) Charm4py — with
/// a host-staging (H) and a GPU-aware (D) series per stack.

namespace cux::bench {

enum class Metric { Latency, Bandwidth };

struct Series {
  std::string label;
  std::vector<osu::Point> points;
};

inline std::vector<osu::Stack> subplotStacks(int subplot) {
  switch (subplot) {
    case 0:
      return {osu::Stack::Charm};
    case 1:
      return {osu::Stack::Ampi, osu::Stack::Ompi};
    default:
      return {osu::Stack::Charm4py};
  }
}

inline Series runSeries(Metric metric, osu::Stack stack, osu::Mode mode,
                        osu::Placement place, int iters, int warmup) {
  osu::BenchConfig cfg;
  cfg.stack = stack;
  cfg.mode = mode;
  cfg.place = place;
  cfg.iters = iters;
  cfg.warmup = warmup;
  Series s;
  s.label = std::string(osu::name(stack)) + "-" + osu::suffix(mode);
  s.points = metric == Metric::Latency ? osu::runLatency(pinned(cfg))
                                       : osu::runBandwidth(pinned(cfg));
  return s;
}

inline void printFigure(const char* fig_id, const char* title, Metric metric,
                        osu::Placement place, int iters = 20, int warmup = 5) {
  const char* unit = metric == Metric::Latency ? "one-way latency (us)" : "bandwidth (MB/s)";
  std::printf("# %s: %s — %s\n", fig_id, title, unit);
  const char* sub_names[3] = {"(a) Charm++", "(b) AMPI and OpenMPI", "(c) Charm4py"};
  for (int sub = 0; sub < 3; ++sub) {
    std::printf("\n## %s %s\n", fig_id, sub_names[sub]);
    std::vector<Series> series;
    for (osu::Stack stack : subplotStacks(sub)) {
      series.push_back(runSeries(metric, stack, osu::Mode::HostStaging, place, iters, warmup));
      series.push_back(runSeries(metric, stack, osu::Mode::Device, place, iters, warmup));
    }
    std::printf("%-10s", "size");
    for (const auto& s : series) std::printf(" %14s", s.label.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < series.front().points.size(); ++i) {
      std::printf("%-10zu", series.front().points[i].bytes);
      for (const auto& s : series) std::printf(" %14.2f", s.points[i].value);
      std::printf("\n");
    }
  }
}

}  // namespace cux::bench
