#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "apps/train/train.hpp"
#include "trace_pin.hpp"

/// Extension bench: the ChainerMN-style data-parallel training workload on
/// all three stacks. Reports the per-step anatomy — compute wall, the union
/// interval of the bucket allreduces vs their serial sum (the overlap the
/// gradient bucketing buys), optimizer — plus the host-staged baseline.
/// Exits 1 if any run's reduced gradients fail verification, and 2 (with
/// usage) on a malformed option or more ranks than the nodes have PEs.

using namespace cux;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--steps N] [--ranks N] [--nodes N]   (N >= 1)\n", argv0);
  std::exit(2);
}

/// The value after argv[a] as a whole number >= 1; anything else is usage.
int countArg(int argc, char** argv, int& a) {
  if (++a >= argc) usage(argv[0]);
  char* end = nullptr;
  const long v = std::strtol(argv[a], &end, 10);
  if (*end != '\0' || v < 1 || v > INT_MAX) usage(argv[0]);
  return static_cast<int>(v);
}

void report(const char* label, const train::TrainResult& r) {
  std::printf("%-22s ranks=%d buckets=%d verified=%s pool(h/m)=%llu/%llu\n", label, r.ranks,
              r.buckets, r.verified ? "yes" : "no",
              static_cast<unsigned long long>(r.pool_hits),
              static_cast<unsigned long long>(r.pool_misses));
  std::printf("  %-5s %10s %10s %12s %12s %9s %10s\n", "step", "step_us", "compute",
              "allred_wall", "bucket_sum", "overlap", "optimizer");
  for (std::size_t s = 0; s < r.steps.size(); ++s) {
    const train::StepStat& st = r.steps[s];
    std::printf("  %-5zu %10.1f %10.1f %12.1f %12.1f %8.2f%% %10.1f\n", s, st.step_us,
                st.compute_us, st.allreduce_wall_us, st.bucket_sum_us,
                100.0 * st.overlapRatio(), st.optimizer_us);
  }
  std::printf("  avg step %.1f us, steady-state overlap ratio %.2f\n\n", r.avgStepUs(),
              r.avgOverlap());
}

}  // namespace

int main(int argc, char** argv) {
  train::TrainConfig cfg = bench::pinned(train::TrainConfig{});
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--steps") == 0) {
      cfg.steps = countArg(argc, argv, a);
    } else if (std::strcmp(argv[a], "--ranks") == 0) {
      cfg.ranks = countArg(argc, argv, a);
    } else if (std::strcmp(argv[a], "--nodes") == 0) {
      cfg.nodes = countArg(argc, argv, a);
    } else {
      usage(argv[0]);
    }
  }
  std::printf("# Data-parallel SGD, %llu params, %d ranks, %d steps\n\n",
              static_cast<unsigned long long>(cfg.totalParams()), cfg.ranks, cfg.steps);
  bool verified = true;
  auto run = [&](const char* label, const train::TrainConfig& c, train::Stack s) {
    try {
      const train::TrainResult r = train::runTrain(c, s);
      verified = verified && r.verified;
      report(label, r);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      usage(argv[0]);
    }
  };
  for (const auto s : {train::Stack::Ampi, train::Stack::Charm, train::Stack::Charm4py}) {
    run(train::name(s), cfg, s);
  }
  train::TrainConfig host = cfg;
  host.host_staged = true;
  run("ampi (host-staged)", host, train::Stack::Ampi);
  std::printf("Gradient buckets launch their allreduce while backward continues; the\n"
              "union of the bucket intervals (allred_wall) stays well under their sum.\n");
  if (!verified) std::fprintf(stderr, "%s: gradient verification FAILED\n", argv[0]);
  return verified ? 0 : 1;
}
