#include <cstdio>

#include "apps/jacobi/jacobi.hpp"
#include "trace_pin.hpp"

/// Extension bench (paper Sec. VI future work, ref. [23]): computation-
/// communication overlap through overdecomposition. With more chares than
/// PEs, the Charm++ scheduler runs one block's stencil while another block
/// of the same GPU waits for halos; kernels serialise on the per-GPU compute
/// engine, so the benefit shown is pure overlap, not extra parallelism.
///
/// The paper's own evaluation pins odf = 1 to isolate communication; this
/// bench shows what its proposed follow-up buys.

int main() {
  using namespace cux::jacobi;
  std::printf("# Extension: overdecomposition overlap — Charm++ Jacobi3D, GPU-aware halos\n");
  std::printf("# 1536^3 doubles, weak-scaled; overall ms/iteration by overdecomposition factor\n\n");
  std::printf("%-6s", "nodes");
  for (int odf : {1, 2, 4, 8}) std::printf("   odf=%-7d", odf);
  std::printf("best speedup\n");
  for (int e : {0, 2, 4}) {
    const int nodes = 1 << e;
    std::printf("%-6d", nodes);
    double base = 0, best = 1e30;
    for (int odf : {1, 2, 4, 8}) {
      JacobiConfig cfg;
      cfg.stack = Stack::Charm;
      cfg.mode = Mode::Device;
      cfg.nodes = nodes;
      cfg.grid = weakScaledGrid(kWeakBase, e);
      cfg.iters = 4;
      cfg.warmup = 1;
      cfg.backed = false;
      cfg.overdecomposition = odf;
      const auto r = runJacobi(cux::bench::pinned(cfg));
      if (odf == 1) base = r.overall_ms_per_iter;
      best = std::min(best, r.overall_ms_per_iter);
      std::printf(" %10.2f ", r.overall_ms_per_iter);
    }
    std::printf(" %10.2fx\n", base / best);
  }
  std::printf("\nOverdecomposition hides halo latency behind other blocks' stencils; the\n"
              "gain is bounded by the comm/compute ratio and per-chare overheads.\n");
  return 0;
}
