#pragma once

#include <cstdio>
#include <vector>

#include "apps/jacobi/jacobi.hpp"
#include "trace_pin.hpp"

/// Shared driver for the Jacobi3D figure benches (paper Figs. 14-16): weak
/// scaling over 1-256 nodes (base 1536^3, dimensions doubled in x,y,z
/// order) and strong scaling over 8-256 nodes (3072^3), reporting overall
/// and communication time per iteration for the -H and -D variants.

namespace cux::bench {

inline void printJacobiFigure(const char* fig_id, jacobi::Stack stack, int iters = 4,
                              int warmup = 1) {
  using namespace cux::jacobi;
  const bool with_ompi = stack == Stack::Ampi;  // Fig. 15 includes OpenMPI

  auto run = [&](Stack s, Mode m, int nodes, Vec3 grid) {
    JacobiConfig cfg;
    cfg.stack = s;
    cfg.mode = m;
    cfg.nodes = nodes;
    cfg.grid = grid;
    cfg.iters = iters;
    cfg.warmup = warmup;
    cfg.backed = false;
    return runJacobi(pinned(cfg));
  };

  auto header = [&](const char* phase) {
    std::printf("\n## %s %s — average time per iteration (ms)\n", fig_id, phase);
    if (with_ompi) {
      std::printf("%-6s %10s %10s %10s %10s | %10s %10s %10s %10s\n", "nodes", "AMPI-H",
                  "AMPI-D", "OpenMPI-H", "OpenMPI-D", "commH", "commD", "ocommH", "ocommD");
    } else {
      std::printf("%-6s %12s %12s | %12s %12s\n", "nodes", "overall-H", "overall-D", "comm-H",
                  "comm-D");
    }
  };

  auto row = [&](int nodes, Vec3 grid) {
    const auto h = run(stack, Mode::HostStaging, nodes, grid);
    const auto d = run(stack, Mode::Device, nodes, grid);
    if (with_ompi) {
      const auto oh = run(Stack::Ompi, Mode::HostStaging, nodes, grid);
      const auto od = run(Stack::Ompi, Mode::Device, nodes, grid);
      std::printf("%-6d %10.2f %10.2f %10.2f %10.2f | %10.2f %10.2f %10.2f %10.2f\n", nodes,
                  h.overall_ms_per_iter, d.overall_ms_per_iter, oh.overall_ms_per_iter,
                  od.overall_ms_per_iter, h.comm_ms_per_iter, d.comm_ms_per_iter,
                  oh.comm_ms_per_iter, od.comm_ms_per_iter);
    } else {
      std::printf("%-6d %12.2f %12.2f | %12.2f %12.2f\n", nodes, h.overall_ms_per_iter,
                  d.overall_ms_per_iter, h.comm_ms_per_iter, d.comm_ms_per_iter);
    }
  };

  std::printf("# %s: Jacobi3D, %s — host-staging vs GPU-aware\n", fig_id,
              osu::name(static_cast<osu::Stack>(stack)));
  header("weak scaling (base 1536^3, x2 per node doubling)");
  for (int e = 0; e <= 8; ++e) row(1 << e, weakScaledGrid(kWeakBase, e));
  header("strong scaling (3072^3)");
  for (int e = 3; e <= 8; ++e) row(1 << e, kStrongGrid);
}

}  // namespace cux::bench
