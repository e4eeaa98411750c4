#pragma once

#include "apps/jacobi/geometry.hpp"
#include "apps/osu/osu.hpp"
#include "model/model.hpp"

/// \file jacobi.hpp
/// Jacobi3D proxy application (paper Sec. IV-C): a 7-point stencil in 3D,
/// CUDA kernels for compute and halo packing, and 6-neighbour halo exchange
/// that is either GPU-aware (-D) or staged through host memory (-H).
/// Runs a fixed number of iterations without convergence checks, exactly as
/// the paper configures it, and reports overall and communication time per
/// iteration (the quantities of Figs. 14-16).

namespace cux::jacobi {

using osu::Mode;
using osu::Stack;

struct JacobiConfig {
  Stack stack = Stack::Charm;
  Mode mode = Mode::Device;
  int nodes = 1;
  Vec3 grid{256, 256, 256};
  int iters = 10;
  int warmup = 2;
  /// backed=true allocates real memory and computes the actual stencil
  /// (tests / examples); false is timing-only for paper-scale runs.
  bool backed = false;
  /// Overdecomposition factor (Charm++ only): blocks = odf * PEs, mapped
  /// round-robin. odf > 1 lets the runtime overlap one block's halo wait
  /// with another block's stencil — the paper's future-work direction
  /// (Sec. VI, ref. [23]). The paper's own evaluation uses odf = 1.
  int overdecomposition = 1;
  model::Model model = model::summit(1);  ///< machine is resized to `nodes`
  /// Called with the freshly constructed simulated machine before any traffic
  /// runs — the hook for attaching span sinks or utilization recording.
  std::function<void(hw::System&)> setup;
  /// Called with the simulated machine after the run finishes, before
  /// teardown — the hook for reading spans/metrics out of a run.
  std::function<void(hw::System&)> inspect;
};

struct JacobiResult {
  double overall_ms_per_iter = 0;
  double comm_ms_per_iter = 0;
  Decomposition dec;
};

/// Runs the proxy app on the chosen stack and returns per-iteration times.
[[nodiscard]] JacobiResult runJacobi(const JacobiConfig& cfg);

/// The paper's weak-scaling base grid: 1536^3 doubles on one node.
inline constexpr Vec3 kWeakBase{1536, 1536, 1536};
/// The paper's strong-scaling grid: 3072^3 doubles on 8..256 nodes.
inline constexpr Vec3 kStrongGrid{3072, 3072, 3072};

namespace detail {
/// `out` (optional, backed mode only): receives the assembled global grid.
JacobiResult runCharm(const JacobiConfig& cfg, std::vector<double>* out = nullptr);
JacobiResult runMpi(const JacobiConfig& cfg, std::vector<double>* out = nullptr);  // AMPI/OpenMPI
JacobiResult runC4p(const JacobiConfig& cfg, std::vector<double>* out = nullptr);
}  // namespace detail

// --- verification helpers (tests) -----------------------------------------

/// Serial CPU reference: `iters` Jacobi sweeps over grid `g` (zero boundary),
/// starting from the deterministic initial condition used by initialValue().
[[nodiscard]] std::vector<double> referenceJacobi(Vec3 g, int iters);

/// Initial value of global cell (x, y, z) — deterministic and cheap.
[[nodiscard]] double initialValue(std::int64_t x, std::int64_t y, std::int64_t z) noexcept;

/// Runs the given stack in backed mode on a small grid and returns the
/// assembled global result for comparison against referenceJacobi().
[[nodiscard]] std::vector<double> runJacobiVerified(const JacobiConfig& cfg);

}  // namespace cux::jacobi
