#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "apps/osu/osu.hpp"
#include "model/model.hpp"

/// \file particles.hpp
/// Particle-migration proxy app: the second workload class the paper's
/// introduction motivates ("GPU-accelerated applications often store the
/// bulk of their data in device memory") that Jacobi3D does not cover —
/// *variable-size*, data-dependent communication.
///
/// A 2D periodic domain is decomposed over the PEs; each PE owns the
/// particles inside its patch (positions/velocities in simulated GPU
/// memory). Every step particles drift, migrants are packed on the GPU and
/// exchanged with the four neighbours (count first, then a variable-size
/// particle payload — GPU-aware or host-staged), and the receiving side
/// unpacks on the GPU.
///
/// Backed runs move real particles and are verified against a serial
/// reference (exact trajectory equality); unbacked runs use the analytic
/// expected migrant count so paper-scale particle counts cost only virtual
/// time.

namespace cux::particles {

using osu::Mode;

struct Particle {
  double x = 0, y = 0;
  double vx = 0, vy = 0;
  std::uint64_t id = 0;
};

struct ParticlesConfig {
  int nodes = 1;
  std::uint64_t particles_per_rank = 10000;
  int steps = 10;
  int warmup = 2;
  Mode mode = Mode::Device;
  bool backed = false;
  double dt = 0.2;  ///< of a cell width; bounds migration to adjacent cells
  model::Model model = model::summit(1);
  /// Called with the freshly constructed simulated machine before any traffic
  /// runs — the hook for attaching span sinks or utilization recording.
  std::function<void(hw::System&)> setup;
  /// Called with the simulated machine after the run finishes, before
  /// teardown — the hook for reading spans/metrics out of a run.
  std::function<void(hw::System&)> inspect;
};

struct ParticlesResult {
  double overall_ms_per_step = 0;
  double comm_ms_per_step = 0;
  double avg_migrants_per_rank_step = 0;
};

/// Runs the proxy app (AMPI ranks, one per PE/GPU).
[[nodiscard]] ParticlesResult runParticles(const ParticlesConfig& cfg);

/// Deterministic initial particle for (rank, index) given the rank's patch.
[[nodiscard]] Particle initialParticle(std::uint64_t global_id, double x0, double y0,
                                       double wx, double wy);

/// Serial reference: the full particle set after `steps` steps.
[[nodiscard]] std::vector<Particle> referenceParticles(const ParticlesConfig& cfg, int px,
                                                       int py);

/// Backed-mode run returning the final global particle set (sorted by id)
/// for comparison against the reference.
[[nodiscard]] std::vector<Particle> runParticlesVerified(const ParticlesConfig& cfg);

/// Processor grid used for `pes` ranks (as square as possible).
void processorGrid(int pes, int& px, int& py);

}  // namespace cux::particles
