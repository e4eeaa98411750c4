#include <cstdio>

#include "apps/osu/osu.hpp"
#include "hw/cuda.hpp"
#include "trace_pin.hpp"
#include "ucx/context.hpp"

/// Ablation: the metadata-exchange overhead (paper Sec. IV-B1). The authors
/// isolated the time spent outside UCX by disabling the CmiSend/RecvDevice
/// path and invoking receive handlers directly, finding the raw UCX GPU-GPU
/// transfer at < 2 us and ~8 us of AMPI-specific overhead on top.
///
/// This bench reproduces that decomposition: raw mini-UCX tagged transfer
/// (receive pre-posted, no metadata message) versus the full per-model
/// stacks, for small inter-node device messages.

using namespace cux;

namespace {

double rawUcxLatency(std::size_t bytes, int iters) {
  model::Model m = model::summit(2);
  m.machine.backed_device_memory = false;
  hw::System sys(m.machine);
  bench::traceOn(sys);
  ucx::Context ctx(sys, m.ucx);
  cuda::DeviceBuffer a(sys, 0, bytes), b(sys, 6, bytes);

  // Ping-pong driven by completion callbacks directly on the workers —
  // the Converse/Charm++ layers never run.
  int remaining = 2 * iters;
  sim::TimePoint done_at = 0;
  std::function<void(int)> post = [&](int side) {
    const hw::MemRef& buf = side == 0 ? a.ref() : b.ref();
    const int pe = side == 0 ? 0 : 6;
    ctx.worker(pe).tagRecv(buf, bytes, 7, ucx::kFullMask, [&, side](ucx::Request&) {
      if (--remaining == 0) {
        done_at = sys.engine.now();
        return;
      }
      post(side);
      ctx.tagSend(side == 0 ? 0 : 6, side == 0 ? 6 : 0,
                  side == 0 ? a.ref() : b.ref(), bytes, 7, {});
    });
  };
  post(0);
  post(1);
  ctx.tagSend(0, 6, a.ref(), bytes, 7, {});
  sys.engine.run();
  bench::tracePin(sys);
  return sim::toUs(done_at) / (2.0 * iters);
}

double stackLatency(osu::Stack s, std::size_t bytes) {
  osu::BenchConfig cfg;
  cfg.stack = s;
  cfg.mode = osu::Mode::Device;
  cfg.place = osu::Placement::InterNode;
  cfg.iters = 20;
  cfg.warmup = 5;
  return osu::latencyPoint(bench::pinned(cfg), bytes);
}

}  // namespace

int main() {
  std::printf("# Ablation: metadata-exchange overhead above raw UCX (paper Sec. IV-B1)\n\n");
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "size", "raw UCX", "OpenMPI", "Charm++",
              "AMPI", "Charm4py");
  for (std::size_t bytes : {8u, 64u, 1024u, 4096u}) {
    std::printf("%-10zu %10.2f %10.2f %10.2f %10.2f %10.2f\n", bytes,
                rawUcxLatency(bytes, 20), stackLatency(osu::Stack::Ompi, bytes),
                stackLatency(osu::Stack::Charm, bytes), stackLatency(osu::Stack::Ampi, bytes),
                stackLatency(osu::Stack::Charm4py, bytes));
  }
  const double raw = rawUcxLatency(8, 20);
  const double ampi = stackLatency(osu::Stack::Ampi, 8);
  std::printf("\nAMPI overhead outside UCX at 8 B: %.1f us (paper: ~8 us).\n", ampi - raw);
  std::printf("Raw UCX GPU-GPU transfer: %.1f us (paper: < 2 us plus wire).\n", raw);
  return 0;
}
