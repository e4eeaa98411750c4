#include <memory>

#include "apps/jacobi/block.hpp"
#include "charm4py/charm4py.hpp"
#include "ucx/context.hpp"

/// Jacobi3D in Charm4py style (paper Fig. 16): one coroutine per block,
/// channels to the six neighbours, GPU-aware or host-staging halo exchange
/// exactly as in the paper's Fig. 8 code shape. Every kernel launch and
/// channel operation pays the Python-layer overheads.

namespace cux::jacobi::detail {

namespace {

struct C4pEnv {
  const JacobiConfig* cfg = nullptr;
  Decomposition dec;
  c4p::Charm4py* py = nullptr;
  std::vector<std::unique_ptr<BlockState>> blocks;
  /// Channel end of block `b` facing direction `d` (nullptr at boundary).
  std::vector<std::array<c4p::ChannelEnd*, kNumDirs>> ends;
  sim::TimePoint t0 = 0, t_end = 0;
  int done_count = 0;
};

sim::FutureTask blockMain(C4pEnv* env, int id) {
  BlockState& b = *env->blocks[static_cast<std::size_t>(id)];
  const JacobiConfig& cfg = *env->cfg;
  auto& ends = env->ends[static_cast<std::size_t>(id)];
  c4p::Charm4py& py = *env->py;
  const int total = cfg.warmup + cfg.iters;
  std::vector<sim::Future<void>> sends;
  sends.reserve(kNumDirs);

  for (int it = 0; it < total; ++it) {
    if (it == cfg.warmup) {
      b.comm_ns = 0;
      b.measure_start = b.sys->engine.now();
      if (id == 0) env->t0 = b.measure_start;
    }
    b.stream->launch(b.packCost(), b.packBody());
    co_await py.streamSynchronize(b.pe, *b.stream);

    const sim::TimePoint comm_start = b.sys->engine.now();
    if (cfg.mode == Mode::HostStaging) {
      for (int d = 0; d < kNumDirs; ++d) {
        if (b.nbr[static_cast<std::size_t>(d)] < 0) continue;
        py.cudaDtoH(b.pe, b.h_send[d].ref(), b.deviceRef(b.d_send[d]),
                    env->dec.faceBytes(static_cast<Dir>(d)), *b.stream);
      }
      co_await py.streamSynchronize(b.pe, *b.stream);
    }
    sends.clear();
    for (int d = 0; d < kNumDirs; ++d) {
      if (ends[static_cast<std::size_t>(d)] == nullptr) continue;
      const auto dir = static_cast<Dir>(d);
      sends.push_back(ends[static_cast<std::size_t>(d)]->send(b.sendBuf(dir),
                                                              env->dec.faceBytes(dir)));
    }
    for (int d = 0; d < kNumDirs; ++d) {
      if (ends[static_cast<std::size_t>(d)] == nullptr) continue;
      const auto dir = static_cast<Dir>(d);
      co_await ends[static_cast<std::size_t>(d)]->recv(b.recvBuf(dir),
                                                       env->dec.faceBytes(dir));
    }
    co_await sim::allOf(sends);
    if (cfg.mode == Mode::HostStaging) {
      for (int d = 0; d < kNumDirs; ++d) {
        if (b.nbr[static_cast<std::size_t>(d)] < 0) continue;
        py.cudaHtoD(b.pe, b.deviceRef(b.d_recv[0][d]), b.h_recv[0][d].ref(),
                    env->dec.faceBytes(static_cast<Dir>(d)), *b.stream);
      }
      co_await py.streamSynchronize(b.pe, *b.stream);
    }
    b.comm_ns += b.sys->engine.now() - comm_start;

    b.stream->launch(b.unpackCost(), b.unpackBody(0));
    b.stream->launch(b.stencilCost(), b.stencilBody());
    co_await py.streamSynchronize(b.pe, *b.stream);
  }
  if (id == 0) env->t_end = b.sys->engine.now();
  ++env->done_count;
}

}  // namespace

JacobiResult runC4p(const JacobiConfig& cfg, std::vector<double>* out) {
  model::Model m = cfg.model;
  m.machine.num_nodes = cfg.nodes;
  m.machine.backed_device_memory = cfg.backed;
  hw::System sys(m.machine);
  if (cfg.setup) cfg.setup(sys);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);
  c4p::Charm4py py(rt);

  C4pEnv env;
  env.cfg = &cfg;
  env.py = &py;
  env.dec = decompose(cfg.grid, sys.config.numPes());
  env.ends.resize(static_cast<std::size_t>(sys.config.numPes()));
  for (auto& e : env.ends) e.fill(nullptr);
  for (int p = 0; p < sys.config.numPes(); ++p) {
    auto b = std::make_unique<BlockState>();
    b->init(sys, cfg, env.dec, p, p);
    env.blocks.push_back(std::move(b));
  }
  // One channel per neighbouring pair; wire both ends.
  for (int p = 0; p < sys.config.numPes(); ++p) {
    for (int d = 0; d < kNumDirs; ++d) {
      const int peer = env.blocks[static_cast<std::size_t>(p)]->nbr[static_cast<std::size_t>(d)];
      if (peer < 0 || peer < p) continue;  // create each channel once
      auto ch = py.makeChannel(p, peer);
      env.ends[static_cast<std::size_t>(p)][d] = ch.a;
      env.ends[static_cast<std::size_t>(peer)][static_cast<int>(opposite(static_cast<Dir>(d)))] =
          ch.b;
    }
  }
  for (int p = 0; p < sys.config.numPes(); ++p) {
    py.startOn(p, [&env, p] { (void)blockMain(&env, p); });
  }
  sys.engine.run();
  if (cfg.inspect) cfg.inspect(sys);

  JacobiResult res;
  res.dec = env.dec;
  res.overall_ms_per_iter = sim::toMs(env.t_end - env.t0) / cfg.iters;
  double comm = 0;
  for (const auto& b : env.blocks) comm += sim::toMs(b->comm_ns) / cfg.iters;
  res.comm_ms_per_iter = comm / static_cast<double>(env.blocks.size());
  if (out != nullptr) {
    for (const auto& b : env.blocks) b->extractInterior(*out);
  }
  return res;
}

}  // namespace cux::jacobi::detail
