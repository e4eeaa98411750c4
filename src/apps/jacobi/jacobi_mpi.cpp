#include <memory>

#include "ampi/ampi.hpp"
#include "apps/jacobi/block.hpp"
#include "ompi/ompi.hpp"
#include "ucx/context.hpp"

/// Jacobi3D for the MPI stacks (AMPI and the OpenMPI reference of Fig. 15):
/// one rank per block/GPU, halo exchange with isend/irecv + waitall. The -H
/// variant stages every face through host memory around the exchange.

namespace cux::jacobi::detail {

namespace {

struct MpiEnv {
  const JacobiConfig* cfg = nullptr;
  Decomposition dec;
  std::vector<std::unique_ptr<BlockState>> blocks;
  sim::TimePoint t0 = 0, t_end = 0;
};

template <class RankT>
sim::FutureTask jacobiMain(RankT* r, MpiEnv* env) {
  BlockState& b = *env->blocks[static_cast<std::size_t>(r->rank())];
  const JacobiConfig& cfg = *env->cfg;
  const int total = cfg.warmup + cfg.iters;
  // One request list for the whole run: its storage is reused every iteration.
  std::vector<sim::Future<void>> reqs;
  reqs.reserve(static_cast<std::size_t>(2 * b.nnbr));

  for (int it = 0; it < total; ++it) {
    if (it == cfg.warmup) {
      b.comm_ns = 0;
      b.measure_start = r->system().engine.now();
      if (r->rank() == 0) env->t0 = b.measure_start;
    }
    // Pack halos on the GPU.
    b.stream->launch(b.packCost(), b.packBody());
    co_await b.stream->synchronize();

    const sim::TimePoint comm_start = r->system().engine.now();
    if (cfg.mode == Mode::HostStaging) {
      b.stageSendFaces();
      co_await b.stream->synchronize();
    }
    reqs.clear();
    for (int d = 0; d < kNumDirs; ++d) {
      const int peer = b.nbr[static_cast<std::size_t>(d)];
      if (peer < 0) continue;
      const auto dir = static_cast<Dir>(d);
      reqs.push_back(
          r->irecv(b.recvBuf(dir), env->dec.faceBytes(dir), peer, d));
      // The peer receives this face on its opposite side; tag by the
      // receiver-side direction so matching is unambiguous.
      reqs.push_back(r->isend(b.sendBuf(dir), env->dec.faceBytes(dir), peer,
                              static_cast<int>(opposite(dir))));
    }
    co_await sim::allOf(reqs);
    if (cfg.mode == Mode::HostStaging) {
      b.stageRecvFaces(0);
      co_await b.stream->synchronize();
    }
    b.comm_ns += r->system().engine.now() - comm_start;

    // Unpack halos and run the stencil.
    b.stream->launch(b.unpackCost(), b.unpackBody(0));
    b.stream->launch(b.stencilCost(), b.stencilBody());
    co_await b.stream->synchronize();
  }
  if (r->rank() == 0) env->t_end = r->system().engine.now();
}

JacobiResult finish(const JacobiConfig& cfg, MpiEnv& env, std::vector<double>* out) {
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

}  // namespace

JacobiResult runMpi(const JacobiConfig& cfg, std::vector<double>* out) {
  model::Model m = cfg.model;
  m.machine.num_nodes = cfg.nodes;
  m.machine.backed_device_memory = cfg.backed;
  hw::System sys(m.machine);
  if (cfg.setup) cfg.setup(sys);
  ucx::Context ctx(sys, m.ucx);

  MpiEnv env;
  env.cfg = &cfg;
  env.dec = decompose(cfg.grid, sys.config.numPes());
  for (int p = 0; p < sys.config.numPes(); ++p) {
    auto b = std::make_unique<BlockState>();
    b->init(sys, cfg, env.dec, p, p);
    env.blocks.push_back(std::move(b));
  }

  if (cfg.stack == Stack::Ampi) {
    ck::Runtime rt(sys, ctx, m);
    ampi::World world(rt);
    world.run([&env](ampi::Rank& r) -> sim::FutureTask {
      return jacobiMain<ampi::Rank>(&r, &env);
    });
    sys.engine.run();
    if (cfg.inspect) cfg.inspect(sys);
    return finish(cfg, env, out);
  }
  ompi::World world(sys, ctx, m.costs);
  world.run([&env](ompi::Rank& r) -> sim::FutureTask {
    return jacobiMain<ompi::Rank>(&r, &env);
  });
  sys.engine.run();
  if (cfg.inspect) cfg.inspect(sys);
  return finish(cfg, env, out);
}

}  // namespace cux::jacobi::detail
