#include "apps/particles/particles.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "ampi/ampi.hpp"
#include "hw/cuda.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

namespace cux::particles {

namespace {

/// Uniform double in [-1, 1) derived from a hash of `id` and `salt`.
[[nodiscard]] double hashUnit(std::uint64_t id, std::uint64_t salt) {
  sim::SplitMix64 rng(id * 0x9E3779B97F4A7C15ULL + salt);
  return 2.0 * rng.uniform() - 1.0;
}

[[nodiscard]] double wrap01(double v) { return v - std::floor(v); }

struct RankPatch {
  int cx = 0, cy = 0;  ///< cell coordinates in the processor grid
  int px = 1, py = 1;

  [[nodiscard]] int rankOf(int x, int y) const {
    return ((x + px) % px) + px * ((y + py) % py);
  }
  [[nodiscard]] int west() const { return rankOf(cx - 1, cy); }
  [[nodiscard]] int east() const { return rankOf(cx + 1, cy); }
  [[nodiscard]] int south() const { return rankOf(cx, cy - 1); }
  [[nodiscard]] int north() const { return rankOf(cx, cy + 1); }
  /// Cell x-index owning global coordinate x.
  [[nodiscard]] int cellX(double x) const {
    int c = static_cast<int>(x * px);
    return c >= px ? px - 1 : c;
  }
  [[nodiscard]] int cellY(double y) const {
    int c = static_cast<int>(y * py);
    return c >= py ? py - 1 : c;
  }
};

struct Env {
  const ParticlesConfig* cfg = nullptr;
  int px = 1, py = 1;
  hw::System* sys = nullptr;
  // Per-rank device storage: particle array + migrant pack/recv buffers.
  struct RankData {
    void* storage = nullptr;       ///< Particle[capacity]
    std::uint64_t count = 0;       ///< live particles
    std::uint64_t capacity = 0;
    hw::MemRef pack[2] = {};       ///< per phase-direction pack buffer
    hw::MemRef recv[2] = {};
    cuda::HostBuffer h_pack[2];    ///< -H staging
    cuda::HostBuffer h_recv[2];
    std::unique_ptr<cuda::Stream> stream;
    std::uint64_t comm_ns = 0;
    std::uint64_t migrants = 0;
    sim::TimePoint t0 = 0, t_end = 0;
  };
  std::vector<RankData> ranks;

  [[nodiscard]] Particle* parts(int r) {
    return static_cast<Particle*>(ranks[static_cast<std::size_t>(r)].storage);
  }
};

/// Moves every particle of rank `r` one step (kernel body, backed mode).
void moveBody(Env& env, int r) {
  auto& rd = env.ranks[static_cast<std::size_t>(r)];
  Particle* p = env.parts(r);
  const double wx = 1.0 / env.px, wy = 1.0 / env.py;
  const double dt = env.cfg->dt;
  for (std::uint64_t i = 0; i < rd.count; ++i) {
    p[i].x = wrap01(p[i].x + p[i].vx * wx * dt);
    p[i].y = wrap01(p[i].y + p[i].vy * wy * dt);
  }
}

/// Partitions rank r's particles for phase 0 (x) or 1 (y): keepers stay in
/// storage, migrants to the lower/upper neighbour are packed into
/// pack buffers. Returns {low_count, high_count}.
std::pair<std::uint64_t, std::uint64_t> partitionBody(Env& env, int r, int phase,
                                                      const RankPatch& patch) {
  auto& rd = env.ranks[static_cast<std::size_t>(r)];
  Particle* p = env.parts(r);
  auto* low = static_cast<Particle*>(rd.pack[0].ptr);
  auto* high = static_cast<Particle*>(rd.pack[1].ptr);
  std::uint64_t keep = 0, nlow = 0, nhigh = 0;
  for (std::uint64_t i = 0; i < rd.count; ++i) {
    const int home = phase == 0 ? patch.cellX(p[i].x) : patch.cellY(p[i].y);
    const int mine = phase == 0 ? patch.cx : patch.cy;
    const int n = phase == 0 ? patch.px : patch.py;
    if (home == mine) {
      p[keep++] = p[i];
    } else if (home == (mine - 1 + n) % n) {
      low[nlow++] = p[i];
    } else {
      assert(home == (mine + 1) % n && "particle moved more than one cell");
      high[nhigh++] = p[i];
    }
  }
  rd.count = keep;
  return {nlow, nhigh};
}

sim::FutureTask rankMain(ampi::Rank* r, Env* env) {
  const ParticlesConfig& cfg = *env->cfg;
  auto& rd = env->ranks[static_cast<std::size_t>(r->rank())];
  RankPatch patch{r->rank() % env->px, r->rank() / env->px, env->px, env->py};
  const bool backed = cfg.backed;
  const std::uint64_t psz = sizeof(Particle);

  for (int step = 0; step < cfg.warmup + cfg.steps; ++step) {
    if (step == cfg.warmup) {
      rd.comm_ns = 0;
      rd.migrants = 0;
      rd.t0 = r->system().engine.now();
    }
    // 1. Drift kernel.
    rd.stream->launch(sim::transferTime(rd.count * psz * 2,
                                        env->sys->config.gpu_mem_bandwidth_gbps * 0.7),
                      backed ? std::function<void()>([env, rr = r->rank()] {
                        moveBody(*env, rr);
                      })
                             : std::function<void()>{});
    co_await rd.stream->synchronize();

    // 2. Two-phase migration: x then y (diagonal movers take two hops).
    for (int phase = 0; phase < 2; ++phase) {
      std::uint64_t nlow = 0, nhigh = 0;
      if (backed) {
        // Partition/pack kernel; counts become known at completion.
        auto counts = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
        rd.stream->launch(
            sim::transferTime(rd.count * psz * 2,
                              env->sys->config.gpu_mem_bandwidth_gbps * 0.7),
            [env, rr = r->rank(), phase, &patch, counts] {
              *counts = partitionBody(*env, rr, phase, patch);
            });
        co_await rd.stream->synchronize();
        nlow = counts->first;
        nhigh = counts->second;
      } else {
        // Analytic expectation: uniform position and v ~ U[-dt, dt] cells
        // gives a dt/4 crossing fraction per side.
        nlow = nhigh = static_cast<std::uint64_t>(
            static_cast<double>(cfg.particles_per_rank) * cfg.dt / 4.0);
        rd.stream->launch(sim::transferTime(rd.count * psz * 2,
                                            env->sys->config.gpu_mem_bandwidth_gbps * 0.7));
        co_await rd.stream->synchronize();
      }
      rd.migrants += nlow + nhigh;

      const int lo = phase == 0 ? patch.west() : patch.south();
      const int hi = phase == 0 ? patch.east() : patch.north();
      const sim::TimePoint comm_start = r->system().engine.now();

      // 2a. Counts (always small/eager).
      std::uint64_t in_from_hi = 0, in_from_lo = 0;
      co_await r->sendrecv(&nlow, 8, lo, 100 + phase, &in_from_hi, 8, hi, 100 + phase);
      co_await r->sendrecv(&nhigh, 8, hi, 200 + phase, &in_from_lo, 8, lo, 200 + phase);

      // 2b. Variable-size particle payloads (device-aware or staged).
      auto exchange = [&](int peer_send, int peer_recv, hw::MemRef pack, hw::MemRef recv,
                          hw::MemRef h_pack, hw::MemRef h_recv, std::uint64_t out_n,
                          std::uint64_t in_n, int tag) -> sim::FutureTask {
        const std::uint64_t out_b = out_n * psz, in_b = in_n * psz;
        if (cfg.mode == Mode::HostStaging) {
          if (out_b > 0) {
            rd.stream->memcpyAsync(h_pack, pack, out_b, cuda::MemcpyKind::DeviceToHost);
            co_await rd.stream->synchronize();
          }
          co_await r->sendrecv(h_pack.ptr, out_b, peer_send, tag, h_recv.ptr, in_b, peer_recv,
                               tag);
          if (in_b > 0) {
            rd.stream->memcpyAsync(recv, h_recv, in_b, cuda::MemcpyKind::HostToDevice);
            co_await rd.stream->synchronize();
          }
        } else {
          co_await r->sendrecv(pack.ptr, out_b, peer_send, tag, recv.ptr, in_b, peer_recv, tag);
        }
      };
      // Low-direction sends pair with high-direction receives and vice versa.
      co_await exchange(lo, hi, rd.pack[0], rd.recv[1], rd.h_pack[0].ref(), rd.h_recv[1].ref(),
                        nlow, in_from_hi, 300 + phase);
      co_await exchange(hi, lo, rd.pack[1], rd.recv[0], rd.h_pack[1].ref(), rd.h_recv[0].ref(),
                        nhigh, in_from_lo, 400 + phase);
      rd.comm_ns += r->system().engine.now() - comm_start;

      // 2c. Unpack kernel: append arrivals to storage.
      const std::uint64_t arrived = in_from_hi + in_from_lo;
      rd.stream->launch(
          sim::transferTime(arrived * psz * 2,
                            env->sys->config.gpu_mem_bandwidth_gbps * 0.7),
          backed ? std::function<void()>([env, rr = r->rank(), in_from_hi, in_from_lo] {
            auto& d = env->ranks[static_cast<std::size_t>(rr)];
            Particle* p = env->parts(rr);
            const auto* rhi = static_cast<const Particle*>(d.recv[1].ptr);
            const auto* rlo = static_cast<const Particle*>(d.recv[0].ptr);
            assert(d.count + in_from_hi + in_from_lo <= d.capacity);
            for (std::uint64_t i = 0; i < in_from_hi; ++i) p[d.count++] = rhi[i];
            for (std::uint64_t i = 0; i < in_from_lo; ++i) p[d.count++] = rlo[i];
          })
                 : std::function<void()>{});
      co_await rd.stream->synchronize();
    }
  }
  rd.t_end = r->system().engine.now();
}

struct Instance {
  explicit Instance(const ParticlesConfig& cfg) : env() {
    model::Model m = cfg.model;
    m.machine.num_nodes = cfg.nodes;
    m.machine.backed_device_memory = cfg.backed;
    sys = std::make_unique<hw::System>(m.machine);
    if (cfg.setup) cfg.setup(*sys);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
    world = std::make_unique<ampi::World>(*rt);

    env.cfg = &cfg;
    env.sys = sys.get();
    processorGrid(sys->config.numPes(), env.px, env.py);
    env.ranks.resize(static_cast<std::size_t>(sys->config.numPes()));
    const std::uint64_t cap = cfg.particles_per_rank * 4 + 64;
    for (int rank = 0; rank < sys->config.numPes(); ++rank) {
      auto& rd = env.ranks[static_cast<std::size_t>(rank)];
      rd.capacity = cap;
      rd.count = cfg.particles_per_rank;
      rd.storage = cuda::deviceAlloc(*sys, rank, cap * sizeof(Particle)).ptr;
      for (int i = 0; i < 2; ++i) {
        rd.pack[i] = cuda::deviceAlloc(*sys, rank, cap * sizeof(Particle));
        rd.recv[i] = cuda::deviceAlloc(*sys, rank, cap * sizeof(Particle));
        if (cfg.mode == Mode::HostStaging) {
          rd.h_pack[i] = cuda::HostBuffer(*sys, cap * sizeof(Particle));
          rd.h_recv[i] = cuda::HostBuffer(*sys, cap * sizeof(Particle));
        }
      }
      rd.stream = std::make_unique<cuda::Stream>(*sys, rank);
      if (cfg.backed) {
        const int cx = rank % env.px, cy = rank / env.px;
        const double wx = 1.0 / env.px, wy = 1.0 / env.py;
        Particle* p = env.parts(rank);
        for (std::uint64_t i = 0; i < cfg.particles_per_rank; ++i) {
          const std::uint64_t gid =
              static_cast<std::uint64_t>(rank) * cfg.particles_per_rank + i;
          p[i] = initialParticle(gid, cx * wx, cy * wy, wx, wy);
        }
      }
    }
  }

  ~Instance() {
    for (auto& rd : env.ranks) {
      cuda::deviceFree(*sys, rd.storage);
      for (int i = 0; i < 2; ++i) {
        cuda::deviceFree(*sys, rd.pack[i].ptr);
        cuda::deviceFree(*sys, rd.recv[i].ptr);
      }
    }
  }

  ParticlesResult run() {
    world->run([this](ampi::Rank& r) -> sim::FutureTask { return rankMain(&r, &env); });
    sys->engine.run();
    if (env.cfg->inspect) env.cfg->inspect(*sys);
    ParticlesResult res;
    const auto& r0 = env.ranks[0];
    res.overall_ms_per_step = sim::toMs(r0.t_end - r0.t0) / env.cfg->steps;
    double comm = 0, mig = 0;
    for (const auto& rd : env.ranks) {
      comm += sim::toMs(rd.comm_ns) / env.cfg->steps;
      mig += static_cast<double>(rd.migrants) / env.cfg->steps;
    }
    res.comm_ms_per_step = comm / static_cast<double>(env.ranks.size());
    res.avg_migrants_per_rank_step = mig / static_cast<double>(env.ranks.size());
    return res;
  }

  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<ampi::World> world;
  Env env;
};

}  // namespace

void processorGrid(int pes, int& px, int& py) {
  px = 1;
  for (int d = 1; d * d <= pes; ++d) {
    if (pes % d == 0) px = d;
  }
  py = pes / px;
  if (px > py) std::swap(px, py);
}

Particle initialParticle(std::uint64_t gid, double x0, double y0, double wx, double wy) {
  Particle p;
  p.id = gid;
  p.x = x0 + (hashUnit(gid, 1) * 0.5 + 0.5) * wx;
  p.y = y0 + (hashUnit(gid, 2) * 0.5 + 0.5) * wy;
  p.vx = hashUnit(gid, 3);  // cells per unit dt, in [-1, 1)
  p.vy = hashUnit(gid, 4);
  return p;
}

ParticlesResult runParticles(const ParticlesConfig& cfg) {
  Instance inst(cfg);
  return inst.run();
}

std::vector<Particle> referenceParticles(const ParticlesConfig& cfg, int px, int py) {
  const int pes = px * py;
  const double wx = 1.0 / px, wy = 1.0 / py;
  std::vector<Particle> all;
  all.reserve(static_cast<std::size_t>(pes) * cfg.particles_per_rank);
  for (int rank = 0; rank < pes; ++rank) {
    const int cx = rank % px, cy = rank / px;
    for (std::uint64_t i = 0; i < cfg.particles_per_rank; ++i) {
      const std::uint64_t gid = static_cast<std::uint64_t>(rank) * cfg.particles_per_rank + i;
      all.push_back(initialParticle(gid, cx * wx, cy * wy, wx, wy));
    }
  }
  for (int step = 0; step < cfg.warmup + cfg.steps; ++step) {
    for (Particle& p : all) {
      p.x = wrap01(p.x + p.vx * wx * cfg.dt);
      p.y = wrap01(p.y + p.vy * wy * cfg.dt);
    }
  }
  std::sort(all.begin(), all.end(), [](const Particle& a, const Particle& b) {
    return a.id < b.id;
  });
  return all;
}

std::vector<Particle> runParticlesVerified(const ParticlesConfig& cfg) {
  if (!cfg.backed) {
    throw std::invalid_argument("runParticlesVerified: verification needs backed device memory");
  }
  Instance inst(cfg);
  inst.run();
  std::vector<Particle> all;
  for (std::size_t r = 0; r < inst.env.ranks.size(); ++r) {
    const Particle* p = inst.env.parts(static_cast<int>(r));
    for (std::uint64_t i = 0; i < inst.env.ranks[r].count; ++i) all.push_back(p[i]);
  }
  std::sort(all.begin(), all.end(), [](const Particle& a, const Particle& b) {
    return a.id < b.id;
  });
  return all;
}

}  // namespace cux::particles
